import numpy as np

from phasekit.io import write_csv


def test_write_csv_columns_and_blocks(tmp_path):
    # more rows than one conversion block, so rows cross a block boundary
    rng = np.random.default_rng(0)
    k = 600
    ints = np.arange(k) * 3
    floats = rng.normal(size=k) * 10.0 ** rng.integers(-20, 20, size=k)
    block = rng.normal(size=(k, 3))
    path = tmp_path / "sub" / "table.csv"
    write_csv(str(path), ("n", "f", "a", "b", "c"), (ints, floats, block))
    expected = ["n,f,a,b,c"] + [
        ",".join([str(int(n)), repr(float(f))] + [repr(float(v)) for v in row])
        for n, f, row in zip(ints, floats, block)]
    text = path.read_text()
    assert text.endswith("\n") and text.splitlines() == expected
