import json
from dataclasses import astuple

import numpy as np
import pytest

from phasekit import cli
from phasekit.diagnostics import RECORD_COLUMNS, balance_check, compute_record
from phasekit.io import read_diagnostics, write_csv


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


# a two-value profile with a moving start, 300 steps in three record
# chunks (128 rows each at n = 64), every state a snapshot
ROUND_TRIP = """
[grid]
n = 64

[time]
dt = 2e-4
t_end = 0.06
snapshot_every = 1

[init]
n_osc = 1
u0_mode = 1
u0_amp = 0.2
"""


@pytest.mark.parametrize("command", ["simulate-nsk", "simulate-bn"])
def test_diagnostics_table_round_trips_through_disk(tmp_path, monkeypatch,
                                                    capsys, command):
    runs = []

    def keeping(run):
        def wrapper(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]
        return wrapper

    monkeypatch.setattr(cli, "nsk_run", keeping(cli.nsk_run))
    monkeypatch.setattr(cli, "bn_run", keeping(cli.bn_run))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ROUND_TRIP)
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    (traj,) = runs
    table = traj.records
    assert traj.n_steps == 300 and len(traj.snapshots) == 301
    # the run's table: row k is compute_record of snapshot k, bitwise
    columns = np.array(astuple(table))
    assert columns.dtype == np.float64 and columns.shape == (11, 301)
    for k, state in enumerate(traj.snapshots):
        row = np.array(astuple(compute_record(state, traj.params)))
        assert columns[:, k].tobytes() == row.tobytes()
    # ... and reads back from diagnostics.csv bitwise, field by field
    read = read_diagnostics(str(out / "diagnostics.csv"))
    for name in RECORD_COLUMNS:
        assert getattr(read, name).tobytes() == getattr(table, name).tobytes()
    report = balance_check(table)
    assert balance_check(read) == report
    capsys.readouterr()
    assert cli.main(["diagnose", "--run", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == report
