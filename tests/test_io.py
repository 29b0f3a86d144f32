import json
from dataclasses import astuple

import numpy as np
import pytest

from phasekit import cli, io
from phasekit.bn import BNState, bn_run
from phasekit.diagnostics import RECORD_COLUMNS, balance_check, compute_record
from phasekit.eos import PolytropicEOS
from phasekit.io import FormattedColumn, read_diagnostics, write_csv
from phasekit.nsk import FluidState, PhysicalParams, SolverConfig, nsk_run
from phasekit.torus import PeriodicGrid


def per_cell(header, columns):
    """The text of a table with one repr per cell: the writer's oracle."""
    columns = [np.asarray(c) for c in columns]
    lines = [",".join(header)]
    for k in range(len(columns[0])):
        cells = []
        for c in columns:
            value = c[k].tolist()
            cells += map(repr, value if c.ndim == 2 else [value])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# signed zeros, NaNs of three payloads, infinities, subnormals and the
# neighbours of repr's switches to exponent notation at 1e16 and 1e-4
SPECIAL = np.concatenate([
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
     2.225073858507201e-308, 2.2250738585072014e-308, 1e16,
     9999999999999998.0, 1.0000000000000002e16, 1e-4,
     9.999999999999999e-05, 1.0000000000000002e-04, 1e-5,
     1.7976931348623157e308, -0.0, 0.0],
    np.array([0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64)])
HEADER = ("n", "special", "constant", "short", "block", "long", "wide",
          "reversed", "a", "b", "c")


def table(rows, rng):
    """The columns of an 11-cell table: an int column, 1D float columns
    (constant, and periodic with a period shorter than, equal to and
    longer than the writer's block, others not periodic, one of them a
    reversed view) and a 2D block of three in Fortran order."""
    block = io._rows_per_block(len(HEADER))

    def periodic(period):
        return np.tile(rng.normal(size=period), rows // period + 1)[:rows]

    zeros = np.where(np.arange(rows) % 3 == 0, -0.0, 0.0)
    wide = rng.normal(size=rows) * 10.0 ** rng.integers(-320, 308, rows)
    pairs = np.asfortranarray(np.column_stack(
        [rng.normal(size=rows), zeros, rng.uniform(0.0, 1e-300, rows)]))
    return [np.arange(rows) * 3 - 7,
            np.resize(SPECIAL, rows),
            np.full(rows, 0.1),
            periodic(7), periodic(block), periodic(block + 13),
            np.where(np.arange(rows) % 5 == 0, zeros, wide),
            (wide * 0.5)[::-1],
            pairs]


def test_write_csv_columns_and_blocks(tmp_path):
    # bitwise what one repr per cell writes, from one row to rows across
    # several blocks, on writable and on read-only columns alike
    rng = np.random.default_rng(0)
    block = io._rows_per_block(len(HEADER))
    for rows in (1, block, 2 * block + 5, 8193):
        columns = table(rows, rng)
        expected = per_cell(HEADER, columns)
        copies = [c.copy() for c in columns]
        path = tmp_path / "sub" / f"table_{rows}.csv"
        write_csv(str(path), HEADER, columns)
        assert path.read_bytes() == expected.encode()
        assert all(c.tobytes() == d.tobytes() for c, d in zip(columns, copies))
        for c in copies:
            c.flags.writeable = False
        write_csv(str(path), HEADER, copies)
        assert path.read_bytes() == expected.encode()
    # the tables do hold -0.0, NaN, a subnormal and exponent notation
    first = expected.splitlines()[1].split(",")
    assert first[:3] == ["-7", "0.0", "0.1"]
    assert all(text in expected
               for text in ("-0.0", "nan", "5e-324", "1e+16", "1e-05"))


@pytest.mark.parametrize("header, columns, shapes", [
    (("a", "b"), lambda: (np.zeros(4), np.zeros(5)), ["(4,)", "(5,)"]),
    (("a", "b", "c"), lambda: (np.zeros(4), np.zeros((3, 2))),
     ["(4,)", "(3, 2)"]),
    (("a",), lambda: (np.zeros(4), np.zeros(4)), ["1 header names"]),
    (("a", "b", "c"), lambda: (np.zeros(4), np.zeros((4, 1))),
     ["3 header names"]),
    (("x", "a"), lambda: (FormattedColumn(np.zeros(5), 2), np.zeros(4)),
     ["(5,) formatted for 2 cells a row", "(4,)"]),
    (("x", "a"), lambda: (FormattedColumn(np.zeros(4), 3), np.zeros(4)),
     ["(4,) formatted for 3 cells a row"]),
    (("a",), lambda: (np.zeros((2, 2, 2)),), ["(2, 2, 2)"]),
], ids=["rows", "block_rows", "short_header", "long_header", "formatted_rows",
        "formatted_width", "3d"])
def test_write_csv_refuses_a_ragged_table(tmp_path, header, columns, shapes):
    # a ragged table raises before any file is written, naming the path
    # and the shapes, instead of zip dropping or misaligning rows
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match="ragged table") as err:
        write_csv(str(path), header, columns())
    assert str(path) in str(err.value)
    assert all(shape in str(err.value) for shape in shapes)
    assert not path.exists()


def test_snapshot_x_is_the_grid_of_each_trajectory(tmp_path):
    # runs on three grids and two table widths, written in one process:
    # each snapshot's x column is repr(i / n) on its own trajectory's grid
    params = PhysicalParams(mu=0.1, kappa=0.02,
                            eos=PolytropicEOS(1.0, 2.0, 1.0))
    config = SolverConfig(dt=1e-4, t_end=3e-4, bounds=(0.05, 20.0))

    def profile(grid):
        return 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)

    runs = []
    for n in (64, 128):
        grid = PeriodicGrid(n)
        runs.append((n, 4, nsk_run(FluidState.make(
            grid, profile(grid), grid.zeros(), params), params, config)))
    # 2048 nodes span two of the writer's blocks at 7 cells a row
    grid = PeriodicGrid(2048)
    runs.append((2048, 7, bn_run(BNState.make(
        grid, 0.4, profile(grid), profile(grid), grid.zeros(), params),
        params, config)))
    for k, (n, width, traj) in enumerate(runs):
        out = tmp_path / f"run{k}"
        io.write_trajectory(str(out), traj)
        paths = sorted(out.glob("snapshot_*.csv"))
        assert len(paths) == len(traj.snapshots) == 4
        for path in paths:
            rows = [line.split(",") for line in path.read_text().splitlines()]
            assert len(rows) == n + 1 and {len(r) for r in rows} == {width}
            assert [r[0] for r in rows[1:]] == [repr(i / n) for i in range(n)]


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
