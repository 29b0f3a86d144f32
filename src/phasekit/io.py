"""Deterministic CSV/JSON persistence: the one module that writes files,
called by the commands in cli.

One CSV writer, write_csv, writes every table: each value is the repr of
its Python value, so integers are written as integers and floats in
Python's shortest round-trip form, and rows come in fixed orders, so
identical runs produce byte-identical files.

A float's repr costs about half a microsecond, and most of what a run
writes repeats itself: a member of the homogenization family repeats with
period N/n, the two-phase reference at rest holds one value per snapshot,
and every snapshot of a run has the same x column.  So write_csv formats a
table in blocks of at most _CELLS_PER_BLOCK cells and calls repr once per
distinct float64 bit pattern of a column in a block.  Values are matched
by bits, so -0.0 and 0.0, and each NaN payload, keep their own text, and
every byte is what one repr per cell writes; a column of any other dtype
(convergence.csv's n) gets one repr per cell.  The bound counts cells, not
rows, so a block's arrays and texts stay the same size whatever the
table's width, and the writer adds little to a run's peak memory.
write_trajectory formats the x column once per trajectory and holds it
compactly as a FormattedColumn: one joined string per block.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .diagnostics import RECORD_COLUMNS, DiagnosticsRecord
from .nsk import _field_names

# cells formatted at a time: bounds the writer's memory, and is the span
# in which a repeated value is formatted once
_CELLS_PER_BLOCK = 8192


def _rows_per_block(width):
    return max(1, _CELLS_PER_BLOCK // width)


def _texts(values):
    """The repr of each entry of a contiguous 1D array, as an object array:
    one repr per distinct bit pattern of a float64 array, one per entry of
    any other."""
    if values.dtype != np.float64:
        return np.array(list(map(repr, values.tolist())), dtype=object)
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                     dtype=object)
    return texts[inverse]


class FormattedColumn:
    """A 1D column formatted once for tables of `width` cells per row: one
    string per block of write_csv's rows, the rows' texts joined by
    newlines."""

    ndim = 1

    def __init__(self, column, width):
        column = np.asarray(column)
        self.shape, self.width = column.shape, width
        rows = _rows_per_block(width)
        self.blocks = ["\n".join(_texts(column[start:start + rows].ravel())
                                 .tolist())
                       for start in range(0, len(column), rows)]


def _block_text(parts, widths, rows):
    """The lines of one block of rows: each part that block of a column, a
    1D or 2D array, or of a FormattedColumn, its joined text."""
    cells = np.empty((rows, 2 * sum(widths)), dtype=object)
    cells[:, 1::2] = ","
    cells[:, -1] = "\n"
    col = 0
    for part, width in zip(parts, widths):
        cells[:, 2 * col:2 * (col + width):2] = (
            np.array(part.split("\n"), dtype=object)[:, None]
            if isinstance(part, str)
            else _texts(part.ravel()).reshape(rows, width))
        col += width
    return "".join(cells.ravel().tolist())


def write_csv(path, header, columns):
    """The header, then the columns side by side: 1D arrays, 2D blocks of
    several, or FormattedColumns.  A ragged table, whose columns differ in
    rows or whose header is not one name per cell of a row, raises
    ValueError."""
    columns = [c if isinstance(c, FormattedColumn) else np.asarray(c)
               for c in columns]
    widths = [c.shape[1] if c.ndim == 2 else 1 for c in columns]
    width = sum(widths)
    if (any(c.ndim not in (1, 2) for c in columns)
            or len({c.shape[0] for c in columns}) != 1
            or len(header) != width
            or any(c.width != width for c in columns
                   if isinstance(c, FormattedColumn))):
        shapes = [f"{c.shape} formatted for {c.width} cells a row"
                  if isinstance(c, FormattedColumn) else c.shape
                  for c in columns]
        raise ValueError(f"ragged table for {path}: {len(header)} header "
                         f"names, columns of shapes {shapes}")
    rows, block = columns[0].shape[0], _rows_per_block(width)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for k, start in enumerate(range(0, rows, block)):
            stop = min(start + block, rows)
            f.write(_block_text(
                [c.blocks[k] if isinstance(c, FormattedColumn)
                 else c[start:stop] for c in columns], widths, stop - start))


def write_diagnostics(path, records: DiagnosticsRecord):
    write_csv(path, RECORD_COLUMNS,
              [getattr(records, name) for name in RECORD_COLUMNS])


def read_diagnostics(path) -> DiagnosticsRecord:
    """The diagnostics table of a run, as the run held it."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    if tuple(data.dtype.names) != RECORD_COLUMNS:
        raise ValueError(f"unexpected diagnostics columns in {path}: "
                         f"{data.dtype.names}")
    data = np.atleast_1d(data)
    return DiagnosticsRecord(*(data[name].copy() for name in RECORD_COLUMNS))


def write_trajectory(out_dir, trajectory):
    """Snapshots (one CSV each: x, formatted once for the run, then the
    state's fields) plus diagnostics.csv for a finished run."""
    os.makedirs(out_dir, exist_ok=True)
    snapshots = trajectory.snapshots
    if snapshots:
        names = _field_names(type(snapshots[0]))
        x = FormattedColumn(snapshots[0].grid.x, 1 + len(names))
    for i, state in enumerate(snapshots):
        write_csv(os.path.join(out_dir, f"snapshot_{i:05d}.csv"),
                  ["x", *names],
                  [x, *(getattr(state, name) for name in names)])
    write_diagnostics(os.path.join(out_dir, "diagnostics.csv"),
                      trajectory.records)


def write_measure_summary(path, times, names, pairings):
    """One row per time: t, then that snapshot's pairings, one value per
    name (a measure's pair(dictionary) with names = dictionary.names())."""
    write_csv(path, ["t"] + list(names), (times, pairings))


def write_distances(path, times, dict_distances, wasserstein):
    write_csv(path, ("t", "dict_distance", "wasserstein_avg"),
              (times, dict_distances, wasserstein))


def write_convergence(path, report):
    header = (["n", "sup_t_measure_dist", "sup_t_u_err"]
              + [f"dist_t{i:04d}" for i in range(len(report.times))]
              + [f"uerr_t{i:04d}" for i in range(len(report.times))])
    write_csv(path, header, (report.n_list, report.sup_dist, report.sup_uerr,
                             report.dist_series, report.uerr_series))


def write_family(out, report):
    """The tree homogenize writes: convergence.csv, the two-phase reference
    under bn/ and each member of the report under member_n<n>/, every run
    with its measures.csv and each member with its distances.csv."""
    write_convergence(os.path.join(out, "convergence.csv"), report)
    extras = report.extras
    names = extras["dictionary"].names()
    write_trajectory(os.path.join(out, "bn"), extras["bn_trajectory"])
    write_measure_summary(os.path.join(out, "bn", "measures.csv"),
                          report.times, names, extras["bn_pairings"])
    for n, traj, pairings, dists, w1s in zip(
            report.n_list, extras["members"], extras["member_pairings"],
            report.dist_series, report.wasserstein_series):
        member_dir = os.path.join(out, f"member_n{n}")
        write_trajectory(member_dir, traj)
        write_distances(os.path.join(member_dir, "distances.csv"),
                        report.times, dists, w1s)
        write_measure_summary(os.path.join(member_dir, "measures.csv"),
                              report.times, names, pairings)


def write_meta(path, payload: dict):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
