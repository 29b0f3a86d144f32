"""Deterministic CSV/JSON persistence: the one module that writes files,
called by the commands in cli.

One CSV writer, write_csv, writes every table: each value is the repr of
its Python value, so integers are written as integers and floats in
Python's shortest round-trip form, and rows come in fixed orders, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .diagnostics import RECORD_COLUMNS, DiagnosticsRecord
from .nsk import _field_names

# rows converted to Python values at a time: bounds the writer's memory
_ROWS_PER_BLOCK = 256


def _cells(column):
    """One string per row of a 1D column or a 2D block of columns."""
    if column.ndim == 1:
        return map(repr, column.tolist())
    return (",".join(map(repr, row)) for row in column.tolist())


def write_csv(path, header, columns):
    """The header, then the columns (1D, or 2D for several) side by side."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    columns = [np.asarray(c) for c in columns]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROWS_PER_BLOCK):
            cells = [_cells(c[start:start + _ROWS_PER_BLOCK]) for c in columns]
            f.writelines(",".join(row) + "\n" for row in zip(*cells))


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
    """Snapshots (one CSV each: x, then the state's fields) plus
    diagnostics.csv for a finished run."""
    os.makedirs(out_dir, exist_ok=True)
    for i, state in enumerate(trajectory.snapshots):
        names = _field_names(type(state))
        write_csv(os.path.join(out_dir, f"snapshot_{i:05d}.csv"),
                  ["x", *names],
                  [state.grid.x, *(getattr(state, name) for name in names)])
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
