"""Deterministic CSV/JSON persistence.

All floats are written with Python's shortest round-trip repr and all rows
in fixed orders, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .diagnostics import RECORD_COLUMNS

NSK_SNAPSHOT_COLUMNS = ("x", "rho", "u", "c")
BN_SNAPSHOT_COLUMNS = ("x", "alpha_p", "alpha_m", "rho_p", "rho_m", "u", "c")


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


# rows converted to Python floats at a time: bounds the writer's memory
_ROWS_PER_BLOCK = 1024


def write_float_csv(path, header, columns):
    """write_csv for float-only rows: the columns (1D, or 2D for several)
    side by side, each value as fmt writes a float."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _ROWS_PER_BLOCK):
            block = np.column_stack(
                [c[start:start + _ROWS_PER_BLOCK] for c in columns])
            f.writelines(",".join(map(repr, row)) + "\n"
                         for row in block.tolist())


def write_diagnostics(path, records):
    write_csv(path, RECORD_COLUMNS, (r.as_row() for r in records))


def read_diagnostics(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    if tuple(data.dtype.names) != RECORD_COLUMNS:
        raise ValueError(f"unexpected diagnostics columns in {path}: "
                         f"{data.dtype.names}")
    from .diagnostics import DiagnosticsRecord
    data = np.atleast_1d(data)
    return [DiagnosticsRecord(*(float(row[name]) for name in RECORD_COLUMNS))
            for row in data]


def write_nsk_snapshot(path, state):
    write_float_csv(path, NSK_SNAPSHOT_COLUMNS,
                    (state.grid.x, state.rho, state.u, state.c))


def write_bn_snapshot(path, state):
    write_float_csv(path, BN_SNAPSHOT_COLUMNS,
                    (state.grid.x, state.alpha_p, state.alpha_m, state.rho_p,
                     state.rho_m, state.u, state.c))


def write_trajectory(out_dir, trajectory, kind):
    """Snapshots (one CSV each) plus diagnostics.csv for a finished run."""
    os.makedirs(out_dir, exist_ok=True)
    writer = write_nsk_snapshot if kind == "nsk" else write_bn_snapshot
    for i, state in enumerate(trajectory.snapshots):
        writer(os.path.join(out_dir, f"snapshot_{i:05d}.csv"), state)
    if trajectory.records:
        write_diagnostics(os.path.join(out_dir, "diagnostics.csv"),
                          trajectory.records)


def write_measure_summary(path, times, names, pairings):
    """One row per time: t, then that snapshot's pairings, one value per
    name (a measure's pair(dictionary) with names = dictionary.names())."""
    write_float_csv(path, ["t"] + list(names), (times, np.asarray(pairings)))


def write_distances(path, times, dict_distances, wasserstein):
    write_float_csv(path, ("t", "dict_distance", "wasserstein_avg"),
                    (times, dict_distances, wasserstein))


def write_convergence(path, report):
    header = (["n", "sup_t_measure_dist", "sup_t_u_err"]
              + [f"dist_t{i:04d}" for i in range(len(report.times))]
              + [f"uerr_t{i:04d}" for i in range(len(report.times))])
    rows = []
    for i, n in enumerate(report.n_list):
        rows.append([n, report.sup_dist[i], report.sup_uerr[i]]
                    + list(report.dist_series[i]) + list(report.uerr_series[i]))
    write_csv(path, header, rows)


def _jsonify(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def write_meta(path, payload: dict):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_jsonify)
        f.write("\n")
