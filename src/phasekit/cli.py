"""Command-line entry points.

Subcommands: simulate-nsk, simulate-bn, homogenize, check-eos, diagnose.
Each command writes its run's files through io; the library writes none.
Exit codes: 0 success, 2 config error, 3 admissibility failure, 4 failed
run (a guard rail, a non-finite field or a step the law refuses, as the
run loop decides).  No subcommand returns 5, the fixed-point failure of the
library's picard_bn.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__, io
from .bn import bn_run
from .config import (build_bn_initial, build_family, build_nsk_initial,
                     build_params, build_solver, guard_rails, load_config)
from .diagnostics import balance_check
from .eos import AdmissibilityError, check_admissibility
from .errors import BoundsError, ConfigError
from .harness import MONOTONE_SLACK, run_family
from .nsk import nsk_run


def provenance() -> str:
    return f"phasekit {__version__}, numpy {np.__version__}"


def _meta_payload(config, extra):
    return {"config": config, "provenance": provenance(), **extra}


def cmd_check_eos(args) -> int:
    config = load_config(args.config)
    eos = build_params(config).eos
    _, hi = guard_rails(config)
    try:
        report = check_admissibility(eos, 0.0, hi)
    except AdmissibilityError:
        print(f"requested interval [0.0, {hi}]", file=sys.stderr)
        raise
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    return 0 if report.admissible else 3


def _simulate(args, kind, build_initial, run) -> int:
    config = load_config(args.config)
    params = build_params(config)
    traj = run(build_initial(config, params), params, build_solver(config))
    out = args.out or config["output"]["directory"]
    io.write_trajectory(out, traj)
    io.write_meta(os.path.join(out, "meta.json"), _meta_payload(config, {
        "kind": kind, "n_steps": traj.n_steps,
        "snapshots": len(traj.snapshots), **traj.extras}))
    print(f"wrote {len(traj.snapshots)} snapshots and diagnostics to {out}")
    return 0


def cmd_simulate_nsk(args) -> int:
    return _simulate(args, "nsk", build_nsk_initial, nsk_run)


def cmd_simulate_bn(args) -> int:
    return _simulate(args, "bn", build_bn_initial, bn_run)


def cmd_homogenize(args) -> int:
    config = load_config(args.config)
    out = args.out or config["output"]["directory"]
    try:
        report = run_family(build_family(config))
    except BoundsError as exc:
        # a member failed: the report over the others is still written
        if exc.partial_report is not None:
            io.write_family(out, exc.partial_report)
        raise
    io.write_family(out, report)
    io.write_meta(os.path.join(out, "meta.json"), _meta_payload(config, {
        "kind": "homogenize",
        "sup_dist": report.sup_dist, "sup_uerr": report.sup_uerr,
        "monotone_dist": report.monotone_dist,
        "monotone_uerr": report.monotone_uerr,
        "slack": MONOTONE_SLACK}))
    print(f"wrote convergence.csv for n in {list(report.n_list)} to {out}")
    if not (report.monotone_dist and report.monotone_uerr):
        print("warning: family not monotone within slack "
              f"(dist: {report.monotone_dist}, u: {report.monotone_uerr})",
              file=sys.stderr)
    return 0


def cmd_diagnose(args) -> int:
    records = io.read_diagnostics(os.path.join(args.run, "diagnostics.csv"))
    report = balance_check(records)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="periodic liquid-vapor flow simulations and "
                    "homogenization diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_out=False):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run config file")
        if needs_out:
            p.add_argument("--out", default=None,
                           help="output directory (overrides [output])")
        p.set_defaults(fn=fn)
        return p

    add("check-eos", cmd_check_eos)
    add("simulate-nsk", cmd_simulate_nsk, needs_out=True)
    add("simulate-bn", cmd_simulate_bn, needs_out=True)
    add("homogenize", cmd_homogenize, needs_out=True)
    p = sub.add_parser("diagnose")
    p.add_argument("--run", required=True, help="directory with diagnostics.csv")
    p.set_defaults(fn=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except AdmissibilityError as exc:
        print(f"admissibility failure: {exc}", file=sys.stderr)
        return AdmissibilityError.exit_code
    except BoundsError as exc:
        print(f"bounds failure: {exc}", file=sys.stderr)
        return BoundsError.exit_code
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
