"""Seeded workload generator for the phasekit benchmark.

Every workload is one closed-loop invocation of a ``phasekit`` subcommand on
a config file written here.  All workloads use the default Van-der-Waals law
(A=1, B=3, R=1, T*=0.2), mu = kappa = 0.1, gamma = 2 and m0 = 1.4 (rails
1/2.8 to 2.8).  The seed only perturbs initial-data values inside the ranges
below, so grid size, step count and snapshot count never depend on it.

    python3 perfbench/workloads.py --seed 7 --out DIR   # write the configs
    python3 perfbench/workloads.py --self-check         # range/seed check
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass, field

RAILS = (1.0 / 2.8, 2.8)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str             # phasekit subcommand
    grid_n: int
    steps: int               # solver steps per run (per member for a family)
    snapshots: int           # snapshots per trajectory
    trajectories: int        # trajectories written (family: members + BN)
    fixed: dict              # config section -> key -> value
    ranges: dict = field(default_factory=dict)   # [init] key -> (lo, hi)

    def draw(self, seed: int) -> dict:
        """Seeded initial-data values, rounded so the config text is short."""
        rng = random.Random(f"{self.name}:{seed}")
        return {key: round(rng.uniform(lo, hi), 6)
                for key, (lo, hi) in sorted(self.ranges.items())}

    def corners(self) -> list:
        """Every corner of the seeded range box."""
        out = [{}]
        for key, (lo, hi) in sorted(self.ranges.items()):
            out = [dict(c, **{key: v}) for c in out for v in (lo, hi)]
        return out

    def config_text(self, values: dict) -> str:
        sections = {sec: dict(keys) for sec, keys in self.fixed.items()}
        sections.setdefault("init", {}).update(values)
        lines = []
        for sec in sorted(sections):
            lines.append(f"[{sec}]")
            for key in sorted(sections[sec]):
                val = sections[sec][key]
                if isinstance(val, float):
                    val = repr(val)
                elif isinstance(val, (list, tuple)):
                    val = ", ".join(str(v) for v in val)
                lines.append(f"{key} = {val}")
            lines.append("")
        return "\n".join(lines)


_COMMON = {
    "physics": {"mu": 0.1, "kappa": 0.1, "gamma": 2.0},
    "eos": {"type": "van_der_waals", "A": 1.0, "B": 3.0, "R": 1.0,
            "T_star": 0.2},
    "bounds": {"m0": 1.4},
}


def _fixed(**sections) -> dict:
    out = {sec: dict(keys) for sec, keys in _COMMON.items()}
    for sec, keys in sections.items():
        out.setdefault(sec, {}).update(keys)
    return out


# homogenize: dt is harness.suggest_dt over densities [0.5, 2] with |u| <= 0.5
# and cfl 0.4 at N = 2048, rounded down to a whole number of steps (932)
HOMOGENIZE_STEPS = 932

# why each workload is in the benchmark: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="homogenize-2048", command="homogenize", grid_n=2048,
            steps=HOMOGENIZE_STEPS, snapshots=12, trajectories=5,
            fixed=_fixed(
                grid={"n": 2048},
                time={"dt": 0.1 / HOMOGENIZE_STEPS, "cfl": 0.4,
                      "t_end": 0.1, "snapshot_every": 93},
                init={"profile": "two_value", "delta": 0.1, "u0": 0.0},
                harness={"n_list": [4, 8, 16, 32]}),
            ranges={"v_minus": (0.78, 0.82), "v_plus": (1.58, 1.62),
                    "theta": (0.48, 0.52)}),
        Workload(
            name="nsk-16384", command="simulate-nsk", grid_n=16384,
            steps=747, snapshots=6, trajectories=1,
            fixed=_fixed(
                grid={"n": 16384},
                time={"dt": 1.34e-5, "cfl": 0.4, "t_end": 0.01,
                      "snapshot_every": 150},
                init={"profile": "two_value", "v_minus": 0.8, "v_plus": 1.6,
                      "theta": 0.5, "delta": 0.1, "n_osc": 16,
                      "u0_mode": 1}),
            ranges={"u0_amp": (0.03, 0.07)}),
        Workload(
            name="bn-512", command="simulate-bn", grid_n=512,
            steps=2858, snapshots=7, trajectories=1,
            fixed=_fixed(
                grid={"n": 512},
                time={"dt": 4.2e-4, "cfl": 0.4, "t_end": 1.2,
                      "snapshot_every": 500},
                init={"profile": "two_value", "v_minus": 0.8, "v_plus": 1.6,
                      "theta": 0.5, "delta": 0.1, "n_osc": 4,
                      "u0_mode": 1},
                bn={"from_profile": True}),
            ranges={"u0_amp": (0.005, 0.015)}),
    )
}


def write_config(name: str, seed: int, path: str) -> dict:
    """Write the config of workload `name` for `seed`; return the values."""
    workload = WORKLOADS[name]
    values = workload.draw(seed)
    with open(path, "w") as f:
        f.write(workload.config_text(values))
    return values


def self_check(seeds) -> bool:
    """Run each workload at the corners of its seeded ranges and on `seeds`
    and confirm: every run exits 0 and passes the benchmark's output checks
    (guard rails read back from disk, mass drift, convergence); homogenize
    members stay off the CFL limit (the harness exits 2 otherwise); step
    and snapshot counts are identical across seeds; and the runner sets
    PHASEKIT_THREADS=1."""
    import run  # the benchmark runner, next to this file

    ok = run.CHILD_ENV.get("PHASEKIT_THREADS") == "1"
    print(f"runner sets PHASEKIT_THREADS=1: {ok}")
    for name, workload in WORKLOADS.items():
        cases = ([("corner", c) for c in workload.corners()]
                 + [(f"seed {s}", workload.draw(s)) for s in seeds])
        shapes = set()
        for label, values in cases:
            res = run.run_once(workload, values, "run")
            problems = res["problems"]
            shapes.add(res["shape"])
            ok = ok and not problems
            print(f"{name} {label} {values}: "
                  f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)}"
                  f" rho in [{res['rho_min']:.4f}, {res['rho_max']:.4f}]"
                  f" shape {res['shape']}", flush=True)
        same = len(shapes) == 1
        ok = ok and same
        print(f"{name}: step/snapshot counts identical across cases: {same}")
    print("self-check", "passed" if ok else "FAILED")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the three config files")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    if args.self_check:
        return 0 if self_check(args.seeds) else 1
    if args.out is None:
        parser.error("--out is required unless --self-check is given")
    os.makedirs(args.out, exist_ok=True)
    for name in WORKLOADS:
        values = write_config(name, args.seed,
                              os.path.join(args.out, f"{name}.cfg"))
        print(f"{name}: {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
