"""Write a change's benchmark file, BENCH_<pr>.json.

    python3 tools/bench_pr.py --out BENCH_<pr>.json [--seconds 40]

Run from the root of a checkout.  For every workload of BENCHMARK.json it
runs ``perfbench/run.py`` untraced, unchanged, three times at seed 101
(workloads interleaved, so host drift spreads over all of them) and once at
seed 201, each run for ``--seconds``.  Then it runs the tier-1 tests once.

The file holds, per workload, the median and quartiles over the seed-101
runs of every end-to-end metric, the output digest at each seed and the
attempted and failed invocation counts; the line count of each
``src/phasekit`` module and their total; and the tier-1 wall time and test
counts.  The exit status is 1 when a benchmark run failed an operation or
a tier-1 test failed; the file is written either way.  A run that measured
nothing (perfbench/run.py exits non-zero) stops the script.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (101, 201)   # the timed seed first
REPEATS = 3          # seed-101 runs per workload


def bench_run(workload: str, seed: int, seconds: float) -> dict:
    """The info and result lines of one untraced perfbench/run.py run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench/run.py failed on {workload} seed "
                           f"{seed} (exit {proc.returncode})")
    info, result = (json.loads(line)
                    for line in proc.stdout.strip().splitlines()[-2:])
    return {**info["info"], **result}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def workload_summary(runs: list, seed_201: dict) -> dict:
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise RuntimeError(f"seed-101 runs disagree on the digest: {digests}")
    metrics = runs[0]["metrics"]
    return {
        "end_to_end": {
            name: {**quartiles([r["metrics"][name]["value"] for r in runs]),
                   "unit": metrics[name]["unit"]}
            for name in metrics},
        "runs": len(runs),
        "digests": {str(SEEDS[0]): digests.pop(),
                    str(SEEDS[1]): seed_201["digest"]},
        "attempted": sum(r["attempted"] for r in runs + [seed_201]),
        "failed": sum(r["failed"] for r in runs + [seed_201]),
    }


def src_lines() -> dict:
    """Lines per src/phasekit module, as wc -l counts them, and the total."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "phasekit", "*.py"))):
        with open(path, "rb") as f:
            counts[os.path.basename(path)] = f.read().count(b"\n")
    return {**counts, "total": sum(counts.values())}


def tier1() -> dict:
    """Wall time and outcome counts of one tier-1 run (ROADMAP.md)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines() or [""]
    counts = {outcome.rstrip("s"): int(k) for k, outcome in
              re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|"
                         r"xpassed)", lines[-1])}
    # the short summary's FAILED and ERROR lines, one per failing test
    failures = [line.split(" - ")[0] for line in lines
                if line.startswith(("FAILED ", "ERROR "))]
    return {"wall_s": round(wall_s, 2), "tests": sum(counts.values()),
            **counts, "failures": failures, "exit_code": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the file to write")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="--seconds of each perfbench/run.py run")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]

    runs = {name: [] for name in names}
    for _ in range(REPEATS):
        for name in names:
            runs[name].append(bench_run(name, SEEDS[0], args.seconds))
    workloads = {name: workload_summary(runs[name],
                                        bench_run(name, SEEDS[1], args.seconds))
                 for name in names}
    report = {
        "command": ["tools/bench_pr.py", "--seconds", str(args.seconds)],
        "env": runs[names[0]][0]["env"],
        "workloads": workloads,
        "src_lines": src_lines(),
        "tier1": tier1(),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    failed = sum(w["failed"] for w in workloads.values())
    if failed or report["tier1"]["exit_code"] != 0:
        print(f"{failed} failed benchmark operations, tier-1 exit code "
              f"{report['tier1']['exit_code']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
