"""The phasekit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's config is generated from
the seed (perfbench/workloads.py).  Each invocation is one closed-loop
``phasekit.cli.main`` call in a fresh Python process with
``PHASEKIT_THREADS=1`` (the family runs in-process; the BLAS pool keeps its
default size).  Invocations repeat for about S seconds, at least three
untraced ones, or with ``--trace 1`` at least one untraced and one traced.

Every invocation's output tree is checked from disk (exit code, mass drift,
guard rails, step and snapshot counts, the convergence report, the BN
closure) and hashed; a failed check or a digest that differs from another
run of the same code and seed counts as a failed operation.

The last stdout line is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  The line before it records the
environment, the digest and the sample counts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
CHILD_ENV = {"PHASEKIT_THREADS": "1"}
MASS_DRIFT_TOL = 1e-12
CLOSURE_DRIFT_TOL = 1e-10
SETUP_PROBES = 2          # set-up-only processes before the timed loop
MIN_RUNS = 3              # untraced invocations per untraced run
STOP_BY_S = 150.0         # start no invocation expected to end after this
RUN_LIMIT_S = 170.0       # a run ends by then even if an invocation hangs

HOM, NSK, BN = "homogenize-2048", "nsk-16384", "bn-512"
ALL = {HOM, NSK, BN}
# traced name -> workloads that reach it; every other workload must not
REACHES = {
    "torus.solve_cyclic_tridiagonal": ALL, "torus.derivative": ALL,
    "torus.helmholtz_solve": ALL, "torus.mean": ALL,
    "torus.sobolev_norm": ALL, "torus.l2_norm": ALL, "torus.max_norm": ALL,
    "eos.artificial_pressure": ALL, "eos.d_artificial_pressure": ALL,
    "eos.potential": ALL, "eos.require_admissible": ALL,
    "nsk.nsk_run": {HOM, NSK}, "nsk.nsk_step": {HOM, NSK},
    "nsk.continuity_update": ALL, "nsk.momentum_update": ALL,
    "nsk.sound_speed_max": ALL,
    "bn.bn_run": {HOM, BN}, "bn.bn_step": {HOM, BN},
    "bn.cubic_interp_periodic": {HOM, BN}, "bn.trace_feet": {HOM, BN},
    "bn.mixture_fields": {HOM, BN},
    "diagnostics.compute_record": ALL, "diagnostics.energy": ALL,
    "diagnostics.bd_entropy": ALL,
    "measures.distance": {HOM}, "measures.pair": {HOM},
    "measures.wasserstein_avg": {HOM}, "measures.empirical_from_state": {HOM},
    "measures.two_dirac_from_bn": {HOM},
    "harness.run_family": {HOM}, "harness.limit_initial_data": {HOM, BN},
    "io.write_trajectory": ALL, "io.write_measure_summary": {HOM},
    "io.write_distances": {HOM}, "io.write_convergence": {HOM},
    "io.write_meta": ALL, "config.load_config": ALL,
    "numpy.fft.rfft": ALL, "numpy.fft.irfft": ALL, "numpy.roll": ALL,
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    paths = [os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ------------------------------------------------------------ output checks

def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def tree_digest(out_dir):
    """(sha256 over relative paths and contents, total bytes, file list)."""
    files = []
    for dirpath, _, names in os.walk(out_dir):
        for name in names:
            full = os.path.join(dirpath, name)
            files.append(os.path.relpath(full, out_dir))
    files.sort()
    digest = hashlib.sha256()
    total = 0
    for rel in files:
        with open(os.path.join(out_dir, rel), "rb") as f:
            blob = f.read()
        total += len(blob)
        digest.update(rel.encode() + b"\0")
        digest.update(hashlib.sha256(blob).digest())
    return digest.hexdigest(), total, files


def check_outputs(workload, out_dir, exit_code):
    """Problems found in one invocation's output tree, plus what was read."""
    problems = []
    seen = {"rho_min": float("inf"), "rho_max": float("-inf"), "shape": None,
            "snapshots": 0, "digest": None, "output_bytes": 0}
    if not os.path.isdir(out_dir):
        return [f"exit code {exit_code}, no output"], seen
    digest, total, files = tree_digest(out_dir)
    seen.update(digest=digest, output_bytes=total)
    if exit_code != 0:
        return [f"exit code {exit_code}"], seen
    diag = sorted(f for f in files if os.path.basename(f) == "diagnostics.csv")
    if len(diag) != workload.trajectories:
        problems.append(f"{len(diag)} diagnostics.csv files, expected "
                        f"{workload.trajectories}")
    shape = []
    lo, hi = workloads.RAILS
    for rel in diag:
        header, rows = _read_csv(os.path.join(out_dir, rel))
        col = {name: i for i, name in enumerate(header)}
        mass = [float(r[col["mass"]]) for r in rows]
        drift = max(abs(m - mass[0]) for m in mass)
        if drift > MASS_DRIFT_TOL:
            problems.append(f"{rel}: mass drift {drift:.3e}")
        rmin = min(float(r[col["rho_min"]]) for r in rows)
        rmax = max(float(r[col["rho_max"]]) for r in rows)
        seen["rho_min"] = min(seen["rho_min"], rmin)
        seen["rho_max"] = max(seen["rho_max"], rmax)
        if rmin < lo or rmax > hi:
            problems.append(f"{rel}: density [{rmin}, {rmax}] left the rails")
        run_dir = os.path.dirname(rel)
        n_snap = sum(1 for f in files if os.path.dirname(f) == run_dir
                     and os.path.basename(f).startswith("snapshot_"))
        if len(rows) != workload.steps + 1 or n_snap != workload.snapshots:
            problems.append(f"{rel}: {len(rows) - 1} steps and {n_snap} "
                            f"snapshots, expected {workload.steps} and "
                            f"{workload.snapshots}")
        shape.append((run_dir, len(rows), n_snap))
    seen["shape"] = tuple(shape)
    seen["snapshots"] = sum(s[2] for s in shape)

    with open(os.path.join(out_dir, "meta.json")) as f:
        meta = json.load(f)
    if workload.command == "homogenize":
        if not (meta["monotone_dist"] and meta["monotone_uerr"]):
            problems.append("family not monotone: "
                            f"dist {meta['monotone_dist']}, "
                            f"u {meta['monotone_uerr']}")
        if not meta["sup_dist"][-1] < meta["sup_dist"][0]:
            problems.append(f"sup distance n=32 {meta['sup_dist'][-1]} not "
                            f"below n=4 {meta['sup_dist'][0]}")
    elif workload.command == "simulate-bn":
        closure = meta["monitor"]["closure_drift"]
        if closure > CLOSURE_DRIFT_TOL:
            problems.append(f"closure drift {closure:.3e}")
    return problems, seen


def check_trace(workload_name, trace):
    """Wrapper assertions: each traced name fires exactly on the workloads
    that reach it."""
    problems = []
    for name, reached in REACHES.items():
        calls = (trace["counts"].get(name) if name in trace["counts"]
                 else trace["spans"].get(name, {}).get("calls", 0))
        if (calls > 0) != (workload_name in reached):
            problems.append(f"wrapper {name}: {calls} calls on "
                            f"{workload_name}")
    return problems


# --------------------------------------------------------------- invocation

def run_once(workload, values, mode, timeout=RUN_LIMIT_S):
    """One fresh-process invocation in `mode` (setup, run or trace); the
    result dict holds the child's measurements and the check outcome."""
    os.makedirs(WORK_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w") as f:
            f.write(workload.config_text(values))
        out_dir = os.path.join(tmp, "out")
        result_path = os.path.join(tmp, "result.json")
        failure = {"shape": None, "rho_min": float("nan"),
                   "rho_max": float("nan")}
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, mode, workload.command, config,
                 out_dir, result_path],
                cwd=tmp, env=child_env(), stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:  # the child is killed and reaped
            return dict(failure, problems=[f"{mode} timed out"])
        if proc.returncode != 0 or not os.path.exists(result_path):
            tail = proc.stderr.strip().splitlines()[-3:]
            return dict(failure, problems=[f"child exited {proc.returncode}: "
                                           + " | ".join(tail)])
        with open(result_path) as f:
            res = json.load(f)
        res["problems"] = []
        if mode != "setup":
            problems, seen = check_outputs(workload, out_dir, res["exit_code"])
            res.update(seen)
            res["problems"] = problems
            if mode == "trace":
                res["problems"] += check_trace(workload.name, res["trace"])
        return res
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def code_hash():
    """sha256 of the checkout's phasekit sources."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "phasekit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return digest.hexdigest()


def digest_history_check(workload, seed, digest):
    """Compare with the digest an earlier run of the same code and seed left
    in the checkout; record it if there is none.  Returns a problem or None."""
    path = os.path.join(WORK_DIR, "digests.json")
    history = {}
    if os.path.exists(path):
        with open(path) as f:
            history = json.load(f)
    key = f"{workload}|{seed}|{code_hash()}"
    earlier = history.setdefault(key, digest)
    if earlier != digest:
        return f"output digest {digest} differs from an earlier run's {earlier}"
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(history, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return None


# ------------------------------------------------------------------ metrics

def _span(trace, name, field):
    return trace["spans"].get(name, {}).get(field, 0)


def _percentiles(samples):
    """(p50 ms, tail ms, tail percentile): the tail is the highest of
    p90/p99/p99.9 with at least ten samples beyond it."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)

    def at(q):
        return 1e3 * ordered[min(n - 1, int(q / 100.0 * n))]

    tail_q = 50.0
    for q in (90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10.0:
            tail_q = q
    return at(50.0), at(tail_q), tail_q


def layer_metrics(workload, res, untraced_run_s):
    tr = res["trace"]
    n = workload.grid_n
    steps = max(1, _span(tr, "nsk.nsk_step", "calls")
                + _span(tr, "bn.bn_step", "calls"))
    run_s = res["run_s"]
    m = {}
    for name in ("torus.solve_cyclic_tridiagonal", "torus.derivative",
                 "torus.helmholtz_solve", "eos.artificial_pressure",
                 "eos.d_artificial_pressure", "eos.potential",
                 "measures.distance", "measures.pair",
                 "measures.wasserstein_avg", "io.write_trajectory"):
        m[f"{name}.calls"] = _span(tr, name, "calls")
        m[f"{name}.self_s"] = _span(tr, name, "self_s")
    calls = m["torus.solve_cyclic_tridiagonal.calls"]
    m["torus.solve_cyclic_tridiagonal.ns_per_node"] = (
        1e9 * m["torus.solve_cyclic_tridiagonal.self_s"] / (calls * n)
        if calls else 0.0)
    m["torus.norms.self_s"] = sum(
        _span(tr, f"torus.{f}", "self_s")
        for f in ("sobolev_norm", "l2_norm", "max_norm", "mean"))
    counts = tr["counts"]
    m["torus.fft_calls_per_step"] = (
        (counts["numpy.fft.rfft"] + counts["numpy.fft.irfft"]) / steps)
    m["torus.roll_calls_per_step"] = counts["numpy.roll"] / steps

    for solver, step in (("nsk", "nsk.nsk_step"), ("bn", "bn.bn_step")):
        p50, tail, tail_q = _percentiles(tr["spans"].get(step, {})
                                         .get("samples", []))
        m[f"{step}.calls"] = _span(tr, step, "calls")
        m[f"{step}.self_s"] = _span(tr, step, "self_s")
        m[f"{step}.p50_ms"] = p50
        m[f"{step}.tail_ms"] = tail
        m[f"{step}.tail_pct"] = tail_q
        total = _span(tr, step, "total_s")
        m[f"{solver}.node_steps_per_s"] = (
            m[f"{step}.calls"] * n / total if total else 0.0)
    for name in ("nsk.continuity_update", "nsk.momentum_update",
                 "bn.cubic_interp_periodic", "bn.trace_feet",
                 "bn.mixture_fields", "harness.run_family",
                 "io.write_measure_summary", "config.load_config"):
        m[f"{name}.self_s"] = _span(tr, name, "self_s")

    rec = "diagnostics.compute_record"
    m[f"{rec}.calls"] = _span(tr, rec, "calls")
    m[f"{rec}.self_s"] = _span(tr, rec, "self_s")
    m[f"{rec}.total_s"] = _span(tr, rec, "total_s")
    m[f"{rec}.share"] = m[f"{rec}.total_s"] / run_s
    m["diagnostics.records_per_step"] = m[f"{rec}.calls"] / steps

    built = (_span(tr, "measures.empirical_from_state", "calls")
             + _span(tr, "measures.two_dirac_from_bn", "calls"))
    m["measures.constructions_per_snapshot"] = (
        built / res["snapshots"] if res["snapshots"] else 0.0)
    m["harness.reference_s"] = tr["by_parent"].get(
        "harness.run_family>bn.bn_run", 0.0)
    m["harness.members_s"] = tr["by_parent"].get(
        "harness.run_family>nsk.nsk_run", 0.0)

    io_spans = [k for k in tr["spans"] if k.startswith("io.")]
    m["io.write_other.self_s"] = sum(
        _span(tr, k, "self_s") for k in io_spans
        if k not in ("io.write_trajectory", "io.write_measure_summary"))
    io_total = sum(_span(tr, k, "total_s") for k in io_spans)
    m["io.mb_per_s"] = res["output_bytes"] / 1e6 / io_total if io_total else 0.0
    m["cli.import_s"] = res["import_s"]
    m["trace.coverage"] = sum(s["self_s"] for s in tr["spans"].values()) / run_s
    m["trace.overhead_s"] = run_s - untraced_run_s
    return m


def environment(seed, child_env_record):
    env = dict(child_env_record)
    env.update(nproc=os.cpu_count(), seed=seed)
    child = child_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PHASEKIT_THREADS"):
        env[var] = child.get(var, "unset")
    return env


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "phasekit", "cli.py")):
        print(f"no phasekit sources under {ROOT}/src: run from the root of "
              "a phasekit checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    values = workload.draw(args.seed)
    start = time.perf_counter()

    setups, runs, traces, problems = [], [], [], []
    attempted = failed = 0
    for _ in range(SETUP_PROBES):
        res = run_once(workload, values, "setup")
        attempted += 1
        if res["problems"]:
            failed += 1
            problems += res["problems"]
        if "setup_s" in res:
            setups.append((res["setup_s"], res["setup_bursts"]))

    deadline = time.perf_counter() + args.seconds
    durations, digests = [], []
    while True:
        mode = "trace" if args.trace and len(traces) < len(runs) else "run"
        t0 = time.perf_counter()
        res = run_once(workload, values, mode,
                       timeout=start + RUN_LIMIT_S - time.perf_counter())
        durations.append(time.perf_counter() - t0)
        attempted += 1
        if res.get("digest"):
            digests.append(res["digest"])
            if res["digest"] != digests[0]:
                res["problems"].append("output digest differs from the "
                                       "first invocation's")
        if res["problems"]:
            failed += 1
            problems += res["problems"]
        # an invocation that failed a check still measured its time
        if "run_s" in res and mode == "trace":
            traces.append(res)
        elif "run_s" in res:
            runs.append(res)
            setups.append((res["setup_s"], res["setup_bursts"]))
        # a failure ends the minimum sample count: the run is already lost
        enough = failed or (len(runs) >= 1 and len(traces) >= 1 if args.trace
                            else len(runs) >= MIN_RUNS)
        expected_end = time.perf_counter() + statistics.median(durations)
        if expected_end > start + STOP_BY_S or (enough
                                                and expected_end > deadline):
            break

    if digests:
        problem = digest_history_check(workload.name, args.seed, digests[0])
        if problem:
            problems.append(problem)
            failed += 1
    if not runs or (args.trace and not traces) or not setups:
        for p in problems[:10]:
            print(p, file=sys.stderr)
        print("no successful invocation to measure", file=sys.stderr)
        return 1

    run_s = statistics.median(r["run_s"] for r in runs)
    info = {
        "workload": workload.name, "seed": args.seed, "values": values,
        "trace": args.trace, "env": environment(args.seed, runs[0]["env"]),
        "digest": digests[0] if digests else None,
        "output_bytes": runs[0]["output_bytes"],
        "samples": {"run_s": len(runs), "setup_s": len(setups),
                    "traced": len(traces)},
        "run_s_all": [r["run_s"] for r in runs],
        "cpu_s_all": [r["cpu_s"] for r in runs],
        "setup_s_all": [s for s, _ in setups],
        "bursts_ms_mean": [1e3 * statistics.mean(r["bursts"]) for r in runs],
        "problems": problems,
    }
    if args.trace:
        per_run = [layer_metrics(workload, t, run_s) for t in traces]
        metrics = {k: statistics.median(m[k] for m in per_run)
                   for k in per_run[0]}
    else:
        metrics = {
            "run_s": statistics.median(
                at_reference_speed(r["run_s"], r["bursts"], inside=True)
                for r in runs),
            "cpu_s": statistics.median(
                at_reference_speed(r["cpu_s"], r["bursts"], inside=True)
                for r in runs),
            "setup_s": statistics.median(
                at_reference_speed(s, cal) for s, cal in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "output_bytes": statistics.median(r["output_bytes"] for r in runs),
            "pass_ratio": (attempted - failed) / attempted,
        }
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def at_reference_speed(seconds, bursts, inside=False):
    """`seconds` scaled to the machine speed at which a reference burst
    takes calibrate.REFERENCE_BURST_S, from the bursts timed in the same
    process.  With `inside`, the bursts ran inside the interval (all but
    the last) and their own time is taken out first."""
    if inside:
        seconds -= sum(bursts[:-1])
    return seconds * calibrate.REFERENCE_BURST_S / statistics.mean(bursts)


def declared_units(kind):
    """Metric name -> unit for one metric kind of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


if __name__ == "__main__":
    sys.exit(main())
