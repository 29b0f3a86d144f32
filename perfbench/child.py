"""One benchmark invocation, run in a fresh Python process by run.py.

    python3 perfbench/child.py MODE COMMAND CONFIG OUT RESULT

MODE is ``setup`` (time the set-up only), ``run`` (set-up, then one
``phasekit.cli.main`` call) or ``trace`` (as ``run``, with every phasekit
layer wrapped in spans).  The measurements go to the JSON file RESULT.
Outside the traced mode the reference bursts of calibrate.py are timed
right after the set-up and throughout the solver call.

Set-up is what a caller pays before the solver starts: importing
``phasekit.cli`` and then ``load_config`` plus the public ``config.build_*``
functions for the subcommand.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup(command: str, config_path: str) -> dict:
    t0 = time.perf_counter()
    import phasekit.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    from phasekit import config as cfg
    run_config = cfg.load_config(config_path)
    params = cfg.build_params(run_config)
    if command == "simulate-nsk":
        cfg.build_nsk_initial(run_config, params)
        cfg.build_solver(run_config)
    elif command == "simulate-bn":
        cfg.build_bn_initial(run_config, params)
        cfg.build_solver(run_config)
    else:
        cfg.build_family(run_config)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "setup_s": t2 - t0}


def _environment() -> dict:
    import numpy
    import scipy
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv) -> int:
    mode, command, config_path, out_dir, result_path = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = _setup(command, config_path)
    import calibrate
    # the traced run takes no speed samples: its numpy counters would see
    # the bursts' calls
    sampled = mode != "trace"
    if sampled:
        result["setup_bursts"] = [calibrate.burst_seconds()
                                  for _ in range(calibrate.SETUP_BURSTS)]

    import phasekit
    src = os.path.join(root, "src", "phasekit")
    if os.path.dirname(os.path.abspath(phasekit.__file__)) != src:
        raise SystemExit(f"phasekit imported from {phasekit.__file__}, "
                         f"expected the checkout's {src}")
    result["env"] = _environment()

    if mode != "setup":
        from phasekit import cli
        tracer = None
        if mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        argv_cli = [command, "--config", config_path, "--out", out_dir]
        sampler = calibrate.SpeedSampler() if sampled else None
        if sampler:
            sampler.start()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        rc = cli.main(argv_cli)
        run_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        if sampler:
            result["bursts"] = sampler.stop()
        result.update(exit_code=rc, run_s=run_s, cpu_s=cpu_s)
        if tracer is not None:
            result["trace"] = tracer.report()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = rss_kb / 1024.0
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
