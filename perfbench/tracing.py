"""Span tracing of phasekit from outside the package.

``install`` replaces the public functions of each phasekit module with
timing wrappers.  A function imported by name into another module
(``from .nsk import continuity_update``) is a separate binding that the
importing module resolves at call time, so every binding that holds the
original function object is replaced, in every loaded phasekit module.  EOS
methods are patched on the law class that defines them, ``ParamMeasure.pair``
on its class, and ``numpy.fft.rfft``/``irfft`` and ``numpy.roll`` get
call counters (no span, so their time stays in the calling span's self time).

A span's self time is its duration minus the durations of the spans it
called directly.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions wrapped as spans; span names are "layer.function"
SPANS = {
    "torus": ["derivative", "mean", "primitive", "helmholtz_solve",
              "solve_cyclic_tridiagonal", "sobolev_norm", "l2_norm",
              "max_norm", "dealias"],
    "nsk": ["nsk_run", "nsk_step", "continuity_update", "momentum_update",
            "sound_speed_max", "make_oscillating_initial", "smoothstep"],
    "bn": ["bn_run", "bn_step", "mixture_fields", "relaxation_rhs",
           "cubic_interp_periodic", "trace_feet", "transport_with_source",
           "picard_bn"],
    "diagnostics": ["compute_record", "energy", "dissipation", "bd_entropy",
                    "effective_viscous_flux", "balance_check"],
    "measures": ["distance", "wasserstein_avg", "empirical_from_field",
                 "empirical_from_state", "two_dirac_from_bn",
                 "kinetic_residual", "smoke_test_set"],
    "harness": ["run_family", "limit_initial_data", "suggest_dt",
                "kinetic_consistency"],
    # top-level writers only: the per-row helpers (fmt, write_csv) run
    # millions of times and stay inside these spans' self time
    "io": ["write_trajectory", "write_measure_summary", "write_distances",
           "write_convergence", "write_meta"],
    "config": ["load_config", "build_params", "build_solver",
               "build_nsk_initial", "build_bn_initial", "build_family"],
    "eos": ["check_admissibility", "require_admissible", "make_eos"],
}
EOS_METHODS = ["artificial_pressure", "d_artificial_pressure", "potential"]
# spans whose every duration is kept, for per-step percentiles
SAMPLED = {"nsk.nsk_step", "bn.bn_step"}
COUNTED = {"numpy.fft.rfft": ("numpy.fft", "rfft"),
           "numpy.fft.irfft": ("numpy.fft", "irfft"),
           "numpy.roll": ("numpy", "roll")}

# bindings that must resolve to a wrapper once installed
REQUIRED_BINDINGS = [
    ("phasekit.bn", "continuity_update"), ("phasekit.bn", "momentum_update"),
    ("phasekit.bn", "sound_speed_max"), ("phasekit.harness", "nsk_run"),
    ("phasekit.harness", "bn_run"), ("phasekit.harness", "distance"),
    ("phasekit.harness", "wasserstein_avg"),
    ("phasekit.harness", "empirical_from_state"),
    ("phasekit.harness", "two_dirac_from_bn"), ("phasekit.harness", "mean"),
    ("phasekit.cli", "run_family"), ("phasekit.cli", "nsk_run"),
    ("phasekit.cli", "bn_run"), ("phasekit.cli", "load_config"),
    ("phasekit.config", "limit_initial_data"),
    ("phasekit.config", "make_oscillating_initial"),
]


class Tracer:
    """In-memory span statistics: per span name the call count, total and
    self time (and every duration, for SAMPLED spans); per parent>child
    pair the total time."""

    def __init__(self):
        self.spans = {}
        self.by_parent = {}
        self.counts = {name: 0 for name in COUNTED}
        self.bindings = {}
        self._stack = []   # [name, child_time] per open span

    def span(self, name, fn):
        stat = self.spans.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "samples": []})
        samples = stat["samples"] if name in SAMPLED else None
        stack = self._stack
        by_parent = self.by_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - frame[1]
                if samples is not None:
                    samples.append(dt)
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = f"{parent[0]}>{name}"
                    by_parent[key] = by_parent.get(key, 0.0) + dt

        wrapper.__wrapped_span__ = name
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def report(self) -> dict:
        return {"spans": self.spans, "by_parent": self.by_parent,
                "counts": self.counts}


def _phasekit_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "phasekit" or name.startswith("phasekit."))
            and mod is not None]


def install(tracer: Tracer) -> None:
    """Wrap every binding of the traced functions; raise if a required
    binding was missed."""
    import importlib

    import numpy

    from phasekit import eos as eos_mod
    from phasekit import measures as measures_mod

    modules = _phasekit_modules()
    for layer, names in SPANS.items():
        home = importlib.import_module(f"phasekit.{layer}")
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.span(f"{layer}.{fname}", original)
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bound += 1
            tracer.bindings[f"{layer}.{fname}"] = bound

    law_classes = [eos_mod.EquationOfState]
    law_classes += law_classes[0].__subclasses__()
    for mname in EOS_METHODS:
        bound = 0
        for cls in law_classes:
            if mname in vars(cls):
                setattr(cls, mname,
                        tracer.span(f"eos.{mname}", vars(cls)[mname]))
                bound += 1
        tracer.bindings[f"eos.{mname}"] = bound

    pm = measures_mod.ParamMeasure
    pm.pair = tracer.span("measures.pair", pm.pair)
    tracer.bindings["measures.pair"] = 1

    for name, (modname, attr) in COUNTED.items():
        mod = numpy if modname == "numpy" else numpy.fft
        setattr(mod, attr, tracer.counter(name, getattr(mod, attr)))
        tracer.bindings[name] = 1

    missing = [f"{m}.{a}" for m, a in REQUIRED_BINDINGS
               if not hasattr(getattr(sys.modules[m], a), "__wrapped_span__")]
    unbound = [name for name, n in tracer.bindings.items() if n == 0]
    if missing or unbound:
        raise RuntimeError(f"tracing incomplete: unwrapped bindings "
                           f"{missing}, wrappers never installed {unbound}")
