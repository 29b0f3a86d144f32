"""Strict key-value run configuration.

The file format is INI-shaped: ``[section]`` headers, ``key = value`` lines
and ``#`` comments.  Unknown sections or keys are errors with the offending
line number, as are malformed values and a key set twice (also under a
repeated header), so a typo can never silently fall back to a default or
override an earlier line.
"""

from __future__ import annotations

import numpy as np

from .bn import BNState
from .eos import make_eos
from .errors import ConfigError
from .harness import FamilyConfig, check_n_list, limit_initial_data
from .nsk import (FluidState, PhysicalParams, SolverConfig, check_profile,
                  make_oscillating_initial)
from .torus import PeriodicGrid


def _parse_float(raw):
    value = float(raw)
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_bool(raw):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw):   # an empty entry is refused by int("")
    return [int(part) for part in raw.split(",")] if raw.strip() else []


# section -> key -> (parser, default)
SCHEMA = {
    "physics": {
        "mu": (_parse_float, 0.1),
        "kappa": (_parse_float, 0.1),
        "gamma": (_parse_float, 2.0),
    },
    "eos": {
        "type": (str, "van_der_waals"),
        "A": (_parse_float, 1.0),
        "B": (_parse_float, 3.0),
        "R": (_parse_float, 1.0),
        "T_star": (_parse_float, 0.2),
        "a": (_parse_float, 1.0),
        "beta": (_parse_float, 2.0),
    },
    "grid": {
        "n": (int, 256),
    },
    "time": {
        "dt": (_parse_float, 1e-4),
        "cfl": (_parse_float, 0.4),
        "t_end": (_parse_float, 0.1),
        "snapshot_every": (int, 50),
    },
    "bounds": {
        "m0": (_parse_float, 1.4),
    },
    "init": {
        "profile": (str, "two_value"),
        "rho0": (_parse_float, 1.2),
        "v_minus": (_parse_float, 0.8),
        "v_plus": (_parse_float, 1.6),
        "theta": (_parse_float, 0.5),
        "delta": (_parse_float, 0.1),
        "n_osc": (int, 4),
        "u0": (_parse_float, 0.0),
        "u0_mode": (int, 0),
        "u0_amp": (_parse_float, 0.0),
    },
    "bn": {
        "from_profile": (_parse_bool, True),
        "alpha_p": (_parse_float, 0.5),
        "rho_p": (_parse_float, 1.6),
        "rho_m": (_parse_float, 0.8),
    },
    "harness": {
        "n_list": (_parse_int_list, [2, 4]),
        "upwind": (_parse_float, 0.5),
    },
    "output": {
        "directory": (str, "out"),
    },
}


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, path)


def parse_config(text: str, path: str = "<string>") -> dict:
    """A plain dict: section -> key -> value, every SCHEMA key present."""
    config = {sec: {k: (list(d) if isinstance(d, list) else d)
                    for k, (_, d) in keys.items()}
              for sec, keys in SCHEMA.items()}
    section = None
    set_on = {}   # (section, key) -> the line that set it
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got "
                              f"{raw_line.strip()!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key [{section}].{key}")
        first = set_on.setdefault((section, key), lineno)
        if first != lineno:
            raise ConfigError(f"{path}:{lineno}: [{section}].{key} is set "
                              f"twice, on lines {first} and {lineno}")
        parser, _ = SCHEMA[section][key]
        try:
            config[section][key] = parser(raw_value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for [{section}].{key}: {exc}"
            ) from exc
    _validate(config, path)
    return config


def _validate(config: dict, path: str):
    """Reject a bad file at load, each rule through its owner: the grid,
    the physical parameters (law included) and the solver settings are
    built, and nsk.check_profile and harness.check_n_list are called.
    Stated here: the profile name and the output directory, which no
    object owns, and a typed [bn].alpha_p in [0, 1] (BNState.make allows
    computed fractions a 1e-12 slack).  FamilyConfig's 64 nodes per
    oscillation are checked when homogenize builds it."""
    for sections, build in (("[grid]", build_grid),
                            ("[eos]/[physics]", build_params),
                            ("[time]/[bounds]/[harness]", build_solver)):
        try:
            build(config)
        except ValueError as exc:
            raise ConfigError(f"{path}: {sections}: {exc}") from exc

    def err(msg):
        raise ConfigError(f"{path}: {msg}")

    def owned(section, check, *args):
        try:
            check(*args)
        except ValueError as exc:
            err(f"[{section}].{exc}")

    init = config["init"]
    if init["profile"] not in ("two_value", "constant"):
        err(f"[init].profile must be two_value or constant, got "
            f"{init['profile']!r}")
    owned("init", check_profile, init["theta"], init["delta"], init["n_osc"])
    bn = config["bn"]
    if not 0.0 <= bn["alpha_p"] <= 1.0:
        err(f"[bn].alpha_p must lie in [0, 1], got {bn['alpha_p']}")
    owned("harness", check_n_list, config["harness"]["n_list"])
    if not config["output"]["directory"]:
        err("[output].directory must not be empty")


# ------------------------------------------------------------------ builders

def build_params(config: dict) -> PhysicalParams:
    phys = config["physics"]
    eos = make_eos(dict(config["eos"], gamma=phys["gamma"]))
    return PhysicalParams(mu=phys["mu"], kappa=phys["kappa"], eos=eos)


def guard_rails(config: dict) -> tuple:
    m0 = config["bounds"]["m0"]
    if m0 <= 0.0:
        raise ValueError(f"m0 must be positive, got {m0}")
    return (1.0 / (2.0 * m0), 2.0 * m0)


def build_solver(config: dict) -> SolverConfig:
    t = config["time"]
    return SolverConfig(dt=t["dt"], t_end=t["t_end"], cfl=t["cfl"],
                        bounds=guard_rails(config),
                        snapshot_every=t["snapshot_every"],
                        upwind=config["harness"]["upwind"])


def build_grid(config: dict) -> PeriodicGrid:
    return PeriodicGrid(config["grid"]["n"])


def u0_field(config: dict, grid: PeriodicGrid) -> np.ndarray:
    init = config["init"]
    return init["u0"] + init["u0_amp"] * np.sin(
        2 * np.pi * init["u0_mode"] * grid.x)


def rho0_field(config: dict, grid: PeriodicGrid) -> np.ndarray:
    init = config["init"]
    if init["profile"] == "constant":
        return np.full(grid.n, init["rho0"])
    return make_oscillating_initial(grid, init["v_minus"], init["v_plus"],
                                    init["theta"], init["n_osc"],
                                    init["delta"])


def build_nsk_initial(config: dict, params: PhysicalParams) -> FluidState:
    grid = build_grid(config)
    return FluidState.make(grid, rho0_field(config, grid),
                           u0_field(config, grid), params)


def build_bn_initial(config: dict, params: PhysicalParams) -> BNState:
    grid = build_grid(config)
    bn = config["bn"]
    init = config["init"]
    if bn["from_profile"]:
        if init["profile"] == "constant":
            alpha_p, rho_p, rho_m = 1.0, init["rho0"], init["rho0"]
        else:
            alpha_p, _, rho_p, rho_m = limit_initial_data(
                init["v_minus"], init["v_plus"], init["theta"], init["delta"],
                grid)
    else:
        alpha_p, rho_p, rho_m = bn["alpha_p"], bn["rho_p"], bn["rho_m"]
    return BNState.make(grid, alpha_p, rho_p, rho_m, u0_field(config, grid),
                        params)


def build_family(config: dict) -> FamilyConfig:
    """The homogenize family: members compressed from the [init] two-value
    profile, the two-phase reference from its limit data."""
    init = config["init"]
    if init["profile"] != "two_value":
        raise ConfigError(f"homogenize needs [init].profile = two_value, got "
                          f"{init['profile']!r}")
    if not config["bn"]["from_profile"]:
        raise ConfigError("homogenize derives the two-phase reference from "
                          "[init]; [bn].from_profile = false is not supported")
    har = config["harness"]
    return FamilyConfig(
        n_list=tuple(har["n_list"]), v_minus=init["v_minus"],
        v_plus=init["v_plus"], theta=init["theta"], delta=init["delta"],
        u0=u0_field(config, build_grid(config)), params=build_params(config),
        solver=build_solver(config), grid_n=config["grid"]["n"])
