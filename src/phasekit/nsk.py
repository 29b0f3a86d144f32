"""Time integration of the non-local compressible flow system.

Unknowns on the periodic grid: density rho, velocity u and the order
parameter c, where c is slaved to rho through the screened Poisson solve
-kappa c'' + gamma (c - rho) = 0 and is re-solved after every density
update.

Scheme: conservative central fluxes with a small velocity-proportional
diffusive flux on the density (odd-even guard), explicit pressure and
coupling forces, Crank-Nicolson viscosity solved as a cyclic tridiagonal
system.  Mass is conserved to round-off by construction; the momentum
fluxes telescope, so the only momentum drift comes from the coupling force
and vanishes at second order in h.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, torus
from .eos import EquationOfState, require_admissible
from .errors import BoundsError
from .torus import PeriodicGrid


@dataclass
class PhysicalParams:
    mu: float
    kappa: float
    gamma: float
    eos: EquationOfState

    def __post_init__(self):
        for name in ("mu", "kappa", "gamma"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(self.eos.gamma - self.gamma) > 1e-12 * max(1.0, self.gamma):
            raise ValueError(
                f"eos.gamma = {self.eos.gamma} disagrees with params.gamma = "
                f"{self.gamma}; the coupling coefficient has a single value")


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    cfl: float = 0.9
    bounds: tuple = (1e-3, 1e3)
    snapshot_every: int = 1
    upwind: float = 0.5
    force_form: str = "artificial"  # or "original": P and gamma rho (c - rho)_x
    helmholtz_backend: str = "fourier"

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        lo, hi = self.bounds
        if not 0.0 < lo < hi:
            raise ValueError(f"bounds must satisfy 0 < lower < upper, got {self.bounds}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.force_form not in ("artificial", "original"):
            raise ValueError(f"unknown force_form {self.force_form!r}")


@dataclass
class FluidState:
    grid: PeriodicGrid
    t: float
    rho: np.ndarray
    u: np.ndarray
    c: np.ndarray

    @classmethod
    def make(cls, grid: PeriodicGrid, rho, u, params: PhysicalParams,
             t: float = 0.0, helmholtz_backend: str = "fourier") -> "FluidState":
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(u))):
            raise BoundsError("non-finite initial data")
        if np.any(rho <= 0.0):
            raise BoundsError("initial density must be strictly positive")
        c = torus.helmholtz_solve(grid, rho, params.kappa, params.gamma,
                                  helmholtz_backend)
        return cls(grid, t, rho, u, c)

    @property
    def mixture_density(self) -> np.ndarray:
        return self.rho

    def mixture_pressure(self, eos: EquationOfState) -> np.ndarray:
        return eos.artificial_pressure(self.rho)

    def helmholtz_residual(self, params: PhysicalParams) -> float:
        res = (-params.kappa * torus.derivative(self.grid, self.c, 2, "spectral")
               + params.gamma * self.c - params.gamma * self.rho)
        return torus.max_norm(res)


@dataclass
class Trajectory:
    snapshots: list
    records: list
    params: PhysicalParams
    config: SolverConfig
    n_steps: int = 0
    dxc_sup: float = 0.0
    cfl_limited: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def snapshot_times(self):
        return np.array([s.t for s in self.snapshots])

    def sigma_series(self, backend: str = "spectral"):
        return [diagnostics.effective_viscous_flux(s, self.params, backend)
                for s in self.snapshots]

    def u_series(self):
        return [s.u for s in self.snapshots]


def smoothstep(s: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp on [0, 1], symmetric about s = 1/2."""
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def make_oscillating_initial(grid: PeriodicGrid, v_minus: float, v_plus: float,
                             theta: float, n_osc: int, delta: float,
                             bounds: tuple | None = None) -> np.ndarray:
    """n-fold compressed two-value density profile rho0(n x).

    The base (n = 1) profile takes the value v_minus on a fraction theta of
    the torus and v_plus on the rest, with the two jumps replaced by smooth
    ramps of width delta (in the base coordinate, so the compressed field
    has physical transition width delta / n).  The ramps are symmetric, so
    the profile mean is exactly theta v_minus + (1 - theta) v_plus.
    """
    if n_osc < 1 or int(n_osc) != n_osc:
        raise ValueError(f"oscillation count must be a positive integer, got {n_osc}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if delta <= 0.0 or delta > min(theta, 1.0 - theta):
        raise ValueError(
            f"ramp width {delta} must be positive and not overlap the plateaus "
            f"(<= {min(theta, 1.0 - theta)})")
    if delta * grid.n < 4.0 * n_osc:
        raise ValueError(
            f"unresolved transitions: compressed ramp width {delta / n_osc:.3e} "
            f"is below 4 h = {4.0 * grid.h:.3e}")
    if bounds is not None:
        lo, hi = bounds
        if not (lo <= min(v_minus, v_plus) and max(v_minus, v_plus) <= hi):
            raise ValueError(
                f"profile values ({v_minus}, {v_plus}) outside guard rails {bounds}")
    y = (n_osc * grid.x) % 1.0
    # smoothed indicator of the arc (0, theta): periodized difference of
    # ramps; the jump at 0 contributes through both the j=0 and j=1 images
    chi = (smoothstep(y / delta + 0.5)
           - smoothstep((y - theta) / delta + 0.5)
           + smoothstep((y - 1.0) / delta + 0.5))
    return v_plus + (v_minus - v_plus) * chi


def sound_speed_max(rho: np.ndarray, u: np.ndarray, eos: EquationOfState) -> float:
    return float(np.max(np.abs(u) + np.sqrt(np.maximum(
        eos.d_artificial_pressure(rho), 0.0))))


def _check_rails(rho: np.ndarray, bounds: tuple, t: float):
    if not np.all(np.isfinite(rho)):
        raise BoundsError(f"non-finite density at t = {t:.6g}")
    lo, hi = bounds
    rmin, rmax = float(np.min(rho)), float(np.max(rho))
    if rmin < lo or rmax > hi:
        raise BoundsError(
            f"density guard rail violated at t = {t:.6g}: "
            f"range [{rmin:.6g}, {rmax:.6g}] outside [{lo}, {hi}]")


def continuity_update(grid: PeriodicGrid, rho: np.ndarray, u: np.ndarray,
                      dt: float, upwind: float) -> np.ndarray:
    """One conservative step of rho_t + (rho u)_x = 0 with central flux and
    an upwind-style diffusive flux of coefficient upwind * h * |u|."""
    m = rho * u
    flux = 0.5 * (m + np.roll(m, -1))
    if upwind > 0.0:
        nu = upwind * 0.5 * (np.abs(u) + np.abs(np.roll(u, -1)))
        flux = flux - nu * (np.roll(rho, -1) - rho)
    return rho - (dt / grid.h) * (flux - np.roll(flux, 1))


def momentum_update(grid: PeriodicGrid, rho_new: np.ndarray, rho: np.ndarray,
                    u: np.ndarray, c: np.ndarray, params: PhysicalParams,
                    dt: float, force_form: str, p_flux: np.ndarray | None = None,
                    ) -> np.ndarray:
    """Conservative momentum step: explicit convection and pressure flux,
    explicit coupling force, Crank-Nicolson viscosity.  Returns u at the
    new time level.  p_flux overrides the nodal pressure entering the flux
    (the two-phase solver passes its mixture pressure here)."""
    h = grid.h
    m = rho * u
    if p_flux is None:
        if force_form == "artificial":
            p_flux = params.eos.artificial_pressure(rho)
        else:
            p_flux = params.eos.pressure(rho)
    g = m * u + p_flux
    g_half = 0.5 * (g + np.roll(g, -1))
    if force_form == "artificial":
        force = params.gamma * rho * torus.derivative(grid, c, 1, "central")
    else:
        force = params.gamma * rho * torus.derivative(grid, c - rho, 1, "central")
    m_star = m - (dt / h) * (g_half - np.roll(g_half, 1)) + dt * force

    a = 0.5 * params.mu * dt / h ** 2
    rhs = m_star + a * (np.roll(u, -1) - 2.0 * u + np.roll(u, 1))
    lower = np.full(grid.n, -a)
    upper = np.full(grid.n, -a)
    diag = rho_new + 2.0 * a
    return torus.solve_cyclic_tridiagonal(lower, diag, upper, rhs)


def _step_length(state, fields, params: PhysicalParams, config: SolverConfig,
                 remaining: float = np.inf) -> tuple:
    """min(config.dt, remaining, cfl h / max(|u| + c_s) over the density
    fields), and whether the CFL bound lies below config.dt."""
    smax = max(sound_speed_max(rho, state.u, params.eos) for rho in fields)
    cfl_dt = config.cfl * state.grid.h / smax if smax > 0.0 else np.inf
    return min(config.dt, remaining, cfl_dt), cfl_dt < config.dt


def nsk_step(state: FluidState, params: PhysicalParams, config: SolverConfig,
             dt: float | None = None) -> FluidState:
    """Advance one step of length dt, by default the CFL-limited
    min(config.dt, cfl h / max(|u| + c_s))."""
    grid = state.grid
    if dt is None:
        dt, _ = _step_length(state, (state.rho,), params, config)
    rho_new = continuity_update(grid, state.rho, state.u, dt, config.upwind)
    _check_rails(rho_new, config.bounds, state.t + dt)
    u_new = momentum_update(grid, rho_new, state.rho, state.u, state.c,
                            params, dt, config.force_form)
    if not np.all(np.isfinite(u_new)):
        raise BoundsError(f"non-finite velocity at t = {state.t + dt:.6g}")
    c_new = torus.helmholtz_solve(grid, rho_new, params.kappa, params.gamma,
                                  config.helmholtz_backend)
    return FluidState(grid, state.t + dt, rho_new, u_new, c_new)


def _integrate(initial, params: PhysicalParams, config: SolverConfig,
               keep_records: bool, step, rails) -> Trajectory:
    """The run loop of nsk_run and bn_run: step(state, params, config, dt=dt)
    advances one step, rails(state) gives the railed density fields."""
    require_admissible(params.eos, 0.0, config.bounds[1])
    for rho in rails(initial):
        _check_rails(rho, config.bounds, initial.t)
    state, traj = initial, Trajectory([initial], [], params, config)
    t_final = initial.t + config.t_end
    t_stop = t_final - 1e-12 * config.t_end
    while True:
        if keep_records:
            traj.records.append(diagnostics.compute_record(state, params))
        traj.dxc_sup = max(traj.dxc_sup, torus.max_norm(
            torus.derivative(state.grid, state.c, 1, "spectral")))
        if state.t >= t_stop:
            return traj
        dt, limited = _step_length(state, rails(state), params, config,
                                   t_final - state.t)
        traj.cfl_limited = traj.cfl_limited or limited
        state = step(state, params, config, dt=dt)
        traj.n_steps += 1
        if traj.n_steps % config.snapshot_every == 0 or state.t >= t_stop:
            traj.snapshots.append(state)


def nsk_run(initial: FluidState, params: PhysicalParams, config: SolverConfig,
            keep_records: bool = True) -> Trajectory:
    """Integrate from initial.t to t_final = initial.t + config.t_end.

    The run loop, shared with bn_run: the law must be admissible on [0,
    upper rail] and the railed densities (rho; rho_p and rho_m for BN) start
    inside the rails.  Each step has length min(config.dt, t_final - t,
    cfl h / max(|u| + c_s)), the wave speed taken over the railed densities,
    until t >= t_final - 1e-12 t_end.  keep_records records every state.
    Snapshots: the initial state, every snapshot_every-th step and the final
    state, the only one within the end tolerance.  cfl_limited: the CFL
    bound fell below config.dt on some step; dxc_sup: sup |c_x| over all
    states, with or without records.
    """
    return _integrate(initial, params, config, keep_records, nsk_step,
                      lambda s: (s.rho,))
