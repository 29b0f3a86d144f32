"""One-velocity two-phase relaxation system on the periodic grid.

Unknowns: volume fractions alpha_p, alpha_m with alpha_p + alpha_m = 1,
phase densities rho_p, rho_m, the common velocity u and the order
parameter c solved from the mixture density.  The pressure-relaxation
sources push the artificial phase pressures toward each other at rate 1/mu.

The fractions are advected semi-Lagrangianly and their sources integrated
in exponential ratio form, which keeps the closure exact to round-off; the
phase densities ride the conservative continuity kernel of the
single-phase solver (through the mixture and difference fields) plus the
closed-form pointwise relaxation flow, and the mixture momentum update is
shared with that solver verbatim, so a pure alpha_p = 1 run reproduces it
bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import torus
from .errors import BoundsError, FixedPointError
# sound_speed_max is bound here for perfbench/tracing.py, which requires it
from .nsk import (PhysicalParams, SolverConfig, Trajectory, continuity_update,
                  momentum_update, sound_speed_max, _check_rails, _integrate,
                  _step_length)
from .torus import PeriodicGrid


@dataclass
class BNState:
    grid: PeriodicGrid
    t: float
    alpha_p: np.ndarray
    alpha_m: np.ndarray
    rho_p: np.ndarray
    rho_m: np.ndarray
    u: np.ndarray
    c: np.ndarray

    @classmethod
    def make(cls, grid: PeriodicGrid, alpha_p, rho_p, rho_m, u,
             params: PhysicalParams, t: float = 0.0,
             helmholtz_backend: str = "fourier") -> "BNState":
        alpha_p, rho_p, rho_m, u = (
            np.broadcast_to(np.asarray(f, dtype=float), (grid.n,)).copy()
            for f in (alpha_p, rho_p, rho_m, u))
        if np.any(alpha_p < -1e-12) or np.any(alpha_p > 1.0 + 1e-12):
            raise BoundsError("volume fraction outside [0, 1]")
        alpha_p = np.clip(alpha_p, 0.0, 1.0)
        if np.any(rho_p <= 0.0) or np.any(rho_m <= 0.0):
            raise BoundsError("phase densities must be strictly positive")
        state = cls(grid, t, alpha_p, 1.0 - alpha_p, rho_p, rho_m, u, None)
        state.c = torus.helmholtz_solve(grid, state.mixture_density, params.kappa,
                                        params.gamma, helmholtz_backend)
        return state

    def closure_drift(self) -> float:
        return float(np.max(np.abs(self.alpha_p + self.alpha_m - 1.0)))

    @property
    def mixture_density(self) -> np.ndarray:
        return self.alpha_p * self.rho_p + self.alpha_m * self.rho_m

    def mixture_pressure(self, eos) -> np.ndarray:
        """The alpha-weighted artificial mixture pressure."""
        return (self.alpha_p * eos.artificial_pressure(self.rho_p)
                + self.alpha_m * eos.artificial_pressure(self.rho_m))


def mixture_fields(state: BNState, eos) -> tuple:
    """Mixture density and the alpha-weighted artificial mixture pressure."""
    return state.mixture_density, state.mixture_pressure(eos)


def relaxation_rhs(state: BNState, params: PhysicalParams) -> tuple:
    """Pointwise relaxation sources for (alpha_p, alpha_m, rho_p, rho_m).

    Written in the pressure-difference form; with the closure substituted
    this is the same as (alpha/mu)(P_art(rho) - p_bar) per phase.
    """
    dp = (params.eos.artificial_pressure(state.rho_p)
          - params.eos.artificial_pressure(state.rho_m))
    s_ap = state.alpha_p * state.alpha_m * dp / params.mu
    s_rp = -state.rho_p * state.alpha_m * dp / params.mu
    s_rm = state.rho_m * state.alpha_p * dp / params.mu
    return s_ap, -s_ap, s_rp, s_rm


def cubic_interp_periodic(f: np.ndarray, pos: np.ndarray, h: float) -> np.ndarray:
    """4-point Lagrange interpolation of nodal values at arbitrary periodic
    positions (in x units)."""
    n = f.size
    g = (pos % 1.0) / h
    j = np.floor(g).astype(int)
    s = g - j
    w_m1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w_0 = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
    w_p1 = -(s + 1.0) * s * (s - 2.0) / 2.0
    w_p2 = (s + 1.0) * s * (s - 1.0) / 6.0
    return (w_m1 * f[(j - 1) % n] + w_0 * f[j % n]
            + w_p1 * f[(j + 1) % n] + w_p2 * f[(j + 2) % n])


def trace_feet(grid: PeriodicGrid, u_start: np.ndarray, u_mid: np.ndarray,
               dt: float) -> np.ndarray:
    """Departure points of the characteristics dX/ds = u through each node,
    one RK2 (midpoint) step backwards."""
    x_half = grid.x - 0.5 * dt * u_start
    return (grid.x - dt * cubic_interp_periodic(u_mid, x_half, grid.h)) % 1.0


def transport_with_source(grid: PeriodicGrid, a0: np.ndarray,
                          u_series: np.ndarray, f_series: np.ndarray,
                          times: np.ndarray, conservative: bool = False
                          ) -> np.ndarray:
    """Semi-Lagrangian solve of a_t + u a_x = a f (or of the conservative
    form a_t + (a u)_x = a f when conservative=True, which subtracts u_x
    inside the exponent).

    u_series and f_series hold one field per entry of times; the return
    value has the same layout with a0 in row 0.
    """
    u_series = np.asarray(u_series, dtype=float)
    f_series = np.asarray(f_series, dtype=float)
    times = np.asarray(times, dtype=float)
    if u_series.shape != (times.size, grid.n) or f_series.shape != u_series.shape:
        raise ValueError("time series shapes do not match the time grid")
    if not np.all(np.isfinite(u_series)):
        raise FloatingPointError("non-finite velocity series")

    if conservative:
        f_eff = f_series - np.stack(
            [torus.derivative(grid, u_series[k], 1, "central")
             for k in range(times.size)])
    else:
        f_eff = f_series

    out = np.empty_like(f_series)
    out[0] = np.asarray(a0, dtype=float)
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        u_mid = 0.5 * (u_series[k] + u_series[k + 1])
        feet = trace_feet(grid, u_series[k], u_mid, dt)
        f_avg = 0.5 * (cubic_interp_periodic(f_eff[k], feet, grid.h)
                       + f_eff[k + 1])
        out[k + 1] = cubic_interp_periodic(out[k], feet, grid.h) * np.exp(dt * f_avg)
    return out


def _relaxation_flow(alpha_p, alpha_m, rho_p, rho_m, lam_int):
    """Exact solution of the pointwise relaxation pair for a frozen
    integrated pressure gap lam_int = int (P_art(rho_p) - P_art(rho_m))/mu.

    The logit of alpha_p moves by lam_int and alpha_p rho_p, alpha_m rho_m
    are invariants of the flow, so the update below keeps the closure and
    the pointwise mixture mass exact to round-off; no division by alpha."""
    g = np.exp(0.5 * lam_int)
    denom = alpha_p * g + alpha_m / g
    alpha_p_new = alpha_p * g / denom
    alpha_m_new = (alpha_m / g) / denom
    rho_p_new = rho_p * (alpha_p + alpha_m / g ** 2)
    rho_m_new = rho_m * (alpha_m + alpha_p * g ** 2)
    return alpha_p_new, alpha_m_new, rho_p_new, rho_m_new


def _relaxation_substep(alpha_p, alpha_m, rho_p, rho_m, params, dt):
    """Pointwise relaxation over dt: the exact frozen-gap flow driven by a
    midpoint evaluation of the pressure gap (second order in dt)."""
    eos, mu = params.eos, params.mu

    def gap(rp, rm):
        return (eos.artificial_pressure(rp) - eos.artificial_pressure(rm)) / mu

    _, _, rp_half, rm_half = _relaxation_flow(
        alpha_p, alpha_m, rho_p, rho_m, 0.5 * dt * gap(rho_p, rho_m))
    return _relaxation_flow(alpha_p, alpha_m, rho_p, rho_m,
                            dt * gap(rp_half, rm_half))


def bn_step(state: BNState, params: PhysicalParams, config: SolverConfig,
            monitor: dict | None = None, dt: float | None = None) -> BNState:
    """One step: semi-Lagrangian advection of the fractions, conservative
    transport of the phase densities, pointwise relaxation, shared mixture
    momentum update, Helmholtz re-solve, closure renormalization.

    The phase densities are transported through the mixture density and the
    phase difference (both with the conservative continuity kernel) and
    reconstructed as rho_p = mix + alpha_m diff, rho_m = mix - alpha_p diff:
    the alpha-weighted cross terms cancel pointwise, so the discrete mixture
    mass is conserved to round-off, equal phase densities stay equal
    exactly, and an alpha_p = 1 run reduces to the single-phase update.
    dt defaults to the CFL-limited length over both phase densities."""
    grid = state.grid
    if dt is None:
        dt, _ = _step_length(state, (state.rho_p, state.rho_m), params, config)
    rho_mix_old, p_bar_old = mixture_fields(state, params.eos)

    feet = trace_feet(grid, state.u, state.u, dt)
    ap_t = cubic_interp_periodic(state.alpha_p, feet, grid.h)
    am_t = cubic_interp_periodic(state.alpha_m, feet, grid.h)

    drift = float(np.max(np.abs(ap_t + am_t - 1.0)))
    clip = float(-min(np.min(ap_t), np.min(am_t), 0.0))
    if monitor is not None:
        monitor["closure_drift"] = max(monitor.get("closure_drift", 0.0), drift)
        monitor["alpha_clip"] = max(monitor.get("alpha_clip", 0.0), clip)
    if drift > 1e-10:
        raise BoundsError(
            f"volume-fraction closure drift {drift:.3e} exceeds 1e-10 "
            f"at t = {state.t + dt:.6g}")
    if clip > 1e-12:
        raise BoundsError(
            f"volume fraction below -1e-12 (clip {clip:.3e}) at t = "
            f"{state.t + dt:.6g}")
    ap_t = np.clip(ap_t, 0.0, 1.0)
    am_t = 1.0 - ap_t

    mix_t = continuity_update(grid, rho_mix_old, state.u, dt, config.upwind)
    diff_t = continuity_update(grid, state.rho_p - state.rho_m, state.u, dt,
                               config.upwind)
    rp_t = mix_t + am_t * diff_t
    rm_t = mix_t - ap_t * diff_t

    ap, am, rp, rm = _relaxation_substep(ap_t, am_t, rp_t, rm_t, params, dt)

    _check_rails(rp, config.bounds, state.t + dt)
    _check_rails(rm, config.bounds, state.t + dt)

    rho_mix_new = ap * rp + am * rm
    u_new = momentum_update(grid, rho_mix_new, rho_mix_old, state.u, state.c,
                            params, dt, config.force_form, p_flux=p_bar_old)
    if not np.all(np.isfinite(u_new)):
        raise BoundsError(f"non-finite velocity at t = {state.t + dt:.6g}")
    c_new = torus.helmholtz_solve(grid, rho_mix_new, params.kappa, params.gamma,
                                  config.helmholtz_backend)
    return BNState(grid, state.t + dt, ap, am, rp, rm, u_new, c_new)


def bn_run(initial: BNState, params: PhysicalParams, config: SolverConfig,
           keep_records: bool = True) -> Trajectory:
    """Integrate to t_end with the run loop documented in nsk_run;
    extras["monitor"] holds the largest closure drift and alpha clip."""
    monitor = {}
    traj = _integrate(initial, params, config, keep_records,
                      partial(bn_step, monitor=monitor),
                      lambda s: (s.rho_p, s.rho_m))
    traj.extras["monitor"] = monitor
    return traj


def picard_bn(grid: PeriodicGrid, alpha0: np.ndarray, rho0: np.ndarray,
              u_series: np.ndarray, pi_series: np.ndarray, times: np.ndarray,
              eos, mu: float = 1.0, tol: float = 1e-10, max_iter: int = 60,
              bounds: tuple | None = None, _info: dict | None = None) -> tuple:
    """Fixed-point construction of the single-phase relaxation subsystem

        alpha_t + u alpha_x = alpha (P_art(rho) - pi) / mu
        rho_t + (rho u)_x   = rho (pi - P_art(rho)) / mu

    against an external pressure field pi.  Iterates the linear transport
    solve against the frozen sources until the sup-in-time L1 difference of
    successive iterates drops below tol; a slab that refuses to contract is
    halved and solved recursively.  Returns (alpha_traj, rho_traj, info);
    info records the measured contraction ratios per accepted slab.
    """
    times = np.asarray(times, dtype=float)
    u_series = np.asarray(u_series, dtype=float)
    pi_series = np.asarray(pi_series, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two time levels")
    info = {"slabs": []} if _info is None else _info

    alpha_traj = np.tile(np.asarray(alpha0, dtype=float), (times.size, 1))
    rho_traj = np.tile(np.asarray(rho0, dtype=float), (times.size, 1))
    prev_diff = None
    ratios = []
    converged = False
    for _ in range(max_iter):
        f = (eos.artificial_pressure(rho_traj) - pi_series) / mu
        with np.errstate(over="ignore", invalid="ignore"):
            alpha_new = transport_with_source(grid, alpha_traj[0], u_series, f,
                                              times, conservative=False)
            rho_new = transport_with_source(grid, rho_traj[0], u_series, -f,
                                            times, conservative=True)
            diff = float(np.max(grid.h * np.sum(
                np.abs(alpha_new - alpha_traj) + np.abs(rho_new - rho_traj),
                axis=1)))
        if not np.isfinite(diff):
            break  # diverged iterate: fall through to the slab split
        alpha_traj, rho_traj = alpha_new, rho_new
        if prev_diff is not None and prev_diff > 0.0:
            ratios.append(diff / prev_diff)
        prev_diff = diff
        if diff < tol:
            converged = True
            break
    if converged:
        info["slabs"].append({"t0": float(times[0]), "t1": float(times[-1]),
                              "ratios": ratios})
    else:
        if times.size <= 2:
            raise FixedPointError(
                f"no contraction on a single-step slab [{times[0]:.6g}, "
                f"{times[-1]:.6g}]")
        mid = times.size // 2
        left_a, left_r, _ = picard_bn(grid, alpha0, rho0,
                                      u_series[:mid + 1], pi_series[:mid + 1],
                                      times[:mid + 1], eos, mu, tol, max_iter,
                                      bounds, info)
        right_a, right_r, _ = picard_bn(grid, left_a[-1], left_r[-1],
                                        u_series[mid:], pi_series[mid:],
                                        times[mid:], eos, mu, tol, max_iter,
                                        bounds, info)
        alpha_traj = np.vstack([left_a, right_a[1:]])
        rho_traj = np.vstack([left_r, right_r[1:]])

    if np.min(alpha_traj) < -1e-12:
        raise BoundsError(f"picard output alpha went negative: "
                          f"{np.min(alpha_traj):.3e}")
    if bounds is not None:
        lo, hi = bounds
        if np.min(rho_traj) < lo or np.max(rho_traj) > hi:
            raise BoundsError(
                f"picard output density outside rails [{lo}, {hi}]: range "
                f"[{np.min(rho_traj):.6g}, {np.max(rho_traj):.6g}]")
    return alpha_traj, rho_traj, info
