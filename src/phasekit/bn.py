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
shared with that solver verbatim, so a run with alpha_p = 1 and rho_p =
rho_m reproduces it bitwise (with rho_p != rho_m the interpolated alpha_p
= 1 is not exactly 1, and the phase reconstruction moves the last bits).

The two phases share the grid and the velocity, so a state holds them as
(2, n) phase stacks, alpha = (alpha_p, alpha_m) and rho = (rho_p, rho_m),
and each elementwise kernel of a step runs once on a stack instead of once
per phase: the pressure law on rho, the interpolation on alpha, the
relaxation on both and the continuity kernel on (mixture, rho_p - rho_m),
whose rows the phase reconstruction turns into the new rho.  Every kernel
acts pointwise or along the last axis, so each row of a stack is bitwise
its own call; the stack only saves per-call overhead, which dominates on
small grids, and the state's stacks enter the kernels as they are.  A
stack's rows are taken by indexing (a[0], a[1]): unpacking an array
(a, b = stack, or f(*stack)) costs about three times as much.
For the same reason the interpolation weights and the relaxation flow form
each shared factor once, keeping every product's left-to-right order, the
two negative interpolation weights enter the sum as subtractions, the
periodic wrap is x - floor(x) (bitwise x % 1.0, at a quarter or less of
np.remainder's cost on small grids), and the relaxation's half step forms
only the two densities its midpoint gap reads, so every value is bitwise
what the written-out formulas give.

The kernels follow the in-place rule stated in torus: the interpolation,
the feet, the relaxation, the step's phase reconstruction and the mixture
fields write each intermediate into an array they allocated, keeping
every operation's operands and association (at most the two operands of
one sum or product swap, which is exact).  The interpolation floors its
scaled positions once, for the fraction s and the node index j, and
gathers its four nodes from offset views of the padded stack, so it forms
no index array but j.

picard_bn builds one phase's relaxation subsystem against a frozen pressure
by a fixed point, as the uniqueness argument does: each iteration carries
(alpha, rho) along one set of characteristics in one transport call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import torus
from .errors import BoundsError, FixedPointError
# sound_speed_max is bound here for perfbench/tracing.py, which requires it
from .nsk import (PhysicalParams, SolverConfig, Trajectory, central_c_x,
                  continuity_update, momentum_update, sound_speed_max,
                  _integrate)
from .torus import PeriodicGrid


@dataclass
class BNState:
    """alpha and rho are (2, n) phase stacks, row 0 the + phase: (alpha_p,
    alpha_m) and (rho_p, rho_m), whose rows the properties of those names
    read."""
    grid: PeriodicGrid
    t: float
    alpha: np.ndarray
    rho: np.ndarray
    u: np.ndarray
    c: np.ndarray

    # the snapshot CSV's columns after x
    COLUMNS = ("alpha_p", "alpha_m", "rho_p", "rho_m", "u", "c")
    alpha_p = property(lambda self: self.alpha[0])
    alpha_m = property(lambda self: self.alpha[1])
    rho_p = property(lambda self: self.rho[0])
    rho_m = property(lambda self: self.rho[1])

    @classmethod
    def make(cls, grid: PeriodicGrid, alpha_p, rho_p, rho_m, u,
             params: PhysicalParams, t: float = 0.0) -> "BNState":
        """c solved from the mixture; the run loop's check at t = 0 judges
        the densities.  No rail covers alpha_p: it must lie in [0, 1] up to
        1e-12 here, and is clipped to it."""
        alpha, rho = np.empty((2, 2, grid.n))
        alpha[0], rho[0], rho[1], u = (
            np.broadcast_to(np.asarray(f, dtype=float), (grid.n,))
            for f in (alpha_p, rho_p, rho_m, u))
        if np.any(alpha[0] < -1e-12) or np.any(alpha[0] > 1.0 + 1e-12):
            raise BoundsError("volume fraction outside [0, 1]")
        np.clip(alpha[0], 0.0, 1.0, out=alpha[0])
        np.subtract(1.0, alpha[0], out=alpha[1])
        state = cls(grid, t, alpha, rho, u.copy(), None)
        state.c = torus.helmholtz_solve(grid, state.mixture_density, params.kappa,
                                        params.gamma)
        return state

    @property
    def mixture_density(self) -> np.ndarray:
        return _mixture_density(self.alpha, self.rho)

    def mixture(self, eos) -> tuple:
        """The mixture density and pressure, from mixture_fields."""
        return mixture_fields(self, eos)

    def step_fields(self, eos) -> tuple:
        """What a step from this state and its record both read: the
        mixture pair of mixture(eos) and the central c_x.  The run loop
        forms them once per state; see nsk.nsk_run."""
        return (*self.mixture(eos), central_c_x(self.grid, self.c))


def _mixture_density(alpha, rho) -> np.ndarray:
    """alpha_p rho_p + alpha_m rho_m of the (alpha, rho) phase stacks."""
    mix = alpha * rho
    return np.add(mix[0], mix[1])


def mixture_fields(state: BNState, eos) -> tuple:
    """Mixture density and the alpha-weighted artificial mixture pressure
    alpha_p P_art(rho_p) + alpha_m P_art(rho_m), from one law call on the
    state's phase stack rho, weighted in its result and summed into a new
    array."""
    p = eos.artificial_pressure(state.rho)
    p *= state.alpha
    return state.mixture_density, np.add(p[0], p[1])


def relaxation_rhs(state: BNState, params: PhysicalParams) -> tuple:
    """Pointwise relaxation sources for (alpha_p, alpha_m, rho_p, rho_m),
    kept while perfbench/tracing.py requires it.  In the pressure-difference
    form; with the closure substituted this is the same as (alpha/mu)
    (P_art(rho) - p_bar) per phase."""
    (ap, am), (rp, rm) = state.alpha, state.rho
    dp = np.subtract(*params.eos.artificial_pressure(state.rho))
    s_ap = ap * am * dp / params.mu
    s_rp = -rp * am * dp / params.mu
    s_rm = rm * ap * dp / params.mu
    return s_ap, -s_ap, s_rp, s_rm


def cubic_interp_periodic(f: np.ndarray, pos: np.ndarray, h: float) -> np.ndarray:
    """4-point Lagrange interpolation of nodal values at arbitrary periodic
    positions (in x units).  f may be a stack of fields along its last
    axis, all interpolated at the same positions: each row is bitwise its
    own call."""
    g = np.floor(pos)
    np.subtract(pos, g, out=g)   # bitwise pos % 1.0
    g /= h
    s = np.floor(g)
    j = s.astype(int)   # in [0, n]: a tiny negative pos wraps to 1.0
    np.subtract(g, s, out=s)
    s_p1 = s + 1.0
    s_m1 = s - 1.0
    s_m2 = np.subtract(s, 2.0, out=g)
    sp = s_p1 * s
    # the weights of nodes j - 1 and j + 1 without their minus signs, which
    # the sum applies as subtractions: (-a) b = -(a b), x + (-y) = x - y
    v_m1 = s * s_m1
    v_m1 *= s_m2
    v_m1 /= 6.0
    # w_0 and w_p2 take over the arrays of s_p1 and sp, which are not read
    # again
    w_0 = s_p1
    w_0 *= s_m1
    w_0 *= s_m2
    w_0 /= 2.0
    v_p1 = sp * s_m2
    v_p1 /= 2.0
    w_p2 = sp
    w_p2 *= s_m1
    w_p2 /= 6.0
    # periodic padding: node i - 1 (mod n) sits at index i of fp, i in [0, n + 3]
    fp = np.concatenate((f[..., -1:], f, f[..., :3]), axis=-1)

    def term(k, w):   # w times the value at node j + k - 1 of each row
        value = fp[..., k:].take(j, axis=-1)
        value *= w
        return value

    out = term(1, w_0)
    out -= term(0, v_m1)
    out -= term(2, v_p1)
    out += term(3, w_p2)
    return out


def trace_feet(grid: PeriodicGrid, u_start: np.ndarray, u_mid: np.ndarray,
               dt: float) -> np.ndarray:
    """Departure points of the characteristics dX/ds = u through each node,
    one RK2 (midpoint) step backwards, wrapped into [0, 1] (a tiny negative
    foot wraps to 1.0)."""
    x_half = u_start * (0.5 * dt)
    np.subtract(grid.x, x_half, out=x_half)
    feet = cubic_interp_periodic(u_mid, x_half, grid.h)
    feet *= dt
    np.subtract(grid.x, feet, out=feet)
    feet -= np.floor(feet)   # bitwise feet % 1.0
    return feet


def transport_with_source(grid: PeriodicGrid, a0: np.ndarray,
                          u_series: np.ndarray, f_series: np.ndarray,
                          times: np.ndarray) -> np.ndarray:
    """Semi-Lagrangian solve of a_t + u a_x = a f; the conservative form
    a_t + (a u)_x = a g is the same solve with f = g - u_x.

    u_series holds one field per entry of times, shape (T, n), and f_series
    has that layout, or a stack of such series (..., T, n) for fields a0 of
    shape (..., n) carried along the same characteristics: each is bitwise
    its own call.  The return value has the layout of f_series with a0 at
    time index 0.
    """
    u_series = np.asarray(u_series, dtype=float)
    f_series = np.asarray(f_series, dtype=float)
    times = np.asarray(times, dtype=float)
    if u_series.shape != (times.size, grid.n) or f_series.shape[-2:] != u_series.shape:
        raise ValueError("time series shapes do not match the time grid")
    if not np.all(np.isfinite(u_series)):
        raise FloatingPointError("non-finite velocity series")

    out = np.empty_like(f_series)
    out[..., 0, :] = a0
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        u_mid = 0.5 * (u_series[k] + u_series[k + 1])
        feet = trace_feet(grid, u_series[k], u_mid, dt)
        f_avg = 0.5 * (cubic_interp_periodic(f_series[..., k, :], feet, grid.h)
                       + f_series[..., k + 1, :])
        out[..., k + 1, :] = (cubic_interp_periodic(out[..., k, :], feet, grid.h)
                              * np.exp(dt * f_avg))
    return out


def _relaxation_flow(alpha, rho, lam_int):
    """Exact solution of the pointwise relaxation pair for a frozen
    integrated pressure gap lam_int = int (P_art(rho_p) - P_art(rho_m))/mu,
    as new (alpha, rho) phase stacks.

    The logit of alpha_p moves by lam_int and alpha_p rho_p, alpha_m rho_m
    are invariants of the flow, so the update below keeps the closure and
    the pointwise mixture mass exact to round-off; no division by alpha."""
    g = lam_int * 0.5
    np.exp(g, out=g)
    out = np.empty_like(alpha)
    ap, am = out[0], out[1]
    np.multiply(alpha[0], g, out=ap)
    np.divide(alpha[1], g, out=am)
    denom = ap + am
    ap /= denom
    am /= denom
    return out, _relaxed_densities(alpha, rho, g)


def _relaxed_densities(alpha, rho, g):
    """The phase densities of _relaxation_flow, for g = exp(lam_int / 2),
    as a new stack: rho_p (alpha_p + alpha_m / g^2) and rho_m (alpha_m +
    alpha_p g^2)."""
    ap, am = alpha[0], alpha[1]
    out = np.empty_like(rho)
    rp, rm = out[0], out[1]
    g2 = g ** 2
    np.divide(am, g2, out=rp)
    rp += ap
    np.multiply(g2, ap, out=rm)
    rm += am
    out *= rho
    return out


def _relaxation_substep(alpha, rho, params, dt):
    """Pointwise relaxation over dt of the (alpha, rho) phase stacks: the
    exact frozen-gap flow driven by a midpoint evaluation of the pressure
    gap (second order in dt).  The half step forms only the densities that
    the midpoint gap reads."""
    eos, mu = params.eos, params.mu

    def gap(rho):
        p = eos.artificial_pressure(rho)
        d = p[0] - p[1]
        d /= mu
        return d

    g_half = gap(rho)   # exp(0.5 (0.5 dt gap))
    g_half *= 0.5 * dt
    g_half *= 0.5
    np.exp(g_half, out=g_half)
    lam_int = gap(_relaxed_densities(alpha, rho, g_half))
    lam_int *= dt
    return _relaxation_flow(alpha, rho, lam_int)


def bn_step(state: BNState, params: PhysicalParams, config: SolverConfig,
            dt: float, monitor: dict | None = None,
            fields: tuple | None = None) -> BNState:
    """One step: semi-Lagrangian advection of the fractions, conservative
    transport of the phase densities, pointwise relaxation, shared mixture
    momentum update, Helmholtz re-solve, closure renormalization.  fields
    is state.step_fields(eos), as for nsk.nsk_step.

    The phase densities are transported through the mixture density and the
    phase difference (both with the conservative continuity kernel) and
    reconstructed as rho_p = mix + alpha_m diff, rho_m = mix - alpha_p diff:
    the alpha-weighted cross terms cancel pointwise, so the discrete mixture
    mass is conserved to round-off, equal phase densities stay equal
    exactly, and an alpha_p = 1 run reduces to the single-phase update."""
    grid = state.grid
    rho_mix_old, p_bar_old, c_x = fields or state.step_fields(params.eos)

    feet = trace_feet(grid, state.u, state.u, dt)
    alpha_t = cubic_interp_periodic(state.alpha, feet, grid.h)
    ap_t, am_t = alpha_t[0], alpha_t[1]

    closure = ap_t + am_t
    closure -= 1.0
    drift = float(np.abs(closure, out=closure).max())
    clip = float(-min(alpha_t.min(), 0.0))
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
    np.clip(ap_t, 0.0, 1.0, out=ap_t)
    np.subtract(1.0, ap_t, out=am_t)

    rho_t = continuity_update(
        grid, np.array((rho_mix_old, state.rho[0] - state.rho[1])), state.u,
        dt, config.upwind)
    # rho_p = mix + alpha_m diff and rho_m = mix - alpha_p diff, formed in
    # the rows of the transported (mix, diff), which then hold (rho_p, rho_m)
    mix_t, diff_t = rho_t[0], rho_t[1]
    cross = am_t * diff_t
    diff_t *= ap_t
    np.subtract(mix_t, diff_t, out=diff_t)
    mix_t += cross

    alpha, rho = _relaxation_substep(alpha_t, rho_t, params, dt)
    rho_mix_new = _mixture_density(alpha, rho)
    u_new = momentum_update(grid, rho_mix_new, rho_mix_old, state.u, c_x,
                            params, dt, p_bar_old)
    c_new = torus.helmholtz_solve(grid, rho_mix_new, params.kappa, params.gamma)
    return BNState(grid, state.t + dt, alpha, rho, u_new, c_new)


def bn_run(initial: BNState, params: PhysicalParams,
           config: SolverConfig) -> Trajectory:
    """Integrate to t_end with the run loop documented in nsk_run, every
    state recorded; extras["monitor"] holds the largest closure drift and
    alpha clip."""
    monitor = {}
    traj = _integrate(initial, params, config,
                      partial(bn_step, monitor=monitor), lambda s: s.rho)
    traj.extras["monitor"] = monitor
    return traj


def picard_bn(grid: PeriodicGrid, alpha0: np.ndarray, rho0: np.ndarray,
              u_series: np.ndarray, pi_series: np.ndarray, times: np.ndarray,
              eos, mu: float = 1.0, tol: float = 1e-10, max_iter: int = 60
              ) -> tuple:
    """Fixed-point construction of the single-phase relaxation subsystem

        alpha_t + u alpha_x = alpha (P_art(rho) - pi) / mu
        rho_t + (rho u)_x   = rho (pi - P_art(rho)) / mu

    against an external pressure field pi.  Each iteration carries the
    (alpha, rho) stack along one set of characteristics, with the sources
    (f, -f - u_x) of f = (P_art(rho) - pi) / mu frozen at the last iterate,
    until the sup-in-time L1 difference of successive iterates drops below
    tol.  A slab whose iterates do not contract within max_iter, diverge or
    leave the law's domain is halved, and its halves are solved in time
    order.  Returns (alpha_traj, rho_traj, info); info["slabs"] records the
    measured contraction ratios per accepted slab.
    """
    times = np.asarray(times, dtype=float)
    u_series = np.asarray(u_series, dtype=float)
    pi_series = np.asarray(pi_series, dtype=float)
    if times.size < 2:
        raise ValueError("need at least two time levels")
    u_x = torus.derivative(grid, u_series, 1, "central")
    traj = np.empty((2,) + u_series.shape)   # (alpha, rho) x time x node
    traj[:, 0] = alpha0, rho0
    eos.artificial_pressure(traj[1, 0])   # raises if the law refuses rho0
    slabs = []

    def solve(lo, hi):
        """Fill time levels lo..hi of traj from level lo."""
        span = slice(lo, hi + 1)
        it = np.repeat(traj[:, lo:lo + 1], hi + 1 - lo, axis=1)
        prev_diff, ratios = None, []
        for _ in range(max_iter):
            try:
                p_art = eos.artificial_pressure(it[1])
            except ValueError:
                break  # the law refuses the iterate: it diverged
            f = (p_art - pi_series[span]) / mu
            with np.errstate(over="ignore", invalid="ignore"):
                new = transport_with_source(grid, it[:, 0], u_series[span],
                                            np.array((f, -f - u_x[span])),
                                            times[span])
                step = np.abs(new - it)
                diff = float(np.max(grid.h * np.sum(step[0] + step[1], axis=1)))
            if not np.isfinite(diff):
                break  # diverged iterate: split the slab
            if prev_diff:
                ratios.append(diff / prev_diff)
            it, prev_diff = new, diff
            if diff < tol:
                traj[:, span] = it
                slabs.append({"t0": float(times[lo]), "t1": float(times[hi]),
                              "ratios": ratios})
                return
        if hi - lo < 2:
            raise FixedPointError(
                f"no contraction on a single-step slab [{times[lo]:.6g}, "
                f"{times[hi]:.6g}]")
        mid = lo + (hi + 1 - lo) // 2
        solve(lo, mid)
        solve(mid, hi)

    solve(0, times.size - 1)
    if np.min(traj[0]) < -1e-12:
        raise BoundsError(f"picard output alpha went negative: "
                          f"{np.min(traj[0]):.3e}")
    return traj[0], traj[1], {"slabs": slabs}
