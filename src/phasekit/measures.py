"""Parametrized measures over the torus and the density axis.

Two constructions arise from the solvers: the empirical measure of a
density field (one atom per node, the measure with pairings
h sum_i b(x_i, rho_i)) and the two-Dirac measure of a two-phase state
(atoms rho_p, rho_m with weights alpha_p, alpha_m).  Distances combine a
finite test dictionary (a computable surrogate for weak-star convergence)
with the x-averaged per-node 1D Wasserstein distance; the dictionary
stacks its entries (an x-factor times a power of xi) in one array, so a
measure is paired with all of them in one reduction.  The weak-form
residual of the kinetic transport equation driven by the effective viscous
flux is evaluated by exact atom pairing in (x, xi) and trapezoid in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import PeriodicGrid


@dataclass
class ParamMeasure:
    grid: PeriodicGrid
    atoms: np.ndarray         # (n_atoms_per_node, n)
    weights: np.ndarray       # (n_atoms_per_node, n); per-node masses sum to 1
    support_box: tuple

    def __post_init__(self):
        lo, hi = self.support_box
        if self.atoms.shape != self.weights.shape:
            raise ValueError("atoms and weights must have matching shapes")
        carried = self.weights > 1e-15
        if np.any((self.atoms < lo) & carried) or np.any((self.atoms > hi) & carried):
            raise ValueError(
                f"atoms outside the support box [{lo}, {hi}]: range "
                f"[{np.min(self.atoms)}, {np.max(self.atoms)}]")

    def pair(self, b):
        """<measure, b> for a vectorized test function b(x, xi); one value
        per entry when b stacks several along a leading axis (a dictionary)."""
        x = np.broadcast_to(self.grid.x, self.atoms.shape)
        vals = self.grid.h * np.sum(self.weights * b(x, self.atoms),
                                    axis=(-2, -1))
        return float(vals) if vals.ndim == 0 else vals


def empirical_from_field(grid: PeriodicGrid, rho: np.ndarray,
                         support_box: tuple) -> ParamMeasure:
    rho = np.asarray(rho, dtype=float)
    # unit weights as a read-only view: a family keeps all its measures
    return ParamMeasure(grid, rho[None, :], np.broadcast_to(1.0, (1, grid.n)),
                        tuple(support_box))


def empirical_from_state(state, support_box: tuple) -> ParamMeasure:
    return empirical_from_field(state.grid, state.rho, support_box)


def two_dirac_from_bn(state, support_box: tuple) -> ParamMeasure:
    atoms = np.stack([state.rho_p, state.rho_m])
    weights = np.stack([state.alpha_p, state.alpha_m])
    return ParamMeasure(state.grid, atoms, weights, tuple(support_box))


def _x_factors() -> dict:
    """name -> (g, g') for the x-factors 1, cos(2 pi m x) and sin(2 pi m x),
    m = 1..4, in dictionary order."""
    factors = {"1": (np.ones_like, np.zeros_like)}
    for m in range(1, 5):
        w = 2.0 * np.pi * m
        factors[f"cos{m}"] = (lambda x, w=w: np.cos(w * x),
                              lambda x, w=w: -w * np.sin(w * x))
        factors[f"sin{m}"] = (lambda x, w=w: np.sin(w * x),
                              lambda x, w=w: w * np.cos(w * x))
    return factors


def _xi_powers() -> dict:
    """k -> (p, p') for xi^k, k = 0..4."""
    return {k: (lambda xi, k=k: xi ** k,
                lambda xi, k=k: k * xi ** (k - 1) if k else np.zeros_like(xi))
            for k in range(5)}


@dataclass
class TestDictionary:
    """Products g(x) xi^k of every x-factor with every power of xi, normalized
    to sup-norm one on the torus times the support box.  Called on (x, xi)
    of shape (A, n), it returns the 45 entries as one (45, A, n) array, in
    names() order."""
    __test__ = False  # not a pytest class, despite the name
    support_box: tuple

    def names(self):
        return [f"{x_name}*xi^{k}" for x_name in _x_factors()
                for k in _xi_powers()]

    def __call__(self, x, xi):
        lo, hi = self.support_box
        xi_sup = max(abs(lo), abs(hi))
        gs = np.stack([g(x) for g, _ in _x_factors().values()])
        ps = np.stack([p(xi) for p, _ in _xi_powers().values()])
        scale = np.array([xi_sup ** k for k in _xi_powers()])
        vals = gs[:, None] * ps
        vals /= scale[:, None, None]
        return vals.reshape(-1, *ps.shape[1:])


def distance(p1: np.ndarray, p2: np.ndarray) -> float:
    """Max difference of two dictionary pairings ``m.pair(dictionary)`` (a
    pseudometric on the measures)."""
    return float(np.max(np.abs(p1 - p2)))


def wasserstein_avg(m1: ParamMeasure, m2: ParamMeasure) -> float:
    """x-average of the exact per-node 1D Wasserstein-1 distance between
    the conditional (per-node) measures, via the CDF-difference integral."""
    if m1.grid.n != m2.grid.n:
        raise ValueError("measures live on different grids")
    atoms = np.concatenate([m1.atoms, m2.atoms], axis=0)
    signed = np.concatenate([m1.weights, -m2.weights], axis=0)
    order = np.argsort(atoms, axis=0, kind="stable")
    atoms_sorted = np.take_along_axis(atoms, order, axis=0)
    signed_sorted = np.take_along_axis(signed, order, axis=0)
    cdf_diff = np.cumsum(signed_sorted, axis=0)[:-1]
    gaps = np.diff(atoms_sorted, axis=0)
    return float(np.mean(np.sum(np.abs(cdf_diff) * gaps, axis=0)))


@dataclass
class SeparableTest:
    """phi(t, x, xi) = psi(t) g(x) p(xi) with analytic factor derivatives."""
    name: str
    psi: callable
    dpsi: callable
    g: callable
    dg: callable
    p: callable
    dp: callable


def _time_window(t_end: float):
    # sin^2 window: vanishes with its derivative at both endpoints, and the
    # trapezoid rule integrates its derivative to exactly zero
    def psi(t):
        return np.sin(np.pi * t / t_end) ** 2

    def dpsi(t):
        return (np.pi / t_end) * np.sin(2.0 * np.pi * t / t_end)

    return psi, dpsi


def smoke_test_set(t_end: float) -> list:
    """Fixed set of separable test functions for kinetic-residual checks."""
    psi, dpsi = _time_window(t_end)
    x_factors, xi_powers = _x_factors(), _xi_powers()
    combos = [("cos1", 1), ("sin1", 2), ("cos2", 1), ("cos1", 0), ("1", 1),
              ("1", 2)]
    out = []
    for x_name, k in combos:
        xi_name = {0: "1", 1: "xi"}.get(k, f"xi^{k}")
        out.append(SeparableTest(f"{x_name}*{xi_name}", psi, dpsi,
                                 *x_factors[x_name], *xi_powers[k]))
    return out


def kinetic_residual(measures: list, u_series, sigma_series, times, phi,
                     params) -> float:
    """Weak-form residual of the kinetic transport equation.

    For each time the pairing of
        phi_t + u phi_x - (xi (Sigma + P_art(xi))/mu) phi_xi
              + ((Sigma + P_art(xi))/mu) phi
    against the measure is accumulated and the result integrated by the
    trapezoid rule; it vanishes for exact solutions with phi compactly
    supported in time.
    """
    times = np.asarray(times, dtype=float)
    if not (len(measures) == len(u_series) == len(sigma_series) == times.size):
        raise ValueError("trajectory series have mismatched lengths")
    vals = np.empty(times.size)
    for k, measure in enumerate(measures):
        grid = measure.grid
        x = np.broadcast_to(grid.x, measure.atoms.shape)
        xi = measure.atoms
        u = np.broadcast_to(u_series[k], measure.atoms.shape)
        sigma = np.broadcast_to(sigma_series[k], measure.atoms.shape)
        psi, dpsi = phi.psi(times[k]), phi.dpsi(times[k])
        g, dg, p, dp = phi.g(x), phi.dg(x), phi.p(xi), phi.dp(xi)
        growth = (sigma + params.eos.artificial_pressure(xi)) / params.mu
        integrand = (dpsi * g * p + u * (psi * dg * p)
                     - xi * growth * (psi * g * dp)
                     + growth * (psi * g * p))
        vals[k] = grid.h * np.sum(measure.weights * integrand)
    return float(abs(np.trapezoid(vals, times)))
