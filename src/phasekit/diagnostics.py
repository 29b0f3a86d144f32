"""Structure functionals evaluated on flow states.

Everything here is a pure function of a state: the energy, the BD entropy
(kinetic energy with the density-gradient drift mu rho_x / rho^2 added to
the velocity), the effective viscous flux Sigma = mu u_x - P_art(rho), and
the per-run balance report.  Dissipation and the BD entropy use the
solver's central differences, and the energy defaults to them, so that
balance residuals measure scheme error rather than backend mismatch.

``compute_record`` does each piece of work once: energy and BD entropy
share one evaluation of the potential W(rho), the coupling density and the
gradient density 1/2 kappa c_x^2, and each sums its terms in the order it
does when called alone, so both stay bitwise; the gradient of Sigma is read
in Fourier space from the spectra of u and P_art, without forming Sigma.
A state's mixture enters the record only through its step fields,
``state.step_fields(eos)``: the mixture density, the mixture pressure
(alpha-weighted for a two-phase state) and the central c_x.  The run loop
forms them once per state, for the state's step and its record, and hands
them to ``compute_record``; called without them, the record forms them
itself.  So a two-phase state is recorded directly, by its mixture
density, u and c.

The state functionals also take a stacked state (fields of shape (K, n))
and then return one value per state, bitwise equal to K separate calls.  A
record of such values is the diagnostics table of K states: the run loop,
the CSV writer and reader and balance_check all hold a series in that one
form.

The functionals follow torus' in-place rule (see the torus module
docstring): each sum of densities accumulates in an array the functional
allocated, and neither the state's fields nor the shared densities are
written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import torus

# the Gronwall envelope is formed only up to e^700 (below the largest
# float, e^709.78), and compared in log space beyond
_LOG_ENVELOPE_MAX = 700.0


@dataclass
class DiagnosticsRecord:
    """One diagnostics.csv row, or as 1-D arrays a table of rows, one entry
    per state in time order."""
    t: float
    mass: float
    momentum: float
    energy: float
    dissipation: float
    bd_entropy: float
    rho_min: float
    rho_max: float
    sigma_grad_l2: float
    c_h2: float
    inv_sqrt_rho_grad: float


# exact diagnostics.csv column order
RECORD_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


def _shared_terms(rho, c, params, c_x: np.ndarray) -> tuple:
    """The densities that energy and bd_entropy share: rho, the potential
    W(rho), the coupling 1/2 gamma (rho - c)^2 and the gradient term
    1/2 kappa c_x^2, from the given c_x, which is not written."""
    coupling = rho - c
    coupling **= 2
    coupling *= 0.5 * params.gamma
    gradient = c_x ** 2
    gradient *= 0.5 * params.kappa
    return rho, params.eos.potential(rho), coupling, gradient


def _energy(state, params, backend: str, bd_drift: bool, terms):
    grid = state.grid
    rho, potential, coupling, gradient = terms or _shared_terms(
        state.mixture_density, state.c, params,
        torus.derivative(grid, state.c, 1, backend))
    v = state.u
    if bd_drift:
        v = torus.derivative(grid, rho, 1, backend)
        v *= params.mu
        v /= rho ** 2
        v += state.u          # u + mu rho_x / rho^2
    dens = 0.5 * rho
    dens *= v ** 2
    dens += potential
    dens += coupling
    dens += gradient
    return torus.row_values(grid.h * np.sum(dens, axis=-1))


def energy(state, params, backend: str = "central", *, _terms=None):
    """Total energy: kinetic + pressure potential + coupling + gradient.
    _terms carries _shared_terms(rho, c, params, c_x) of the state, c_x in
    this backend, when the caller has them already."""
    return _energy(state, params, backend, bd_drift=False, terms=_terms)


def dissipation(state, params):
    grid = state.grid
    du = torus.derivative(grid, state.u, 1, "central")
    du **= 2
    return torus.row_values(grid.h * params.mu * np.sum(du, axis=-1))


def bd_entropy(state, params, *, _terms=None):
    """Energy with the BD drift mu rho_x / rho^2 added inside the kinetic
    term; the drift is the gradient of phi(r) = mu (1 - 1/r).  _terms as
    for energy, with the central backend."""
    return _energy(state, params, "central", bd_drift=True, terms=_terms)


def effective_viscous_flux(state, params) -> np.ndarray:
    """Sigma = mu u_x - P_art(rho), u_x spectral, with the mixture pressure
    of state.mixture(eos) (alpha-weighted for two-phase states)."""
    du = torus.derivative(state.grid, state.u, 1, "spectral")
    return params.mu * du - state.mixture(params.eos)[1]


def _sigma_grad_l2(state, params, p: np.ndarray):
    """||Sigma_x||_L2 read in Fourier space, p the mixture pressure P_art:
    Sigma_x has the transform -mu k^2 u_hat - i k P_hat without its
    Nyquist mode, as two spectral derivatives of effective_viscous_flux
    give it, and its norm follows by Parseval.  u and P_art take one rfft
    each: numpy's rfft of their (2, n) stack is slower than the two calls
    at n = 16384."""
    grid = state.grid
    dsigma = np.fft.rfft(state.u)
    dsigma *= grid._minus_k2
    dsigma *= params.mu
    p_x = np.fft.rfft(p)
    p_x *= grid._ik
    dsigma -= p_x
    dsigma[..., -1] = 0.0
    return torus.spectral_norm(grid, dsigma)


def compute_record(state, params, fields=None) -> DiagnosticsRecord:
    """One diagnostics.csv row, or K rows for a stacked state, single-phase
    or two-phase.  fields is state.step_fields(params.eos), the mixture
    density, the mixture pressure and the central c_x, which the run loop
    hands over and which is formed here when not given; it is not written.
    Energy, dissipation and BD entropy use the solver's central
    differences, and energy and BD entropy share one evaluation of their
    potential, coupling and gradient densities.  The Sigma gradient is read
    in Fourier space from the spectra of u and P_art; the 1/sqrt(rho)
    gradient is spectral."""
    grid = state.grid
    rho, p, c_x = fields or state.step_fields(params.eos)
    terms = _shared_terms(rho, state.c, params, c_x)
    inv_sqrt_rho = np.sqrt(rho)
    np.divide(1.0, inv_sqrt_rho, out=inv_sqrt_rho)
    return DiagnosticsRecord(
        t=torus.row_values(state.t),
        mass=torus.mean(grid, rho),
        momentum=torus.mean(grid, rho * state.u),
        energy=energy(state, params, _terms=terms),
        dissipation=dissipation(state, params),
        bd_entropy=bd_entropy(state, params, _terms=terms),
        rho_min=torus.row_values(np.min(rho, axis=-1)),
        rho_max=torus.row_values(np.max(rho, axis=-1)),
        sigma_grad_l2=_sigma_grad_l2(state, params, p),
        c_h2=torus.sobolev_norm(grid, state.c, 2),
        inv_sqrt_rho_grad=torus.l2_norm(grid, torus.derivative(
            grid, inv_sqrt_rho, 1, "spectral")),
    )


def balance_check(records: DiagnosticsRecord,
                  gronwall_rate: float | None = None) -> dict:
    """Drift and balance report over a diagnostics table.

    The energy residual is |E(t_k) - E(0) + int_0^{t_k} D dt| with the
    dissipation integral taken by the trapezoid rule; it passes within 1 %
    and the energy increase within 1e-6 of |E(0)| (of 1 if E(0) = 0).  Mass
    drift passes within 1e-12; momentum drift is reported, not checked.  When
    gronwall_rate (= 4 gamma sup_t ||c_x||_inf, measured from the run as
    Trajectory.dxc_sup: the central c_x, the one the coupling force
    applies) is supplied, the BD entropy is checked against its Gronwall
    envelope s exp(rate t), s = eta(0) + mass/2, with a 1e-12 tolerance,
    and gronwall_margin is the least gap.  Where rate t + log max(|s|, 1)
    exceeds 700 the envelope is not formed, since exp overflows past
    709.78: those rows are decided in log space, log eta <= log s + rate t
    (a row with eta <= 0 passes; with s <= 0 every other row fails), and
    the margin is taken over the remaining rows, which include t(0).
    """
    t, mass, mom, e, d, eta = (
        records.t, records.mass, records.momentum, records.energy,
        records.dissipation, records.bd_entropy)
    if np.size(t) < 2:
        raise ValueError("balance_check needs at least two records")

    diss_cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(t))])
    energy_residual = float(np.max(np.abs(e - e[0] + diss_cum)))
    e_scale = float(abs(e[0])) if e[0] != 0.0 else 1.0

    report = {
        "mass_drift": float(np.max(np.abs(mass - mass[0]))),
        "momentum_drift": float(np.max(np.abs(mom - mom[0]))),
        "energy_residual": energy_residual,
        "energy_increase": float(e[-1] - e[0]),
        "energy_overshoot": float(np.max(e - e[0])),
        "max_bd_entropy": float(np.max(eta)),
        "sigma_grad_l2l2": float(np.sqrt(np.trapezoid(
            records.sigma_grad_l2 ** 2, t))),
        "rho_min": float(np.min(records.rho_min)),
        "rho_max": float(np.max(records.rho_max)),
    }
    report["mass_ok"] = bool(report["mass_drift"] <= 1e-12)
    report["energy_ok"] = bool(
        energy_residual <= 0.01 * e_scale
        and report["energy_increase"] <= 1e-6 * e_scale)
    if gronwall_rate is not None:
        scale = eta[0] + 0.5 * mass[0]
        growth = gronwall_rate * (t - t[0])
        near = (growth + math.log(max(abs(scale), 1.0))
                <= _LOG_ENVELOPE_MAX)
        envelope = scale * np.exp(growth[near])
        eta_far = eta[~near]
        rising = ~(eta_far <= 0.0)   # NaN included, and it fails
        log_scale = math.log(scale) if scale > 0.0 else -math.inf
        far_ok = np.all(np.log(eta_far[rising])
                        <= log_scale + growth[~near][rising])
        report["gronwall_ok"] = bool(
            np.all(eta[near] <= envelope + 1e-12) and far_ok)
        report["gronwall_margin"] = float(np.min(envelope - eta[near]))
    report["ok"] = bool(report["mass_ok"] and report["energy_ok"]
                        and report.get("gronwall_ok", True))
    return report
