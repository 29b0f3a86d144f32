"""Structure functionals evaluated on flow states.

Everything here is a pure function of a state: the energy, the BD entropy
(kinetic energy with the density-gradient drift mu rho_x / rho^2 added to
the velocity), the effective viscous flux Sigma = mu u_x - P_art(rho), and
the per-run balance report.  Dissipation and the BD entropy use the
solver's central differences, and the energy defaults to them, so that
balance residuals measure scheme error rather than backend mismatch.

The state functionals also take a stacked state (``FluidState.stack`` or
``BNState.stack``, fields of shape (K, n)) and then return one value per
state, bitwise equal to K separate calls; ``DiagnosticsRecord.unstack``
splits such a record into K float records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import torus

# exact diagnostics.csv column order
RECORD_COLUMNS = ("t", "mass", "momentum", "energy", "dissipation",
                  "bd_entropy", "rho_min", "rho_max", "sigma_grad_l2",
                  "c_h2", "inv_sqrt_rho_grad")


@dataclass
class DiagnosticsRecord:
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

    def as_row(self):
        return [getattr(self, name) for name in RECORD_COLUMNS]

    def unstack(self) -> list:
        """The K float records of a record computed on a stacked state."""
        return [DiagnosticsRecord(*row)
                for row in np.column_stack(self.as_row()).tolist()]


assert tuple(f.name for f in fields(DiagnosticsRecord)) == RECORD_COLUMNS


def _energy(state, params, backend: str, bd_drift: bool):
    grid = state.grid
    rho = state.mixture_density
    v = state.u
    if bd_drift:
        v = v + params.mu * torus.derivative(grid, rho, 1, backend) / rho ** 2
    dc = torus.derivative(grid, state.c, 1, backend)
    dens = (0.5 * rho * v ** 2
            + params.eos.potential(rho)
            + 0.5 * params.gamma * (rho - state.c) ** 2
            + 0.5 * params.kappa * dc ** 2)
    return torus.row_values(grid.h * np.sum(dens, axis=-1))


def energy(state, params, backend: str = "central"):
    """Total energy: kinetic + pressure potential + coupling + gradient."""
    return _energy(state, params, backend, bd_drift=False)


def dissipation(state, params):
    grid = state.grid
    du = torus.derivative(grid, state.u, 1, "central")
    return torus.row_values(grid.h * params.mu * np.sum(du ** 2, axis=-1))


def bd_entropy(state, params):
    """Energy with the BD drift mu rho_x / rho^2 added inside the kinetic
    term; the drift is the gradient of phi(r) = mu (1 - 1/r)."""
    return _energy(state, params, "central", bd_drift=True)


def effective_viscous_flux(state, params) -> np.ndarray:
    """Sigma = mu u_x - P_art(rho), u_x spectral, with the alpha-weighted
    mixture pressure for two-phase states."""
    du = torus.derivative(state.grid, state.u, 1, "spectral")
    return params.mu * du - state.mixture_pressure(params.eos)


def compute_record(state, params) -> DiagnosticsRecord:
    """One diagnostics.csv row, or K rows for a stacked state.  Energy,
    dissipation and BD entropy use the solver's central differences; the
    Sigma and 1/sqrt(rho) gradients are spectral."""
    grid = state.grid
    rho = state.mixture_density
    sigma = effective_viscous_flux(state, params)
    return DiagnosticsRecord(
        t=torus.row_values(state.t),
        mass=torus.mean(grid, rho),
        momentum=torus.mean(grid, rho * state.u),
        energy=energy(state, params),
        dissipation=dissipation(state, params),
        bd_entropy=bd_entropy(state, params),
        rho_min=torus.row_values(np.min(rho, axis=-1)),
        rho_max=torus.row_values(np.max(rho, axis=-1)),
        sigma_grad_l2=torus.l2_norm(grid, torus.derivative(grid, sigma, 1,
                                                           "spectral")),
        c_h2=torus.sobolev_norm(grid, state.c, 2),
        inv_sqrt_rho_grad=torus.l2_norm(grid, torus.derivative(
            grid, 1.0 / np.sqrt(rho), 1, "spectral")),
    )


def balance_check(records, gronwall_rate: float | None = None) -> dict:
    """Drift and balance report over a diagnostics series.

    The energy residual is |E(t_k) - E(0) + int_0^{t_k} D dt| with the
    dissipation integral taken by the trapezoid rule; it passes within 1 %
    and the energy increase within 1e-6 of |E(0)| (of 1 if E(0) = 0).  Mass
    drift passes within 1e-12; momentum drift is reported, not checked.  When
    gronwall_rate (= 4 gamma sup_t ||c_x||_inf, measured from the run) is
    supplied, the BD entropy is checked against its Gronwall envelope
    (eta(0) + mass/2) exp(rate t).
    """
    if len(records) < 2:
        raise ValueError("balance_check needs at least two records")
    t = np.array([r.t for r in records])
    mass = np.array([r.mass for r in records])
    mom = np.array([r.momentum for r in records])
    e = np.array([r.energy for r in records])
    d = np.array([r.dissipation for r in records])
    eta = np.array([r.bd_entropy for r in records])

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
            np.array([r.sigma_grad_l2 for r in records]) ** 2, t))),
        "rho_min": float(np.min([r.rho_min for r in records])),
        "rho_max": float(np.max([r.rho_max for r in records])),
    }
    report["mass_ok"] = bool(report["mass_drift"] <= 1e-12)
    report["energy_ok"] = bool(
        energy_residual <= 0.01 * e_scale
        and report["energy_increase"] <= 1e-6 * e_scale)
    if gronwall_rate is not None:
        envelope = (eta[0] + 0.5 * mass[0]) * np.exp(gronwall_rate * (t - t[0]))
        report["gronwall_ok"] = bool(np.all(eta <= envelope + 1e-12))
        report["gronwall_margin"] = float(np.min(envelope - eta))
    report["ok"] = bool(report["mass_ok"] and report["energy_ok"]
                        and report.get("gronwall_ok", True))
    return report
