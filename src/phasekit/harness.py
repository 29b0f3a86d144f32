"""The oscillating-family homogenization experiment.

For a two-value density profile compressed n-fold, run the detailed-scale
solver for each n in a family, build the empirical measures of the density
fields, run the two-phase solver once from the profile's limit data, build
its two-Dirac measures, and quantify how the empirical measures approach
the two-Dirac ones as n grows.  Every member's initial data is built
before the first run, so a member the grid cannot resolve stops the family
before any solver step.  The members run as one batch, one row per member
(see nsk_run), and a member that leaves its guard rails fails alone: the
report over the others is still assembled.  The members share the grid,
the time step and the snapshot times with the two-phase run; a member whose
CFL bound falls below the time step shortens the step of every member, and
the family stops with a ConfigError that names it, also when that member
then leaves its guard rails; a CFL-limited two-phase run stops it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bn import BNState, bn_run
from .diagnostics import effective_viscous_flux
from .errors import BoundsError, ConfigError
from .measures import (TestDictionary, distance, empirical_from_state,
                       kinetic_residual, smoke_test_set, two_dirac_from_bn,
                       wasserstein_avg)
from .nsk import (FluidState, PhysicalParams, SolverConfig,
                  make_oscillating_initial, nsk_run, sound_speed_max)
from .torus import PeriodicGrid, mean


def check_n_list(n_list) -> None:
    """Raise ValueError unless n_list is a non-empty, strictly increasing
    list of positive oscillation counts.  The one rule for the family's
    members; the config loader prefixes its section to the message."""
    n_list = list(n_list)
    if not n_list:
        raise ValueError("n_list must not be empty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly increasing, got {n_list}")
    if min(n_list) < 1:
        raise ValueError(f"n_list entries must be at least 1, got {n_list}")


@dataclass
class FamilyConfig:
    n_list: tuple
    v_minus: float
    v_plus: float
    theta: float
    delta: float
    u0: np.ndarray | float
    params: PhysicalParams
    solver: SolverConfig
    grid_n: int

    def __post_init__(self):
        self.n_list = tuple(int(n) for n in self.n_list)
        check_n_list(self.n_list)
        if self.grid_n < 64 * max(self.n_list):
            raise ValueError(
                f"grid too coarse: need at least {64 * max(self.n_list)} nodes "
                f"to resolve {max(self.n_list)} oscillations, got {self.grid_n}")

    def grid(self) -> PeriodicGrid:
        return PeriodicGrid(self.grid_n)

    def u0_field(self, grid: PeriodicGrid) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.u0, dtype=float),
                               (grid.n,)).copy()


MONOTONE_SLACK = 1.2   # allowed growth of the sup error from member to member


@dataclass
class ConvergenceReport:
    n_list: tuple
    times: np.ndarray
    dist_series: list          # per n: dictionary distance at each time
    uerr_series: list          # per n: max-norm velocity error at each time
    wasserstein_series: list   # per n: x-averaged W1 at each time
    sup_dist: list
    sup_uerr: list
    monotone_dist: bool
    monotone_uerr: bool
    extras: dict = field(default_factory=dict)


def limit_initial_data(v_minus: float, v_plus: float, theta: float,
                       delta: float, grid: PeriodicGrid) -> tuple:
    """Two-Dirac data induced by the two-value profile in the many-
    oscillation limit: fractions theta at v_minus and 1 - theta at v_plus,
    with the ramp mass reassigned so that the mixture mass matches the
    generated profile exactly."""
    profile = make_oscillating_initial(grid, v_minus, v_plus, theta, 1, delta)
    if v_plus == v_minus:
        alpha_m = theta
    else:
        alpha_m = float((v_plus - mean(grid, profile)) / (v_plus - v_minus))
    alpha_p = 1.0 - alpha_m
    return alpha_p, alpha_m, v_plus, v_minus


def suggest_dt(params: PhysicalParams, rho_range: tuple, u_max: float,
               cfl: float, grid: PeriodicGrid) -> float:
    """0.7 times the CFL step for densities in rho_range, so every family
    member runs on the same uniform time grid."""
    r = np.linspace(rho_range[0], rho_range[1], 257)
    return 0.7 * cfl * grid.h / sound_speed_max(r, u_max, params.eos)


def run_family(config: FamilyConfig) -> ConvergenceReport:
    """Run the whole experiment and assemble the convergence report.

    Nothing is written here: ``io.write_family`` writes a report's files.
    If a member run violates its guard rails the family is aborted with a
    BoundsError whose ``partial_report`` holds the report over the members
    that finished (None when none did).  A run off the shared time grid, a
    CFL-limited member or two-phase run, stops the family first, with a
    ConfigError.
    Profile values outside the guard rails are the two-phase run's
    densities at t = 0, so its check stops the family before any member
    steps; a BoundsError of the two-phase run is raised again with a prefix
    that names the two-phase reference and the [init] profile."""
    grid = config.grid()
    u0 = config.u0_field(grid)

    # every member's data first: an unresolvable member fails before any run
    member_rho0 = [make_oscillating_initial(
        grid, config.v_minus, config.v_plus, config.theta, n, config.delta)
        for n in config.n_list]
    alpha_p0, alpha_m0, rho_p0, rho_m0 = limit_initial_data(
        config.v_minus, config.v_plus, config.theta, config.delta, grid)
    try:
        bn_state = BNState.make(grid, alpha_p0, rho_p0, rho_m0, u0,
                                config.params)
        bn_traj = bn_run(bn_state, config.params, config.solver)
    except BoundsError as exc:
        raise BoundsError(
            f"two-phase reference from the [init] profile failed: {exc}"
        ) from exc

    batch = FluidState.make(grid, np.stack(member_rho0),
                            np.tile(u0, (len(member_rho0), 1)), config.params)
    runs = nsk_run(batch, config.params, config.solver)
    _require_shared_time_grid(config.n_list, runs, bn_traj)
    members = [run for run in runs if not isinstance(run, BoundsError)]
    failures = {n: str(run) for n, run in zip(config.n_list, runs)
                if isinstance(run, BoundsError)}
    if failures:
        survivors = tuple(n for n in config.n_list if n not in failures)
        exc = BoundsError(
            "family aborted, member runs failed: "
            + "; ".join(f"n={n}: {msg}" for n, msg in failures.items()))
        if survivors:
            exc.partial_report = _assemble_report(config, bn_traj, members,
                                                  survivors)
            exc.partial_report.extras["failures"] = failures
        raise exc

    return _assemble_report(config, bn_traj, members, config.n_list)


def _require_shared_time_grid(n_list, runs, bn_traj):
    """ConfigError naming a run off the shared time grid: without CFL-limited
    steps every run steps min(dt, time left) from t = 0.  A CFL-limited
    member, finished or failed, moves all members off it and is named
    first, with its own failure; then a CFL-limited two-phase run."""
    for n, run in zip(n_list, runs):
        if run.cfl_limited:
            raise ConfigError(
                f"member n={n} left the shared time grid (CFL-limited: True)"
                + (f" and then failed: {run}"
                   if isinstance(run, BoundsError) else "")
                + "; lower [time].dt and rerun")
    if bn_traj.cfl_limited:
        raise ConfigError(
            "the two-phase reference left the shared time grid (CFL-limited: "
            "True); lower [time].dt and rerun")


def _assemble_report(config: FamilyConfig, bn_traj, members, n_list
                     ) -> ConvergenceReport:
    times = bn_traj.snapshot_times
    box = config.solver.bounds
    dictionary = TestDictionary(box)
    bn_measures = [two_dirac_from_bn(s, box) for s in bn_traj.snapshots]
    bn_pairings = [m.pair(dictionary) for m in bn_measures]

    member_pairings, dist_series, uerr_series, w1_series = [], [], [], []
    for traj in members:
        measures = [empirical_from_state(s, box) for s in traj.snapshots]
        pairings = [m.pair(dictionary) for m in measures]
        member_pairings.append(pairings)
        dist_series.append(np.array(
            [distance(p_n, p_bn) for p_n, p_bn in zip(pairings, bn_pairings)]))
        w1_series.append(np.array(
            [wasserstein_avg(m_n, m_bn)
             for m_n, m_bn in zip(measures, bn_measures)]))
        uerr_series.append(np.array(
            [float(np.max(np.abs(s_n.u - s_bn.u)))
             for s_n, s_bn in zip(traj.snapshots, bn_traj.snapshots)]))

    sup_dist = [float(np.max(d)) for d in dist_series]
    sup_uerr = [float(np.max(e)) for e in uerr_series]
    return ConvergenceReport(
        n_list=tuple(n_list), times=times, dist_series=dist_series,
        uerr_series=uerr_series, wasserstein_series=w1_series,
        sup_dist=sup_dist, sup_uerr=sup_uerr,
        monotone_dist=_monotone_with_slack(sup_dist),
        monotone_uerr=_monotone_with_slack(sup_uerr),
        extras={"bn_trajectory": bn_traj, "members": members,
                "dictionary": dictionary, "bn_pairings": bn_pairings,
                "member_pairings": member_pairings},
    )


def _monotone_with_slack(values) -> bool:
    return all(b <= MONOTONE_SLACK * a for a, b in zip(values, values[1:]))


def kinetic_consistency(trajectory) -> dict:
    """Kinetic-equation residuals of a finished run over the smoke set, for
    the two-Dirac measures of a two-phase run or the empirical measures of
    a single-phase one, with the run's u, Sigma and parameters.  The time
    window spans the run from its first snapshot to its last."""
    times = trajectory.snapshot_times
    if times.size < 2:
        raise ValueError("need a run with at least two snapshots")
    times = times - times[0]
    states, params = trajectory.snapshots, trajectory.params
    build = (two_dirac_from_bn if isinstance(states[0], BNState)
             else empirical_from_state)
    measures = [build(s, trajectory.config.bounds) for s in states]
    us = [s.u for s in states]
    sigmas = [effective_viscous_flux(s, params) for s in states]
    return {phi.name: kinetic_residual(measures, us, sigmas, times, phi, params)
            for phi in smoke_test_set(float(times[-1]))}
