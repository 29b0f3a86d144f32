import numpy as np
import pytest

from phasekit.diagnostics import balance_check
from phasekit.eos import AdmissibilityError, PolytropicEOS, VanDerWaalsEOS
from phasekit.errors import BoundsError
from phasekit.nsk import (FluidState, PhysicalParams, SolverConfig,
                          make_oscillating_initial, nsk_run, nsk_step)
from phasekit.torus import PeriodicGrid, mean


def poly_params(mu=0.1, kappa=0.02, gamma=1.0):
    return PhysicalParams(mu=mu, kappa=kappa, gamma=gamma,
                          eos=PolytropicEOS(1.0, 2.0, gamma))


def test_params_gamma_consistency():
    with pytest.raises(ValueError):
        PhysicalParams(mu=1.0, kappa=1.0, gamma=2.0,
                       eos=PolytropicEOS(1.0, 2.0, 1.0))


def test_state_validation():
    grid = PeriodicGrid(32)
    params = poly_params()
    with pytest.raises(BoundsError):
        FluidState.make(grid, grid.constant(-1.0), grid.zeros(), params)
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    assert state.helmholtz_residual(params) < 1e-12


def make_two_value_grid():
    return PeriodicGrid(512)


def test_oscillating_initial_constant_profile():
    grid = make_two_value_grid()
    rho = make_oscillating_initial(grid, 1.0, 1.0, theta=0.3, n_osc=8, delta=0.1)
    assert np.max(np.abs(rho - 1.0)) == 0.0


def test_oscillating_initial_mean():
    grid = make_two_value_grid()
    for delta in (0.02, 0.1, 0.2):
        rho = make_oscillating_initial(grid, 0.8, 1.6, theta=0.5, n_osc=1,
                                       delta=delta)
        # symmetric ramps preserve the sharp-profile mean exactly
        assert mean(grid, rho) == pytest.approx(1.2, abs=1e-12)


def test_oscillating_initial_is_composition():
    grid = make_two_value_grid()
    base = make_oscillating_initial(grid, 0.8, 1.6, theta=0.5, n_osc=1, delta=0.1)
    comp = make_oscillating_initial(grid, 0.8, 1.6, theta=0.5, n_osc=4, delta=0.1)
    idx = (4 * np.arange(grid.n)) % grid.n
    assert np.max(np.abs(comp - base[idx])) < 1e-14


def test_oscillating_initial_validation():
    grid = PeriodicGrid(64)
    with pytest.raises(ValueError):
        make_oscillating_initial(grid, 0.8, 1.6, 0.5, n_osc=8, delta=0.05)
    with pytest.raises(ValueError):
        make_oscillating_initial(grid, 0.8, 1.6, 0.5, n_osc=1, delta=0.7)
    with pytest.raises(ValueError):
        make_oscillating_initial(grid, 0.8, 1.6, 0.5, n_osc=1, delta=0.1,
                                 bounds=(1.0, 2.0))


def test_constant_state_is_stationary():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.05, bounds=(0.1, 10.0))
    state = FluidState.make(grid, grid.constant(1.3), grid.constant(0.7), params)
    for _ in range(30):
        state = nsk_step(state, params, config)
    assert np.max(np.abs(state.rho - 1.3)) < 1e-13
    assert np.max(np.abs(state.u - 0.7)) < 1e-13
    assert np.max(np.abs(state.c - 1.3)) < 1e-13


def test_mass_conservation_1000_steps():
    grid = PeriodicGrid(128)
    params = poly_params()
    config = SolverConfig(dt=2e-4, t_end=0.2, bounds=(0.05, 20.0))
    rho0 = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    u0 = 0.2 * np.cos(2 * np.pi * grid.x)
    state = FluidState.make(grid, rho0, u0, params)
    m0 = mean(grid, state.rho)
    traj = nsk_run(state, params, config, keep_records=True)
    assert traj.n_steps >= 1000
    for rec in traj.records:
        assert abs(rec.mass - m0) <= 1e-12


def momentum_drift(n, dt, t_end=0.05):
    grid = PeriodicGrid(n)
    params = poly_params()
    config = SolverConfig(dt=dt, t_end=t_end, bounds=(0.05, 20.0), upwind=0.0,
                          snapshot_every=10 ** 9)
    rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    state = FluidState.make(grid, rho0, grid.zeros(), params)
    traj = nsk_run(state, params, config, keep_records=False)
    final = traj.snapshots[-1]
    return abs(mean(grid, final.rho * final.u) - mean(grid, state.rho * state.u))


def test_momentum_drift_second_order():
    # continuum identity: the coupling force integrates to zero, so the
    # drift is pure discretization error, O(h^2 + dt)
    drifts = [momentum_drift(64, 4e-5), momentum_drift(128, 2e-5)]
    assert drifts[1] < drifts[0]
    assert drifts[0] / drifts[1] >= 3.0


def test_stationary_run_energy_constant():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.05, bounds=(0.1, 10.0))
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    traj = nsk_run(state, params, config)
    energies = [r.energy for r in traj.records]
    assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-12
    report = balance_check(traj.records)
    assert report["mass_drift"] == 0.0
    assert report["energy_residual"] < 1e-12


def reference_smooth_run(n=128, dt=5e-5, t_end=0.05, upwind=0.5):
    grid = PeriodicGrid(n)
    params = poly_params()
    config = SolverConfig(dt=dt, t_end=t_end, bounds=(0.05, 20.0),
                          upwind=upwind, snapshot_every=10 ** 9)
    rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    state = FluidState.make(grid, rho0, grid.zeros(), params)
    return nsk_run(state, params, config)


def test_energy_balance_reference_run():
    traj = reference_smooth_run()
    report = balance_check(traj.records, tol_energy_frac=0.01)
    assert report["energy_ok"], report
    e0 = traj.records[0].energy
    assert traj.records[-1].energy <= e0 * (1.0 + 1e-6)


def test_energy_balance_refines():
    # dt tied to h^2 so the O(dt + h^2) residual shows ~2nd order in h;
    # the odd-even guard is off, as in every formal-order measurement
    r1 = balance_check(
        reference_smooth_run(64, 2e-4, upwind=0.0).records)["energy_residual"]
    r2 = balance_check(
        reference_smooth_run(128, 5e-5, upwind=0.0).records)["energy_residual"]
    assert r1 / r2 >= 2.0 ** 1.5


def test_gronwall_envelope_reference_run():
    traj = reference_smooth_run()
    rate = 4.0 * traj.params.gamma * traj.dxc_sup
    report = balance_check(traj.records, gronwall_rate=rate)
    assert report["gronwall_ok"], report


def test_helmholtz_slaving_along_run():
    traj = reference_smooth_run(n=64, dt=2e-4)
    for s in traj.snapshots:
        assert s.helmholtz_residual(traj.params) <= 1e-9


def test_guard_rail_violation_raises():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=1.0, bounds=(0.95, 1.05))
    rho0 = 1.0 + 0.04 * np.sin(2 * np.pi * grid.x)
    state = FluidState.make(grid, rho0, 2.0 * np.cos(2 * np.pi * grid.x), params)
    with pytest.raises(BoundsError):
        nsk_run(state, params, config)
    assert BoundsError.exit_code == 4


def test_inadmissible_eos_refused():
    grid = PeriodicGrid(64)
    eos = VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=1e-12)
    params = PhysicalParams(mu=0.1, kappa=0.02, gamma=1e-12, eos=eos)
    config = SolverConfig(dt=1e-3, t_end=0.01, bounds=(0.1, 0.9))
    state = FluidState.make(grid, grid.constant(0.5), grid.zeros(), params)
    with pytest.raises(AdmissibilityError):
        nsk_run(state, params, config)


def test_force_forms_agree_to_second_order():
    # gamma rho (c)_x with artificial pressure vs gamma rho (c - rho)_x with
    # the bare pressure: algebraically identical in the continuum
    diffs = []
    for n, dt in ((64, 1e-4), (128, 2.5e-5)):
        grid = PeriodicGrid(n)
        params = poly_params()
        rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
        state = FluidState.make(grid, rho0, grid.zeros(), params)
        finals = []
        for form in ("artificial", "original"):
            config = SolverConfig(dt=dt, t_end=0.02, bounds=(0.05, 20.0),
                                  upwind=0.0, force_form=form,
                                  snapshot_every=10 ** 9)
            finals.append(nsk_run(state, params, config,
                                  keep_records=False).snapshots[-1])
        diffs.append(np.max(np.abs(finals[0].rho - finals[1].rho)))
    assert diffs[1] < diffs[0]
    assert diffs[0] / diffs[1] > 3.0


def linearization_matrix(params, rho_bar, k):
    """Analytic per-mode linearization about (rho_bar, 0), including the
    non-local response c_hat = gamma rho_hat / (kappa w^2 + gamma)."""
    w = 2 * np.pi * k
    s_k = params.gamma / (params.kappa * w ** 2 + params.gamma)
    dp_art = float(params.eos.d_artificial_pressure(np.array(rho_bar)))
    return np.array([
        [0.0, -1j * w * rho_bar],
        [1j * w * (params.gamma * s_k - dp_art / rho_bar),
         -params.mu * w ** 2 / rho_bar],
    ])


def measured_mode_rates(params, rho_bar, k, n=256, dt=2e-5, t_end=0.25,
                        snapshot_every=250, eps=0.01):
    grid = PeriodicGrid(n)
    config = SolverConfig(dt=dt, t_end=t_end, bounds=(0.05, 20.0), upwind=0.0,
                          snapshot_every=snapshot_every)
    rho0 = rho_bar + eps * np.sin(2 * np.pi * k * grid.x)
    state = FluidState.make(grid, rho0, grid.zeros(), params)
    traj = nsk_run(state, params, config, keep_records=False)
    ts = traj.snapshot_times
    vecs = []
    for s in traj.snapshots:
        vecs.append([np.fft.rfft(s.rho - rho_bar)[k] / n,
                     np.fft.rfft(s.u)[k] / n])
    v = np.array(vecs).T  # (2, n_times)
    dt_snap = ts[1] - ts[0]
    # least-squares one-step propagator M: v(t+dt) = M v(t)
    m, *_ = np.linalg.lstsq(v[:, :-1].T, v[:, 1:].T, rcond=None)
    lam = np.log(np.linalg.eigvals(m.T)) / dt_snap
    return lam[np.argsort(lam.imag)]


def test_linearized_dispersion_matches_analytic():
    params = poly_params()
    rho_bar = 1.0
    k = 1
    lam = np.linalg.eigvals(linearization_matrix(params, rho_bar, k))
    analytic = lam[np.argsort(lam.imag)]
    measured = measured_mode_rates(params, rho_bar, k)
    rel = np.abs(measured - analytic) / np.abs(analytic)
    assert np.max(rel) <= 1e-3, (measured, analytic)


def test_single_final_snapshot_at_end_tolerance():
    # ten steps end 5e-13 short of t_end: the loop takes one more short
    # step, and only the state that ends the run is a final snapshot
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=1e-3 - 5e-14, t_end=0.01, bounds=(0.05, 20.0),
                          snapshot_every=3)
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    traj = nsk_run(state, params, config, keep_records=False)
    times = traj.snapshot_times
    assert traj.n_steps == 11
    assert np.sum(times >= config.t_end - 1e-12) == 1
    assert times[-1] == pytest.approx(config.t_end, abs=1e-14)
