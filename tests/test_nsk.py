import dataclasses
import re

import numpy as np
import pytest

from phasekit import bn, nsk
from phasekit.bn import BNState, bn_run, bn_step
from phasekit.diagnostics import RECORD_COLUMNS, balance_check, compute_record
from phasekit.eos import AdmissibilityError, PolytropicEOS, VanDerWaalsEOS
from phasekit.errors import BoundsError
from phasekit.nsk import (FluidState, PhysicalParams, SolverConfig,
                          make_oscillating_initial, nsk_run, nsk_step,
                          sound_speed_max)
from phasekit.torus import PeriodicGrid, derivative, max_norm, mean


def poly_params(mu=0.1, kappa=0.02, gamma=1.0):
    return PhysicalParams(mu=mu, kappa=kappa,
                          eos=PolytropicEOS(1.0, 2.0, gamma))


def test_params_gamma_is_the_laws():
    # the coupling coefficient has one owner, the pressure law
    params = PhysicalParams(mu=1.0, kappa=1.0, eos=PolytropicEOS(1.0, 2.0, 1.5))
    assert params.gamma == params.eos.gamma == 1.5


def test_gamma_zero_is_refused_by_the_helmholtz_solve():
    # the law and the parameters accept gamma = 0 (admissibility scans);
    # every state construction solves for c and refuses it there
    grid = PeriodicGrid(32)
    params = poly_params(gamma=0.0)
    assert params.gamma == 0.0
    with pytest.raises(ValueError, match="gamma must be positive"):
        FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    with pytest.raises(ValueError, match="gamma must be positive"):
        BNState.make(grid, 0.5, 1.2, 0.8, 0.0, params)


def test_state_validation():
    # a density at or below zero is a state outside the rails: the run
    # loop's check refuses it at t = 0, as it refuses any other
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=1e-2, bounds=(0.5, 2.0))
    for value in (-1.0, 0.0):
        state = FluidState.make(grid, grid.constant(value), grid.zeros(),
                                params)
        with pytest.raises(BoundsError, match="guard rail violated at t = 0"):
            nsk_run(state, params, config)
    # in a batch, such a row fails alone
    batch = FluidState.make(grid, [grid.constant(1.0), grid.constant(-1.0)],
                            np.zeros((2, grid.n)), params)
    runs = nsk_run(batch, params, config)
    assert isinstance(runs[1], BoundsError)
    assert "guard rail violated at t = 0" in str(runs[1])
    assert runs[0].records.t[-1] == pytest.approx(1e-2)
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
    with pytest.raises(ValueError, match="n_osc must be an integer, got 1.5"):
        make_oscillating_initial(grid, 0.8, 1.6, 0.5, n_osc=1.5, delta=0.1)
    # not an OverflowError for inf, nor numpy's own NaN message
    for n_osc in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError,
                           match=f"n_osc must be an integer, got {n_osc}"):
            make_oscillating_initial(grid, 0.8, 1.6, 0.5, n_osc=n_osc,
                                     delta=0.1)
    # the profile builder knows no rails: the run loop's check of the
    # initial state refuses a profile outside them
    params = poly_params()
    rho0 = make_oscillating_initial(grid, 0.8, 1.6, 0.5, n_osc=1, delta=0.1)
    assert np.min(rho0) == 0.8 and np.max(rho0) == 1.6
    config = SolverConfig(dt=1e-3, t_end=0.01, bounds=(1.0, 2.0))
    with pytest.raises(BoundsError, match="guard rail violated at t = 0:"):
        nsk_run(FluidState.make(grid, rho0, grid.zeros(), params), params,
                config)


def test_constant_state_is_stationary():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.05, bounds=(0.1, 10.0))
    state = FluidState.make(grid, grid.constant(1.3), grid.constant(0.7), params)
    for _ in range(30):
        state = nsk_step(state, params, config, config.dt)
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
    traj = nsk_run(state, params, config)
    assert traj.n_steps >= 1000
    assert np.max(np.abs(traj.records.mass - m0)) <= 1e-12


def momentum_drift(n, dt, t_end=0.05):
    grid = PeriodicGrid(n)
    params = poly_params()
    config = SolverConfig(dt=dt, t_end=t_end, bounds=(0.05, 20.0), upwind=0.0,
                          snapshot_every=10 ** 9)
    rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    state = FluidState.make(grid, rho0, grid.zeros(), params)
    traj = nsk_run(state, params, config)
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
    energies = traj.records.energy
    assert np.max(np.abs(energies - energies[0])) < 1e-12
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
    report = balance_check(traj.records)
    assert report["energy_ok"], report
    e0 = traj.records.energy[0]
    assert traj.records.energy[-1] <= e0 * (1.0 + 1e-6)


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


@pytest.mark.parametrize("solver", ["nsk", "bn"])
def test_blow_up_raises_bounds_error(solver):
    # u = 1e307 sin(2 pi x) overflows in the first step; the run loop
    # reports it
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.1, bounds=(0.05, 20.0))
    u0 = 1e307 * np.sin(2 * np.pi * grid.x)
    if solver == "nsk":
        run, state = nsk_run, FluidState.make(grid, grid.constant(1.2), u0,
                                              params)
    else:
        run, state = bn_run, BNState.make(grid, 0.5, 1.2, 1.0, u0, params)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(BoundsError, match="non-finite"):
        run(state, params, config)


def test_inadmissible_eos_refused():
    grid = PeriodicGrid(64)
    eos = VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=1e-12)
    params = PhysicalParams(mu=0.1, kappa=0.02, eos=eos)
    config = SolverConfig(dt=1e-3, t_end=0.01, bounds=(0.1, 0.9))
    state = FluidState.make(grid, grid.constant(0.5), grid.zeros(), params)
    with pytest.raises(AdmissibilityError):
        nsk_run(state, params, config)


def test_original_form_agrees_to_second_order():
    # gamma rho (c)_x with artificial pressure vs gamma rho (c - rho)_x with
    # the bare pressure: algebraically identical in the continuum.  The
    # original form is the momentum update called with c - rho and P(rho)
    diffs = []
    for n, dt in ((64, 1e-4), (128, 2.5e-5)):
        grid = PeriodicGrid(n)
        params = poly_params()
        config = SolverConfig(dt=dt, t_end=0.02, upwind=0.0)
        rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
        art = orig = FluidState.make(grid, rho0, grid.zeros(), params)
        for _ in range(round(config.t_end / dt)):
            art = nsk_step(art, params, config, dt)
            rho = nsk.continuity_update(grid, orig.rho, orig.u, dt, 0.0)
            u = nsk.momentum_update(grid, rho, orig.rho, orig.u,
                                    nsk.central_c_x(grid, orig.c - orig.rho),
                                    params, dt,
                                    params.eos.pressure(orig.rho))
            orig = FluidState.make(grid, rho, u, params, orig.t + dt)
        diffs.append(np.max(np.abs(art.rho - orig.rho)))
    assert diffs[1] < diffs[0]
    assert diffs[0] / diffs[1] > 3.0


def test_single_final_snapshot_at_end_tolerance():
    # ten steps end 5e-13 short of t_end: the loop takes one more short
    # step, and only the state that ends the run is a final snapshot
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=1e-3 - 5e-14, t_end=0.01, bounds=(0.05, 20.0),
                          snapshot_every=3)
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    traj = nsk_run(state, params, config)
    times = traj.snapshot_times
    assert traj.n_steps == 11
    assert np.sum(times >= config.t_end - 1e-12) == 1
    assert times[-1] == pytest.approx(config.t_end, abs=1e-14)


def chunk_run(solver, bounds=(0.05, 20.0)):
    """A run of 2.5 record chunks, every state a snapshot, whose peak
    density and sup |c_x| are reached inside the second chunk."""
    grid = PeriodicGrid(128)
    params = poly_params()
    chunk = max(1, nsk._CHUNK_ELEMENTS // grid.n)
    config = SolverConfig(dt=1e-3, t_end=1e-3 * (2 * chunk + chunk // 2 + 1),
                          bounds=bounds)
    rho0 = 1.0 + 0.1 * np.cos(2 * np.pi * grid.x)
    u0 = -0.5 * np.sin(2 * np.pi * grid.x)
    if solver == "nsk":
        state = FluidState.make(grid, rho0, u0, params)
        return chunk, nsk_run(state, params, config), lambda s: s.rho[None]
    state = BNState.make(grid, 0.3, rho0, 1.1 * rho0, u0, params)
    return chunk, bn_run(state, params, config), lambda s: s.rho


@pytest.mark.parametrize("solver", ["nsk", "bn"])
def test_chunked_records_equal_per_state_records(solver):
    chunk, traj, _ = chunk_run(solver)
    assert traj.n_steps % chunk != 0 and traj.n_steps > 2 * chunk
    table = record_table(traj.records)
    assert table.shape == (len(RECORD_COLUMNS), traj.n_steps + 1)
    assert len(traj.snapshots) == traj.n_steps + 1
    for k, state in enumerate(traj.snapshots):
        expected = record_table(compute_record(state, traj.params))
        assert table[:, k].tobytes() == expected.tobytes()
    # sup |c_x| of the central c_x, the one the coupling force applies
    dxc = [max_norm(derivative(s.grid, s.c, 1, "central"))
           for s in traj.snapshots]
    assert 0 < int(np.argmax(dxc)) - chunk < chunk - 1
    assert traj.dxc_sup == max(dxc)


@pytest.mark.parametrize("solver", ["nsk", "bn"])
def test_rail_failure_inside_a_chunk(solver):
    # the upper rail lies just below the peak railed density, which the
    # run first reaches inside the second chunk
    chunk, traj, rails = chunk_run(solver)
    peaks = [max(float(np.max(f)) for f in rails(s)) for s in traj.snapshots]
    fail = int(np.argmax(peaks))
    assert 0 < fail - chunk < chunk - 1
    bounds = (0.05, 0.5 * (peaks[fail] + max(peaks[:fail])))
    with pytest.raises(BoundsError) as expected:
        nsk._check_state(traj.snapshots[fail], rails(traj.snapshots[fail]),
                         bounds)
    with pytest.raises(BoundsError) as exc:
        chunk_run(solver, bounds)
    assert str(exc.value) == str(expected.value)


def batch_and_own_runs(amplitudes, bounds=(0.05, 20.0)):
    """One batch run of a row per amplitude and each row's own run (or the
    BoundsError that ended it), over 2.5 record chunks of the batch; chunk
    is the number of batch states that a chunk's row bound holds."""
    grid = PeriodicGrid(128)
    params = poly_params()
    chunk = max(1, nsk._CHUNK_ELEMENTS // grid.n) // len(amplitudes)
    config = SolverConfig(dt=1e-3, t_end=1e-3 * (2 * chunk + chunk // 2 + 1),
                          bounds=bounds, snapshot_every=7)
    rho0 = np.stack([1.0 + a * np.cos(2 * np.pi * grid.x) for a in amplitudes])
    u0 = np.stack([-0.5 * np.sin(2 * np.pi * grid.x + a) for a in amplitudes])
    own = []
    for rho, u in zip(rho0, u0):
        try:
            own.append(nsk_run(FluidState.make(grid, rho, u, params), params,
                               config))
        except BoundsError as exc:
            own.append(exc)
    batch = nsk_run(FluidState.make(grid, rho0, u0, params), params, config)
    return chunk, batch, own


def assert_same_run(row, own):
    assert (row.n_steps, row.dxc_sup, row.cfl_limited) == (
        own.n_steps, own.dxc_sup, own.cfl_limited)
    assert (record_table(row.records).tobytes()
            == record_table(own.records).tobytes())
    assert len(row.snapshots) == len(own.snapshots)
    for s, t in zip(row.snapshots, own.snapshots):
        assert s.t == t.t
        for name in ("rho", "u", "c"):
            assert getattr(s, name).tobytes() == getattr(t, name).tobytes()


def record_table(records):
    """The columns of a record as one array: (11,) for a single record,
    (11, K) for a table of K rows."""
    return np.array(dataclasses.astuple(records))


def test_batch_rows_equal_their_own_runs():
    chunk, batch, own = batch_and_own_runs((0.05, 0.2, 0.1))
    assert len(batch) == 3
    for row, run in zip(batch, own):
        assert run.n_steps > 2 * chunk and run.n_steps % chunk != 0
        assert run.records.t.shape == (run.n_steps + 1,)
        assert not run.cfl_limited
        assert_same_run(row, run)


def test_batch_row_failing_mid_run_fails_alone():
    # the upper rail 1.34 lies below the peak density of the second row
    # (1.37) and above its initial maximum 1.2 and the other rows' peaks (at
    # most 1.31): the second row leaves the batch inside the third record
    # chunk, and the rows held for that chunk's records are uneven
    chunk, batch, own = batch_and_own_runs((0.05, 0.2, 0.1),
                                           bounds=(0.05, 1.34))
    assert isinstance(own[1], BoundsError) and isinstance(batch[1], BoundsError)
    t_fail = float(re.search(r"guard rail violated at t = (\S+):",
                             str(own[1])).group(1))
    assert 2 * chunk < round(t_fail / 1e-3) < 3 * chunk
    assert str(batch[1]) == str(own[1])
    for j in (0, 2):
        assert_same_run(batch[j], own[j])


def test_record_chunks_are_bounded_by_rows(monkeypatch):
    # a 4-row batch at n = 2048 fills the chunk's row bound 8192 // n = 4
    # with one state, so no record stack holds more than 4 rows
    stacked_rows = []

    def compute_record(state, params, fields=None):
        stacked_rows.append(len(state.rho))
        return real_compute_record(state, params, fields)

    real_compute_record = nsk.diagnostics.compute_record
    monkeypatch.setattr(nsk.diagnostics, "compute_record", compute_record)
    grid = PeriodicGrid(2048)
    params = poly_params()
    rho0 = np.stack([1.0 + a * np.cos(2 * np.pi * grid.x)
                     for a in (0.05, 0.1, 0.15, 0.2)])
    config = SolverConfig(dt=1e-4, t_end=6e-4, bounds=(0.05, 20.0))
    nsk_run(FluidState.make(grid, rho0, np.zeros_like(rho0), params), params,
            config)
    assert stacked_rows == [4] * 7


@pytest.mark.parametrize("solver", ["nsk", "bn"])
def test_fft_calls_per_step_and_record_chunk(solver, monkeypatch):
    # the initial state's and each step's Helmholtz solve take one rfft and
    # one irfft; each record chunk takes five: two rffts for the Sigma
    # gradient, one for c_h2 and an rfft and an irfft for the 1/sqrt(rho)
    # gradient.  sup |c_x| reads the chunk's central c_x and takes none
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
    chunk, traj, _ = chunk_run(solver)
    chunks = -(-(traj.n_steps + 1) // chunk)
    assert chunks == 3
    assert len(calls) == 2 + 2 * traj.n_steps + 5 * chunks
    assert calls.count("irfft") == 1 + traj.n_steps + chunks


@pytest.mark.parametrize("solver", ["nsk", "batch", "bn"])
def test_one_pressure_per_checked_state(solver, monkeypatch):
    # the run loop forms each checked state's mixture pressure once, for
    # its step and its record: one law call per state for NSK (a batch
    # state's rows in one call), and for BN one mixture_fields call per
    # state on top of the relaxation's two law calls per step
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    law = type(poly_params().eos)
    monkeypatch.setattr(law, "artificial_pressure",
                        counted(law.artificial_pressure))
    monkeypatch.setattr(bn, "mixture_fields", counted(bn.mixture_fields))
    if solver == "batch":
        grid = PeriodicGrid(64)
        params = poly_params()
        rho0 = np.stack([1.0 + a * np.cos(2 * np.pi * grid.x)
                         for a in (0.05, 0.1, 0.15)])
        config = SolverConfig(dt=1e-3, t_end=2e-2, bounds=(0.05, 20.0))
        state = FluidState.make(grid, rho0, np.zeros_like(rho0), params)
        n_steps = {run.n_steps for run in nsk_run(state, params, config)}.pop()
    else:
        n_steps = chunk_run(solver)[1].n_steps
    states = n_steps + 1
    if solver == "bn":
        assert calls.count("mixture_fields") == states
        assert calls.count("artificial_pressure") == states + 2 * n_steps
    else:
        assert calls.count("mixture_fields") == 0
        assert calls.count("artificial_pressure") == states


def test_batch_shares_one_step_length():
    # the second row's velocity puts its CFL bound below dt: every row
    # takes the shortened steps, and only that row is flagged
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=5e-3, bounds=(0.05, 20.0))
    u0 = np.stack([0.1 * np.sin(2 * np.pi * grid.x),
                   20.0 * np.sin(2 * np.pi * grid.x)])
    rho0 = np.ones_like(u0)
    batch = nsk_run(FluidState.make(grid, rho0, u0, params), params, config)
    assert [run.cfl_limited for run in batch] == [False, True]
    assert batch[0].n_steps == batch[1].n_steps > 5
    assert np.array_equal(batch[0].snapshot_times, batch[1].snapshot_times)
    own = nsk_run(FluidState.make(grid, rho0[1], u0[1], params), params,
                  config)
    assert own.n_steps == batch[1].n_steps
    assert_same_run(batch[1], own)


def step_length_per_field(state, fields, params, config, remaining):
    """_step_length as it was with the railed densities as a tuple of
    fields: one field alone, and the phase pair of a BN state packed into
    a new stack."""
    if len(fields) == 1:
        smax = sound_speed_max(fields[0], state.u, params.eos)
    else:
        smax = sound_speed_max(np.array(fields), state.u,
                               params.eos).max(axis=0)
    with np.errstate(divide="ignore"):
        cfl_dt = config.cfl * state.grid.h / np.asarray(smax)
    return min(config.dt, remaining, float(cfl_dt.min())), cfl_dt < config.dt


def test_step_length_equals_its_per_field_form():
    # bitwise, with the limited flags: a state, a batch whose third row's
    # CFL bound lies below dt and a BN state, their railed densities
    # stacked as the run loop stacks them
    grid = PeriodicGrid(64)
    params = PhysicalParams(mu=0.1, kappa=0.1,
                            eos=VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0))
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.5, 2.0, (3, grid.n))
    u = rng.uniform(-1.0, 1.0, (3, grid.n)) * np.array([[0.1], [0.2], [40.0]])
    fluid = FluidState(grid, 0.0, rho[0], u[0], rho[0])
    batch = FluidState(grid, 0.0, rho, u, rho)
    alpha_p = rng.uniform(0.2, 0.8, grid.n)
    two_phase = BNState(grid, 0.0, np.array((alpha_p, 1.0 - alpha_p)),
                        rho[1:], u[1], rho[0])
    config = SolverConfig(dt=1e-3, t_end=1.0)
    assert [bool(step_length_per_field(row, (row.rho,), params, config,
                                       1.0)[1])
            for row in nsk._rows(batch)] == [False, False, True]
    cases = [(fluid, fluid.rho[None], (fluid.rho,)),
             (batch, batch.rho[None], (batch.rho,)),
             (two_phase, two_phase.rho,
              (two_phase.rho_p, two_phase.rho_m))]
    for state, railed, fields in cases:
        for remaining in (1.0, 1e-5):
            dt, limited = nsk._step_length(state, railed, params, config,
                                           remaining)
            dt_0, limited_0 = step_length_per_field(state, fields, params,
                                                    config, remaining)
            assert np.float64(dt).tobytes() == np.float64(dt_0).tobytes()
            assert limited.shape == limited_0.shape
            assert np.array_equal(limited, limited_0)


def test_run_loop_hands_the_law_the_states_own_density_stack():
    # a wrapping law records what it is called on: each state's mixture
    # pressure and its step length read the state's own rho stack, the
    # BN state's (2, n) stack itself and a view of the flow state's rho,
    # not a packed copy
    seen = {"artificial_pressure": [], "d_artificial_pressure": []}

    class Recording(PolytropicEOS):
        def artificial_pressure(self, r):
            seen["artificial_pressure"].append(r)
            return super().artificial_pressure(r)

        def d_artificial_pressure(self, r):
            seen["d_artificial_pressure"].append(r)
            return super().d_artificial_pressure(r)

    grid = PeriodicGrid(32)
    params = PhysicalParams(mu=0.1, kappa=0.02,
                            eos=Recording(1.0, 2.0, 1.0))
    config = SolverConfig(dt=1e-3, t_end=5e-3, bounds=(0.05, 20.0))
    wave = np.sin(2 * np.pi * grid.x)
    for solver in ("bn", "nsk"):
        if solver == "bn":
            state = BNState.make(grid, 0.5 + 0.2 * wave, 1.0 + 0.2 * wave,
                                 1.2 - 0.1 * wave, 0.3 * wave, params)
            traj = bn_run(state, params, config)
        else:
            state = FluidState.make(grid, 1.0 + 0.2 * wave, 0.3 * wave,
                                    params)
            traj = nsk_run(state, params, config)
        assert len(traj.snapshots) == traj.n_steps + 1 > 2
        for k, s in enumerate(traj.snapshots):
            assert any(r is s.rho for r in seen["artificial_pressure"])
            if k < traj.n_steps:   # the final state takes no step
                assert any(r is s.rho if solver == "bn" else r.base is s.rho
                           for r in seen["d_artificial_pressure"])
        seen["artificial_pressure"].clear()
        seen["d_artificial_pressure"].clear()


def test_batch_row_failing_after_cfl_limited_steps_keeps_its_flag():
    # the second row's velocity puts its CFL bound below dt and compresses
    # it past the upper rail 1.2 mid-run: its error carries the flag, and
    # the first row goes on with the shortened steps
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=5e-3, bounds=(0.05, 1.2))
    u0 = np.stack([0.1 * np.sin(2 * np.pi * grid.x),
                   20.0 * np.sin(2 * np.pi * grid.x)])
    rho0 = np.ones_like(u0)
    batch = nsk_run(FluidState.make(grid, rho0, u0, params), params, config)
    with pytest.raises(BoundsError) as own:
        nsk_run(FluidState.make(grid, rho0[1], u0[1], params), params, config)
    assert isinstance(batch[1], BoundsError) and batch[1].cfl_limited
    assert str(batch[1]) == str(own.value)
    assert float(re.search(r"at t = (\S+):", str(own.value)).group(1)) > 0.0
    assert not batch[0].cfl_limited
    assert batch[0].snapshot_times[-1] == pytest.approx(5e-3, abs=1e-12)
    assert batch[0].n_steps > 5


def check_state_oracle(state, fields, bounds):
    """_check_state written out as it was before its one-reduction form:
    a finite test of every element of each field, then np.min and np.max
    of each railed field."""
    if not all(np.all(np.isfinite(f)) for f in (*fields, state.u, state.c)):
        raise BoundsError(f"non-finite field at t = {state.t:.6g}")
    lo, hi = bounds
    for rho in fields:
        rmin, rmax = float(np.min(rho)), float(np.max(rho))
        if rmin < lo or rmax > hi:
            raise BoundsError(
                f"density guard rail violated at t = {state.t:.6g}: "
                f"range [{rmin:.6g}, {rmax:.6g}] outside [{lo}, {hi}]")


def failure(check, *args):
    """The message of the BoundsError that check(*args) raises, else None."""
    try:
        check(*args)
    except BoundsError as exc:
        return str(exc)
    return None


CHECK_BOUNDS = (0.5, 2.0)
# one node's value: NaN, +-inf, each rail crossed from below and from
# above, and a value far outside the rails, which only the railed fields
# refuse
CHECK_VALUES = (np.nan, np.inf, -np.inf,
                np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
                np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, 3.0), 1e6)


def checked_states():
    """A clean NSK state, BN state and 3-row NSK batch at t = 0.123456789,
    with their railed densities, as the run loop stacks them."""
    grid = PeriodicGrid(16)
    wave = np.sin(2 * np.pi * grid.x)
    rho = 1.0 + 0.3 * wave
    nsk_state = FluidState(grid, 0.123456789, rho, wave, rho.copy())
    alpha = 0.5 + 0.2 * wave
    bn_state = BNState(grid, 0.123456789, np.array((alpha, 1.0 - alpha)),
                       np.array((rho, 1.2 - 0.2 * wave)), wave, rho.copy())
    rows = np.stack([rho, rho[::-1], 1.5 + 0.1 * wave])
    batch = FluidState(grid, 0.123456789, rows, -rows, rows.copy())
    return ((nsk_state, lambda s: s.rho[None]),
            (bn_state, lambda s: s.rho),
            (batch, lambda s: s.rho[None]))


def corrupted(state, changes):
    """A copy of state with node (k, or row and k) of field name set to
    value, for each (name, index, value) of changes."""
    fields = {f.name: getattr(state, f.name).copy()
              for f in dataclasses.fields(state)[2:]}
    for name, index, value in changes:
        fields[name][index] = value
    return dataclasses.replace(state, **fields)


def test_state_check_fails_as_its_written_out_form():
    # every field of each state, each row of a phase stack apart, NaN,
    # +-inf and each rail crossed, alone and in pairs of fields (the check
    # order picks the message): the same BoundsError text or None, so the
    # CLI's exit-4 texts stay
    cases = 0
    for state, rails in checked_states()[:2]:
        nodes = [(f.name, (*row, 3)) for f in dataclasses.fields(state)[2:]
                 for row in np.ndindex(getattr(state, f.name).shape[:-1])]
        singles = [(name, node, value) for name, node in nodes
                   for value in CHECK_VALUES]
        changes = [[a] for a in singles] + [
            [a, b] for a in singles for b in singles[::7] if a[:2] != b[:2]]
        for change in changes:
            bad = corrupted(state, change)
            expected = failure(check_state_oracle, bad, rails(bad),
                               CHECK_BOUNDS)
            assert failure(nsk._check_state, bad, rails(bad),
                           CHECK_BOUNDS) == expected
            cases += expected is not None
    assert cases > 100


def test_batch_row_checks_fail_as_their_written_out_form():
    # a batch with two corrupted rows: the batch check fails as its
    # written-out form does, and _drop_failed_rows gives each failed row
    # the error its written-out check raises and keeps the others
    batch, rails = checked_states()[2]
    for name in ("rho", "u", "c"):
        for value, other in zip(CHECK_VALUES, CHECK_VALUES[::-1]):
            bad = corrupted(batch, [(name, (1, 5), value),
                                    ("rho", (2, 9), other)])
            assert (failure(nsk._check_state, bad, rails(bad), CHECK_BOUNDS)
                    == failure(check_state_oracle, bad, rails(bad),
                               CHECK_BOUNDS))
            results = ["run 0", "run 1", "run 2"]
            kept, members = nsk._drop_failed_rows(
                bad, [0, 1, 2], rails, CHECK_BOUNDS, results,
                np.zeros(3, dtype=bool))
            for j, row in enumerate(nsk._rows(bad)):
                expected = failure(check_state_oracle, row, rails(row),
                                   CHECK_BOUNDS)
                got = results[j]
                assert (None if got == f"run {j}" else str(got)) == expected
                assert (j in members) == (expected is None)
            assert np.array_equal(kept.rho, bad.rho[members])


def test_step_kernels_make_no_roll_call(monkeypatch):
    # the flux kernels and the run loop's central c_x shift by slicing;
    # the records still reach np.roll through torus.derivative's central
    # backend, two calls each for the dissipation and the BD drift per
    # record chunk, which keep it until ROADMAP 1b drops numpy.roll from
    # the benchmark tracer's REACHES
    calls = []
    roll = np.roll

    def counting_roll(*args, **kwargs):
        calls.append(args)
        return roll(*args, **kwargs)

    monkeypatch.setattr(np, "roll", counting_roll)
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=1e-2)
    wave = np.sin(2 * np.pi * grid.x)
    fluid = FluidState.make(grid, 1.0 + 0.2 * wave, 0.3 * wave, params)
    two_phase = BNState.make(grid, 0.5 + 0.2 * wave, 1.0 + 0.2 * wave,
                             1.2 - 0.1 * wave, 0.3 * wave, params)
    for state in (fluid, two_phase):
        state.step_fields(params.eos)
    nsk_step(fluid, params, config, 1e-3)
    bn_step(two_phase, params, config, 1e-3)
    assert calls == []
    for solver in ("nsk", "bn"):
        chunk, traj, _ = chunk_run(solver)
        chunks = -(-(traj.n_steps + 1) // chunk)
        assert len(calls) == 4 * chunks
        calls.clear()
    compute_record(fluid, params)
    assert len(calls) > 0


@pytest.mark.parametrize("solver", ["nsk", "bn"])
def test_step_given_its_fields_is_the_standalone_step(solver):
    # the run loop hands a step the fields it formed for the state's
    # record; the step is bitwise the one that forms them itself, and the
    # one handed the fields written out: the mixture pressure P_art(rho), or
    # alpha_p P_art(rho_p) + alpha_m P_art(rho_m) for BN, and c_x through
    # torus.derivative's np.roll form
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=1e-2)
    wave = np.sin(2 * np.pi * grid.x)
    if solver == "nsk":
        state, step = FluidState.make(grid, 1.0 + 0.2 * wave, 0.3 * wave,
                                      params), nsk_step
    else:
        state, step = BNState.make(grid, 0.5 + 0.2 * wave, 1.0 + 0.2 * wave,
                                   1.2 - 0.1 * wave, 0.3 * wave,
                                   params), bn_step
    law = params.eos.artificial_pressure
    pressure = (law(state.rho) if solver == "nsk" else
                state.alpha_p * law(state.rho_p)
                + state.alpha_m * law(state.rho_m))
    before = (state.mixture_density, pressure,
              derivative(grid, state.c, 1, "central"))
    alone = step(state, params, config, 1e-3)
    for fields in (state.step_fields(params.eos), before):
        given = step(state, params, config, 1e-3, fields=fields)
        for f in dataclasses.fields(alone)[1:]:
            assert (np.asarray(getattr(given, f.name)).tobytes()
                    == np.asarray(getattr(alone, f.name)).tobytes())


def test_sound_speed_max_equals_its_written_out_form():
    # bitwise: max(|u| + sqrt(max(P_art'(rho), 0))) along the last axis, on
    # one field, a phase stack with one velocity, a batch and a density scan
    # with a scalar speed; at gamma = 0 the law has a spinodal, where
    # P_art' < 0 and the clamp decides
    rng = np.random.default_rng(9)
    for eos in (VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0),
                VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 0.0)):
        for rho, u in (
                (rng.uniform(0.1, 2.5, 64), rng.uniform(-2.0, 2.0, 64)),
                (rng.uniform(0.1, 2.5, (2, 64)), rng.uniform(-2.0, 2.0, 64)),
                (rng.uniform(0.1, 2.5, (3, 64)),
                 rng.uniform(-2.0, 2.0, (3, 64))),
                (np.linspace(0.1, 2.5, 257), 0.3)):
            expected = np.max(np.abs(u) + np.sqrt(np.maximum(
                eos.d_artificial_pressure(rho), 0.0)), axis=-1)
            got = sound_speed_max(rho, u, eos)
            assert np.asarray(got).tobytes() == expected.tobytes()
