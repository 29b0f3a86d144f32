from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from phasekit import bn, harness
from phasekit.bn import BNState, bn_run
from phasekit.diagnostics import (RECORD_COLUMNS, DiagnosticsRecord,
                                  balance_check, bd_entropy, compute_record,
                                  effective_viscous_flux, energy)
from phasekit.eos import PolytropicEOS, VanDerWaalsEOS
from phasekit import nsk
from phasekit.nsk import FluidState, PhysicalParams, SolverConfig, nsk_run
from phasekit.torus import (TWO_PI, PeriodicGrid, derivative, l2_norm, mean,
                            sobolev_norm)


def poly_params(mu=0.1, kappa=0.02, gamma=1.0):
    return PhysicalParams(mu=mu, kappa=kappa,
                          eos=PolytropicEOS(1.0, 2.0, gamma))


def test_energy_of_reference_constant_state():
    # W(1) = 0 gauge makes the all-ones state a zero of the energy
    grid = PeriodicGrid(64)
    params = poly_params()
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    assert energy(state, params) == pytest.approx(0.0, abs=1e-14)


def test_energy_kinetic_only():
    grid = PeriodicGrid(64)
    params = poly_params()
    state = FluidState.make(grid, grid.constant(1.0), grid.constant(2.0), params)
    assert energy(state, params) == pytest.approx(2.0, abs=1e-13)


def test_energy_matches_fine_grid_quadrature():
    # refinement oracle: N -> 8N spectral-resolution evaluation
    params = poly_params()
    energies = {}
    for n in (64, 128, 512):
        grid = PeriodicGrid(n)
        rho = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
        state = FluidState.make(grid, rho, grid.zeros(), params)
        energies[n] = energy(state, params)
    ref = energies[512]
    assert abs(energies[64] - ref) / abs(ref) < 1e-2
    ratio = abs(energies[64] - ref) / abs(energies[128] - ref)
    assert ratio > 3.0  # O(h^2) convergence of the FD-backend energy


def test_energy_rejects_nonpositive_density():
    grid = PeriodicGrid(32)
    params = poly_params()
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    state.rho = state.rho - 2.0
    with pytest.raises(ValueError):
        energy(state, params)


def test_bd_entropy_constant_state():
    grid = PeriodicGrid(64)
    params = poly_params()
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    assert bd_entropy(state, params) == pytest.approx(0.0, abs=1e-14)


def test_bd_entropy_drift_identity():
    # rho |(phi(rho))_x|^2 = 4 mu^2 |(1/sqrt(rho))_x|^2, both sides built
    # from their own spectral derivatives
    grid = PeriodicGrid(128)
    mu = 0.37
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    phi = mu * (1.0 - 1.0 / rho)
    lhs = rho * derivative(grid, phi, 1, "spectral") ** 2
    rhs = 4.0 * mu ** 2 * derivative(grid, 1.0 / np.sqrt(rho), 1, "spectral") ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_bd_entropy_quadratic_in_mu_at_rest():
    grid = PeriodicGrid(128)
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    gaps = []
    for mu in (0.1, 0.2):
        params = poly_params(mu=mu)
        state = FluidState.make(grid, rho, grid.zeros(), params)
        gaps.append(bd_entropy(state, params) - energy(state, params))
    assert gaps[1] / gaps[0] == pytest.approx(4.0, rel=1e-10)


def test_effective_viscous_flux_examples():
    grid = PeriodicGrid(128)
    params = PhysicalParams(mu=1.0, kappa=1.0,
                            eos=PolytropicEOS(1.0, 2.0, 1e-12))
    state = FluidState.make(grid, grid.constant(1.3), grid.constant(0.7), params)
    sigma = effective_viscous_flux(state, params)
    expect = -float(params.eos.artificial_pressure(np.array(1.3)))
    assert np.max(np.abs(sigma - expect)) < 1e-12
    assert np.max(np.abs(derivative(grid, sigma, 1, "spectral"))) < 1e-10

    state2 = FluidState.make(grid, grid.constant(1.0),
                             np.sin(2 * np.pi * grid.x) / (2 * np.pi), params)
    sigma2 = effective_viscous_flux(state2, params)
    expect2 = np.cos(2 * np.pi * grid.x) - 1.0
    assert np.max(np.abs(sigma2 - expect2)) < 1e-10


def test_effective_viscous_flux_forms_no_c_x(monkeypatch):
    # Sigma reads the state's (mixture density, mixture pressure) pair,
    # bitwise the pressure of its step fields, and forms no central c_x:
    # not per state, nor per snapshot of kinetic_consistency
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=4e-3, bounds=(0.05, 20.0))
    wave = np.sin(2 * np.pi * grid.x)
    runs = [nsk_run(FluidState.make(grid, 1.0 + 0.2 * wave, 0.3 * wave,
                                    params), params, config),
            bn_run(BNState.make(grid, 0.5 + 0.2 * wave, 1.0 + 0.2 * wave,
                                1.2 - 0.1 * wave, 0.3 * wave, params),
                   params, config)]
    expected = [[params.mu * derivative(grid, s.u, 1, "spectral")
                 - s.step_fields(params.eos)[1] for s in run.snapshots]
                for run in runs]
    calls, central_c_x = [], nsk.central_c_x

    def counted(grid, c):
        calls.append(c)
        return central_c_x(grid, c)

    monkeypatch.setattr(nsk, "central_c_x", counted)
    monkeypatch.setattr(bn, "central_c_x", counted)
    for run, sigmas in zip(runs, expected):
        for state, sigma in zip(run.snapshots, sigmas):
            assert same_bits(effective_viscous_flux(state, params), sigma)
        harness.kinetic_consistency(run)
    assert calls == []


def test_record_column_order():
    grid = PeriodicGrid(64)
    params = poly_params()
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    rec = compute_record(state, params)
    assert RECORD_COLUMNS == ("t", "mass", "momentum", "energy", "dissipation",
                              "bd_entropy", "rho_min", "rho_max",
                              "sigma_grad_l2", "c_h2", "inv_sqrt_rho_grad")
    assert astuple(rec)[0] == rec.t == 0.0
    assert rec.rho_min == rec.rho_max == 1.0


def test_balance_check_stationary():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.02, bounds=(0.1, 10.0))
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    traj = nsk_run(state, params, config)
    report = balance_check(traj.records)
    assert report["mass_drift"] <= 1e-12
    assert report["momentum_drift"] <= 1e-12
    assert report["energy_residual"] <= 1e-12
    assert report["ok"]


def test_balance_check_fails_on_mass_or_energy_only():
    # momentum drift is reported but not checked; a mass or an energy
    # violation still fails the report
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.02, bounds=(0.1, 10.0))
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    records = nsk_run(state, params, config).records
    report = balance_check(records)
    assert "momentum_ok" not in report and report["ok"]

    def last_set(name, value):
        column = getattr(records, name).copy()
        column[-1] = value
        return replace(records, **{name: column})

    assert balance_check(last_set("momentum", 1.0))["ok"]
    for bad in (last_set("mass", records.mass[-1] + 1e-9),
                last_set("energy", records.energy[-1] + 1e-3)):
        report = balance_check(bad)
        assert not report["ok"]
        assert not (report["mass_ok"] and report["energy_ok"])


def test_record_from_a_given_central_c_x_is_the_record():
    # the run loop hands each chunk's step fields to compute_record, which
    # reads them without writing them: the record is the one compute_record
    # forms alone, bitwise, for a single-phase and a two-phase state and a
    # stack of each, and for the fields formed with the pressure and c_x
    # written out (c_x through torus.derivative's np.roll form)
    grid = PeriodicGrid(64)
    params = poly_params()
    rng = np.random.default_rng(5)
    states = [FluidState.make(grid, rng.uniform(0.5, 1.5, grid.n),
                              rng.uniform(-1.0, 1.0, grid.n), params)
              for _ in range(3)]
    two_phase = [BNState.make(grid, rng.uniform(0.2, 0.8, grid.n),
                              rng.uniform(0.5, 1.5, grid.n),
                              rng.uniform(0.5, 1.5, grid.n),
                              rng.uniform(-1.0, 1.0, grid.n), params)
                 for _ in range(3)]
    for state in (states[0], stack(states), two_phase[0], stack(two_phase)):
        alone = np.array(astuple(compute_record(state, params))).tobytes()
        for given in (state.step_fields(params.eos),
                      (state.mixture_density,
                       mixture_pressure(state, params.eos),
                       derivative(grid, state.c, 1, "central"))):
            for f in given:
                f.flags.writeable = False
            record = compute_record(state, params, given)
            assert np.array(astuple(record)).tobytes() == alone


def table(record):
    """A record as its table of one row per column, a column of one value
    (t of a batch state) filling its row, as the run loop fills it."""
    columns = astuple(record)
    rows = max(np.size(v) for v in columns)
    return np.array([np.broadcast_to(v, (rows,)) for v in columns])


@pytest.mark.parametrize("n", [64, 2048])
def test_chunk_record_is_the_stacked_states_record(n, record_chunk):
    # the run loop records a chunk from its states' step fields, several
    # states through the rows copied into its record block: bitwise the
    # record of the stacked states, for two-phase states, for a chunk of
    # one state (read uncopied) and of several, and for a batch state's
    # rows; the chunk's last row is each row's sup |c_x|
    for params, stacked in record_states(n)[1::2]:
        grid = stacked.grid
        batch = replace(stacked, t=0.5)   # one t, as a batch run's states
        rng = np.random.default_rng(n)
        alpha = 0.5 + 0.3 * np.sin(2 * np.pi * grid.x)
        two_phase = [BNState.make(grid, alpha, 0.6 + 0.1 * rng.uniform(size=n),
                                  1.2 + 0.5 * rng.uniform(size=n),
                                  0.1 * rng.standard_normal(n), params,
                                  t=0.25 * k)
                     for k in range(3)]
        rows = nsk._rows(batch)
        for states, oracle in (
                (two_phase, stack(two_phase)),
                (two_phase[:1], two_phase[0]),
                (rows, batch),
                ([batch], batch),
                ([batch, rows[0]], stack([batch, rows[0]]))):
            chunk = record_chunk(states, params)
            assert chunk.shape == (len(RECORD_COLUMNS) + 1,
                                   len(np.atleast_2d(oracle.u)))
            assert same_bits(chunk[:-1],
                             table(compute_record(oracle, params)))
            assert same_bits(chunk[-1], np.max(np.abs(
                derivative(grid, oracle.c, 1, "central")), axis=-1))


def test_balance_check_needs_two_records():
    grid = PeriodicGrid(64)
    params = poly_params()
    state = FluidState.make(grid, grid.constant(1.0), grid.zeros(), params)
    for record in (compute_record(state, params),
                   compute_record(stack([state]), params)):
        with pytest.raises(ValueError):
            balance_check(record)


def test_gronwall_envelope_via_balance_check():
    grid = PeriodicGrid(128)
    params = poly_params()
    config = SolverConfig(dt=1e-4, t_end=0.05, bounds=(0.05, 20.0))
    rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    traj = nsk_run(FluidState.make(grid, rho0, grid.zeros(), params), params,
                   config)
    rate = 4.0 * params.gamma * traj.dxc_sup
    report = balance_check(traj.records, gronwall_rate=rate)
    assert report["gronwall_ok"]
    assert report["gronwall_margin"] > 0.0


def long_table(eta, t, mass=1.2):
    """A synthetic diagnostics table of the given BD entropy series, with
    conserved mass and energy and no dissipation."""
    ones = np.ones_like(t)
    return DiagnosticsRecord(t, mass * ones, 0.0 * ones, -0.2 * ones,
                             0.0 * ones, eta, 0.5 * ones, 1.5 * ones,
                             ones, ones, ones)


def gronwall_by_exp(records, rate):
    """The Gronwall verdict and margin with the envelope formed by exp on
    every row, its overflow to inf allowed."""
    t, eta = records.t, records.bd_entropy
    with np.errstate(over="ignore"):
        envelope = (eta[0] + 0.5 * records.mass[0]) * np.exp(rate * (t - t[0]))
    return bool(np.all(eta <= envelope + 1e-12)), float(np.min(envelope - eta))


def test_gronwall_check_on_a_long_table_does_not_overflow():
    # an N = 512 run to t = 25 has rate 35.1, so rate t reaches 877, past
    # exp's overflow at 709.78: the rows beyond 700 are decided in log
    # space, with no RuntimeWarning (an error under this suite), and the
    # verdict and the margin are those the overflowing envelope gives
    t = np.linspace(0.0, 25.0, 2001)
    rate = 35.1
    cases = [0.77 * np.exp(0.2 * t), 0.77 + 3.0 * t]
    bad = 0.77 * np.exp(0.2 * t)
    bad[1] = 10.0   # above the envelope, 2.1 at t = 0.0125
    cases.append(bad)
    for eta in cases:
        records = long_table(eta, t)
        report = balance_check(records, gronwall_rate=rate)
        ok, margin = gronwall_by_exp(records, rate)
        assert report["gronwall_ok"] is ok
        assert report["gronwall_margin"] == margin
    assert not report["gronwall_ok"] and not report["ok"]
    # a scale so small that the envelope stays finite past rate t = 700:
    # log space sees eta cross it there, where the overflow to inf did not
    eta = np.zeros_like(t)
    eta[-1] = 1e90
    report = balance_check(long_table(eta, t, mass=2e-300), gronwall_rate=rate)
    assert not report["gronwall_ok"]
    assert report["gronwall_margin"] == gronwall_by_exp(
        long_table(eta[:-1], t[:-1], mass=2e-300), rate)[1]


def stack(states):
    """States of one class, single or batches, as one state with a row per
    state or batch row: each field stacked next to the nodes, so that a
    phase stack's phases stay leading, t one value per row."""
    rows = [len(np.atleast_2d(s.u)) for s in states]

    def rows_of(state, name):
        field = getattr(state, name)
        return field if state.u.ndim == 2 else field[..., None, :]

    return type(states[0])(
        states[0].grid, np.repeat([s.t for s in states], rows),
        *(np.concatenate([rows_of(s, f.name) for s in states], axis=-2)
          for f in fields(states[0])[2:]))


def mixture_pressure(state, eos):
    """The mixture pressure written out: P_art(rho), or alpha_p P_art(rho_p)
    + alpha_m P_art(rho_m) for a two-phase state."""
    if isinstance(state, BNState):
        return (state.alpha_p * eos.artificial_pressure(state.rho_p)
                + state.alpha_m * eos.artificial_pressure(state.rho_m))
    return eos.artificial_pressure(state.rho)


def record_states(n):
    """(params, state) pairs at n nodes: a single NSK state, a (4, n) stack
    of NSK states, a single BN state and a (3, n) stack of BN states, with
    rough fields so that every Fourier mode is excited."""
    rng = np.random.default_rng(n)
    grid = PeriodicGrid(n)
    x = grid.x
    cases = []
    for params in (poly_params(mu=0.37),
                   PhysicalParams(mu=0.1, kappa=0.05,
                                  eos=VanDerWaalsEOS(3.0, 3.0, 8.0 / 3.0,
                                                     0.85, 2.0))):
        def nsk_state():
            rho = (1.0 + 0.3 * np.sin(2 * np.pi * x)
                   + 0.05 * rng.standard_normal(n))
            u = 0.2 * np.cos(4 * np.pi * x) + 0.05 * rng.standard_normal(n)
            return FluidState.make(grid, rho, u, params,
                                   t=float(rng.uniform()))

        def bn_state():
            alpha = 0.5 + 0.3 * np.sin(2 * np.pi * x)
            rho_p = 0.6 + 0.1 * rng.uniform(size=n)
            rho_m = 1.2 + 0.5 * rng.uniform(size=n)
            return BNState.make(grid, alpha, rho_p, rho_m,
                                0.1 * rng.standard_normal(n), params)

        cases += [(params, nsk_state()),
                  (params, stack([nsk_state() for _ in range(4)])),
                  (params, bn_state()),
                  (params, stack([bn_state() for _ in range(3)]))]
    return cases


def first_energy(state, params, backend, bd_drift):
    """The energy and BD entropy as first written, one functional at a
    time: the oracle of the shared densities."""
    grid = state.grid
    rho = state.mixture_density
    v = state.u
    if bd_drift:
        v = v + params.mu * derivative(grid, rho, 1, backend) / rho ** 2
    dc = derivative(grid, state.c, 1, backend)
    dens = (0.5 * rho * v ** 2
            + params.eos.potential(rho)
            + 0.5 * params.gamma * (rho - state.c) ** 2
            + 0.5 * params.kappa * dc ** 2)
    return grid.h * np.sum(dens, axis=-1)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(
        b, dtype=float).tobytes()


@pytest.mark.parametrize("n", [64, 2048])
def test_sigma_grad_l2_matches_physical_space_flux(n):
    # Parseval on -mu k^2 u_hat - i k P_hat equals the L2 norm of two
    # spectral derivatives taken in physical space
    for params, state in record_states(n):
        grid = state.grid
        expect = np.atleast_1d(l2_norm(grid, derivative(
            grid, effective_viscous_flux(state, params), 1, "spectral")))
        got = np.atleast_1d(compute_record(state, params).sigma_grad_l2)
        assert got.shape == expect.shape
        assert np.all(np.abs(got - expect) <= 1e-12 * expect)


def first_sigma_grad_l2(state, params):
    """||Sigma_x||_L2 as first written in Fourier space: -mu k^2 u_hat -
    i k P_hat without its Nyquist mode, each symbol and the Parseval
    weights built per call."""
    grid = state.grid
    n = grid.n
    k = TWO_PI * np.arange(n // 2 + 1)
    dsigma = (params.mu * (-(k ** 2) * np.fft.rfft(state.u))
              - (1j * k) * np.fft.rfft(mixture_pressure(state, params.eos)))
    dsigma[..., -1] = 0.0
    weights = np.full(k.size, 2.0)
    weights[0] = weights[-1] = 1.0
    return np.sqrt(np.sum(weights * np.abs(dsigma / n) ** 2, axis=-1))


@pytest.mark.parametrize("n", [64, 2048])
def test_record_columns_match_first_formulas(n):
    # every column is bitwise what the functionals gave when each computed
    # its own densities, written out here: dissipation and sigma_grad_l2
    # too, the latter with its symbols built per call
    for params, state in record_states(n):
        grid = state.grid
        rho = state.mixture_density
        rec = compute_record(state, params)
        expect = {
            "t": state.t,
            "mass": mean(grid, rho),
            "momentum": mean(grid, rho * state.u),
            "energy": first_energy(state, params, "central", False),
            "dissipation": grid.h * params.mu * np.sum(derivative(
                grid, state.u, 1, "central") ** 2, axis=-1),
            "bd_entropy": first_energy(state, params, "central", True),
            "rho_min": np.min(rho, axis=-1),
            "rho_max": np.max(rho, axis=-1),
            "sigma_grad_l2": first_sigma_grad_l2(state, params),
            "c_h2": sobolev_norm(grid, state.c, 2),
            "inv_sqrt_rho_grad": l2_norm(grid, derivative(
                grid, 1.0 / np.sqrt(rho), 1, "spectral")),
        }
        assert set(expect) == set(RECORD_COLUMNS)
        for name, value in expect.items():
            assert same_bits(getattr(rec, name), value), name


@pytest.mark.parametrize("n", [64, 2048])
def test_energy_and_bd_entropy_alone_match_record(n):
    for params, state in record_states(n):
        rec = compute_record(state, params)
        assert same_bits(energy(state, params), rec.energy)
        assert same_bits(bd_entropy(state, params), rec.bd_entropy)
        assert same_bits(energy(state, params, backend="spectral"),
                         first_energy(state, params, "spectral", False))
