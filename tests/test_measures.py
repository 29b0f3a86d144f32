import itertools

import numpy as np
import pytest

from phasekit.bn import BNState, bn_run
from phasekit.eos import PolytropicEOS
from phasekit.harness import kinetic_consistency
from phasekit.measures import (TestDictionary, distance,
                               empirical_from_field, empirical_from_state,
                               kinetic_residual, smoke_test_set,
                               two_dirac_from_bn, wasserstein_avg)
from phasekit.nsk import FluidState, PhysicalParams, SolverConfig, nsk_run
from phasekit.torus import PeriodicGrid, mean

BOX = (0.25, 3.2)


def poly_params(mu=0.1, kappa=0.02, gamma=1.0):
    return PhysicalParams(mu=mu, kappa=kappa,
                          eos=PolytropicEOS(1.0, 2.0, gamma))


def test_empirical_pairings():
    grid = PeriodicGrid(64)
    rho = np.where(grid.x < 0.5, 1.0, 2.0)
    m = empirical_from_field(grid, rho, BOX)
    assert m.pair(lambda x, xi: np.ones_like(xi)) == pytest.approx(1.0, abs=1e-14)
    assert m.pair(lambda x, xi: xi) == pytest.approx(mean(grid, rho), abs=1e-14)
    assert m.pair(lambda x, xi: xi ** 2) == pytest.approx(2.5, abs=1e-13)


def test_two_dirac_pairings():
    grid = PeriodicGrid(64)
    params = poly_params()
    state = BNState.make(grid, 0.5, 2.0, 1.0, 0.0, params)
    m = two_dirac_from_bn(state, BOX)
    assert m.pair(lambda x, xi: xi) == pytest.approx(1.5, abs=1e-13)
    assert m.pair(lambda x, xi: np.ones_like(xi)) == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_two_dirac_pure_phase_equals_empirical():
    grid = PeriodicGrid(64)
    params = poly_params()
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    state = BNState.make(grid, 1.0, rho, rho, 0.0, params)
    m2 = two_dirac_from_bn(state, BOX)
    m1 = empirical_from_field(grid, rho, BOX)
    d = TestDictionary(BOX)
    assert np.max(np.abs(m1.pair(d) - m2.pair(d))) <= 1e-12


def test_moment_consistency_along_run():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=2e-4, t_end=0.01, bounds=BOX)
    rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    traj = nsk_run(FluidState.make(grid, rho0, grid.zeros(), params), params,
                   config)
    for s in traj.snapshots:
        m = empirical_from_state(s, BOX)
        assert abs(m.pair(lambda x, xi: xi) - mean(grid, s.rho)) <= 1e-12


def test_support_box_enforced():
    grid = PeriodicGrid(32)
    with pytest.raises(ValueError):
        empirical_from_field(grid, np.full(grid.n, 5.0), BOX)


def test_dictionary_layout():
    d = TestDictionary(BOX)
    assert len(d.names()) == (1 + 2 * 4) * 5
    assert d.names()[0] == "1*xi^0"
    # normalization: pairing of any entry against any unit measure is <= 1
    grid = PeriodicGrid(32)
    m = empirical_from_field(grid, np.full(grid.n, 3.2), BOX)
    assert np.all(np.abs(m.pair(d)) <= 1.0 + 1e-12)


def entry_from_name(name):
    """The test function a dictionary entry name such as "cos3*xi^2"
    stands for, built from the name alone."""
    x_name, power = name.split("*xi^")
    k = int(power)
    scale = max(abs(BOX[0]), abs(BOX[1])) ** k
    if x_name == "1":
        return lambda x, xi: xi ** k / scale
    fun = {"cos": np.cos, "sin": np.sin}[x_name[:3]]
    m = int(x_name[3:])
    return lambda x, xi: fun(2.0 * np.pi * m * x) * xi ** k / scale


def test_dictionary_entries_match_their_names():
    # oracle: the stacked pairing, entry by entry, equals the pairing with
    # the scalar test function each name spells out
    grid = PeriodicGrid(64)
    rng = np.random.default_rng(5)
    state = BNState.make(grid, rng.uniform(0.0, 1.0, grid.n),
                         rng.uniform(0.5, 2.5, grid.n),
                         rng.uniform(0.5, 2.5, grid.n), 0.0, poly_params())
    d = TestDictionary(BOX)
    names = d.names()
    assert len(names) == 45
    for m in (empirical_from_field(grid, rng.uniform(0.5, 2.5, grid.n), BOX),
              two_dirac_from_bn(state, BOX)):
        stacked = m.pair(d)
        assert stacked.shape == (45,)
        for i, name in enumerate(names):
            assert stacked[i] == m.pair(entry_from_name(name)), name


def test_distance_example_values():
    grid = PeriodicGrid(64)
    params = poly_params()
    m1 = empirical_from_field(grid, np.full(grid.n, 1.2), BOX)
    state = BNState.make(grid, 0.5, 1.6, 0.8, 0.0, params)
    m2 = two_dirac_from_bn(state, BOX)
    # raw pairing differences before dictionary normalization
    assert abs(m1.pair(lambda x, xi: xi) - m2.pair(lambda x, xi: xi)) <= 1e-13
    d2 = abs(m1.pair(lambda x, xi: xi ** 2) - m2.pair(lambda x, xi: xi ** 2))
    assert d2 == pytest.approx(0.16, abs=1e-12)
    assert wasserstein_avg(m1, m2) == pytest.approx(0.4, abs=1e-12)


def test_wasserstein_against_brute_force():
    # oracle: exhaustive transport plans between one atom and two atoms
    rng = np.random.default_rng(9)
    grid = PeriodicGrid(8)
    params = poly_params()
    for _ in range(20):
        a = rng.uniform(0.3, 3.0)
        bp, bm = rng.uniform(0.3, 3.0, 2)
        alpha = rng.uniform(0.0, 1.0)
        m1 = empirical_from_field(grid, np.full(grid.n, a), BOX)
        state = BNState.make(grid, alpha, bp, bm, 0.0, params)
        m2 = two_dirac_from_bn(state, BOX)
        # the single source atom must split alpha / (1 - alpha)
        oracle = alpha * abs(a - bp) + (1.0 - alpha) * abs(a - bm)
        assert wasserstein_avg(m1, m2) == pytest.approx(oracle, abs=1e-12)


def test_distance_is_pseudometric():
    grid = PeriodicGrid(32)
    params = poly_params()
    rng = np.random.default_rng(3)
    d = TestDictionary(BOX)
    measures = []
    for _ in range(3):
        rho = rng.uniform(0.5, 2.5, grid.n)
        measures.append(empirical_from_field(grid, rho, BOX))
    state = BNState.make(grid, rng.uniform(0.0, 1.0, grid.n),
                         rng.uniform(0.5, 2.5, grid.n),
                         rng.uniform(0.5, 2.5, grid.n), 0.0, params)
    measures.append(two_dirac_from_bn(state, BOX))
    pairings = [m.pair(d) for m in measures]
    for p in pairings:
        assert distance(p, p) == 0.0
    for p1, p2 in itertools.combinations(pairings, 2):
        assert distance(p1, p2) == pytest.approx(distance(p2, p1), abs=0.0)
    for p1, p2, p3 in itertools.permutations(pairings, 3):
        assert distance(p1, p3) <= distance(p1, p2) + distance(p2, p3) + 1e-15


def test_kinetic_residual_constant_state_is_zero():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=1e-3, t_end=0.05, bounds=BOX, snapshot_every=1)
    state = FluidState.make(grid, grid.constant(1.3), grid.constant(0.4), params)
    traj = nsk_run(state, params, config)
    for name, resid in kinetic_consistency(traj).items():
        assert resid <= 1e-13, name


def refinement_residuals(run, initial, n, dt, t_end=0.04):
    # formal-order measurement: odd-even guard off, no special symmetry
    grid = PeriodicGrid(n)
    params = poly_params()
    config = SolverConfig(dt=dt, t_end=t_end, bounds=BOX, snapshot_every=1,
                          upwind=0.0)
    traj = run(initial(grid, params), params, config)
    return list(kinetic_consistency(traj).values())


def nsk_initial(grid, params):
    rho0 = (1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
            + 0.05 * np.cos(4 * np.pi * grid.x + 0.7))
    return FluidState.make(grid, rho0, grid.zeros(), params)


def bn_initial(grid, params):
    alpha0 = 0.5 + 0.2 * np.sin(2 * np.pi * grid.x + 0.3)
    return BNState.make(grid, alpha0, 1.5, 0.7,
                        0.1 * np.cos(2 * np.pi * grid.x), params)


def assert_residuals_refine(coarse, fine, floor=1e-12, min_order=1.0):
    # the smoke-set residual is the max over the set; individual entries can
    # sit at round-off (conserved moments, structural zeros) or be
    # accidentally small at one level, so they are only required not to grow
    coarse = np.asarray(coarse)
    fine = np.asarray(fine)
    assert np.log2(np.max(coarse) / np.max(fine)) >= min_order
    for rc, rf in zip(coarse, fine):
        if rc <= floor:
            assert rf <= floor
        else:
            assert rf <= 1.05 * rc


def test_kinetic_residual_refines_nsk():
    # simultaneous refinement with dt ~ h^2: the dt-dominated residual then
    # falls at order ~2 per level, comfortably above the required >= 1
    assert_residuals_refine(
        refinement_residuals(nsk_run, nsk_initial, 64, 4e-4),
        refinement_residuals(nsk_run, nsk_initial, 128, 1e-4))


def test_kinetic_residual_refines_bn():
    assert_residuals_refine(
        refinement_residuals(bn_run, bn_initial, 64, 4e-4),
        refinement_residuals(bn_run, bn_initial, 128, 1e-4))


def test_kinetic_residual_series_validation():
    grid = PeriodicGrid(32)
    params = poly_params()
    m = empirical_from_field(grid, np.full(grid.n, 1.0), BOX)
    with pytest.raises(ValueError):
        kinetic_residual([m], [grid.zeros()], [], np.array([0.0]),
                         smoke_test_set(1.0)[0], params)
