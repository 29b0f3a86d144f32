import numpy as np
import pytest

from phasekit.bn import (BNState, bn_run, bn_step, cubic_interp_periodic,
                         mixture_fields, picard_bn, relaxation_rhs,
                         transport_with_source)
from phasekit.eos import PolytropicEOS
from phasekit.errors import BoundsError, FixedPointError
from phasekit.nsk import FluidState, PhysicalParams, SolverConfig, nsk_run
from phasekit.torus import PeriodicGrid, mean


def poly_params(mu=0.1, kappa=0.02, gamma=1.0):
    return PhysicalParams(mu=mu, kappa=kappa, gamma=gamma,
                          eos=PolytropicEOS(1.0, 2.0, gamma))


def test_state_validation():
    grid = PeriodicGrid(32)
    params = poly_params()
    with pytest.raises(BoundsError):
        BNState.make(grid, 1.5, 1.0, 1.0, 0.0, params)
    with pytest.raises(BoundsError):
        BNState.make(grid, 0.5, -1.0, 1.0, 0.0, params)
    state = BNState.make(grid, 0.5, 2.0, 1.0, 0.0, params)
    assert state.closure_drift() == 0.0


def test_mixture_fields_pure_phase():
    grid = PeriodicGrid(32)
    params = poly_params()
    state = BNState.make(grid, 1.0, 1.7, 0.4, 0.0, params)
    rho, p_bar = mixture_fields(state, params.eos)
    assert np.allclose(rho, 1.7, atol=1e-14)
    assert np.allclose(p_bar, params.eos.artificial_pressure(np.array(1.7)),
                       atol=1e-14)


def test_mixture_fields_degenerate_two_phase():
    grid = PeriodicGrid(32)
    params = poly_params()
    state = BNState.make(grid, 0.5, 1.3, 1.3, 0.0, params)
    rho, p_bar = mixture_fields(state, params.eos)
    assert np.allclose(rho, 1.3, atol=1e-14)
    assert np.allclose(p_bar, params.eos.artificial_pressure(np.array(1.3)),
                       atol=1e-14)


def test_mixture_fields_arithmetic():
    # gamma -> 0 limit of the closed form: rho = 1.25, p_bar = 1.75
    grid = PeriodicGrid(32)
    params = PhysicalParams(mu=1.0, kappa=1.0, gamma=1e-12,
                            eos=PolytropicEOS(1.0, 2.0, 1e-12))
    state = BNState.make(grid, 0.25, 2.0, 1.0, 0.0, params)
    rho, p_bar = mixture_fields(state, params.eos)
    assert np.allclose(rho, 1.25, atol=1e-12)
    assert np.allclose(p_bar, 1.75, atol=1e-11)


def test_relaxation_rhs_zero_cases():
    grid = PeriodicGrid(32)
    params = poly_params()
    equal = BNState.make(grid, 0.3, 1.2, 1.2, 0.0, params)
    for src in relaxation_rhs(equal, params):
        assert np.max(np.abs(src)) == 0.0
    pure = BNState.make(grid, 1.0, 1.5, 0.7, 0.0, params)
    s_ap, s_am, s_rp, s_rm = relaxation_rhs(pure, params)
    assert np.max(np.abs(s_ap)) == 0.0
    assert np.max(np.abs(s_rp)) == 0.0


def test_relaxation_rhs_arithmetic():
    # mu = 1, gamma -> 0, alpha = 1/2, rho = (2, 1): source(alpha_p) = 0.75
    grid = PeriodicGrid(32)
    params = PhysicalParams(mu=1.0, kappa=1.0, gamma=1e-12,
                            eos=PolytropicEOS(1.0, 2.0, 1e-12))
    state = BNState.make(grid, 0.5, 2.0, 1.0, 0.0, params)
    s_ap, s_am, s_rp, s_rm = relaxation_rhs(state, params)
    assert np.allclose(s_ap, 0.75, atol=1e-11)
    assert np.allclose(s_am, -0.75, atol=1e-11)
    assert np.allclose(s_rp, -2.0 * 0.5 * 3.0, atol=1e-10)
    assert np.allclose(s_rm, 1.0 * 0.5 * 3.0, atol=1e-11)


def test_relaxation_formulations_agree():
    # pressure-difference form vs (alpha/mu)(P_art - p_bar) with the closure
    grid = PeriodicGrid(64)
    params = poly_params()
    rng = np.random.default_rng(4)
    alpha_p = rng.uniform(0.1, 0.9, grid.n)
    state = BNState.make(grid, alpha_p, rng.uniform(1.0, 2.0, grid.n),
                         rng.uniform(0.4, 0.9, grid.n), 0.0, params)
    _, p_bar = mixture_fields(state, params.eos)
    s_ap, s_am, s_rp, s_rm = relaxation_rhs(state, params)
    alt_ap = state.alpha_p * (params.eos.artificial_pressure(state.rho_p)
                              - p_bar) / params.mu
    alt_rp = state.rho_p * (p_bar - params.eos.artificial_pressure(state.rho_p)
                            ) / params.mu
    scale = np.max(np.abs(s_ap)) + 1.0
    assert np.max(np.abs(s_ap - alt_ap)) <= 1e-12 * scale
    assert np.max(np.abs(s_rp - alt_rp)) <= 1e-12 * (np.max(np.abs(s_rp)) + 1.0)


# ---------------------------------------------------------------- transport

def test_transport_identity():
    grid = PeriodicGrid(64)
    times = np.linspace(0.0, 0.5, 11)
    zeros = np.zeros((times.size, grid.n))
    a0 = 1.0 + 0.3 * np.sin(2 * np.pi * grid.x)
    traj = transport_with_source(grid, a0, zeros, zeros, times)
    assert np.max(np.abs(traj[-1] - a0)) < 1e-14


def test_transport_translation_third_order():
    errs = []
    for n in (64, 128):
        grid = PeriodicGrid(n)
        steps = int(0.3 * n)  # dt ~ 0.83 h, so feet land between nodes
        times = np.linspace(0.0, 0.25, steps + 1)
        u = np.ones((times.size, grid.n))
        f = np.zeros_like(u)
        a0 = np.sin(2 * np.pi * grid.x)
        traj = transport_with_source(grid, a0, u, f, times)
        exact = np.sin(2 * np.pi * ((grid.x - 0.25) % 1.0))
        errs.append(np.max(np.abs(traj[-1] - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order >= 3.0 - 0.3


def test_transport_exponential_growth():
    grid = PeriodicGrid(64)
    times = np.linspace(0.0, 1.0, 41)
    u = np.zeros((times.size, grid.n))
    f = np.full_like(u, 2.0)
    a0 = 0.7 + 0.1 * np.cos(2 * np.pi * grid.x)
    traj = transport_with_source(grid, a0, u, f, times)
    assert np.max(np.abs(traj[-1] - a0 * np.e ** 2)) < 1e-12


def test_transport_conservative_flag():
    # with u_x != 0 the conservative solve keeps the mean of a, the
    # advective one does not
    grid = PeriodicGrid(256)
    steps = 64
    times = np.linspace(0.0, 0.1, steps + 1)
    u = np.tile(0.3 * np.sin(2 * np.pi * grid.x), (times.size, 1))
    f = np.zeros_like(u)
    a0 = 1.0 + 0.2 * np.cos(2 * np.pi * grid.x)
    cons = transport_with_source(grid, a0, u, f, times, conservative=True)
    assert abs(mean(grid, cons[-1]) - mean(grid, a0)) < 1e-5
    adv = transport_with_source(grid, a0, u, f, times, conservative=False)
    assert abs(mean(grid, adv[-1]) - mean(grid, a0)) > 1e-4


# ---------------------------------------------------------------- stepping

def test_pure_phase_degenerates_to_single_phase():
    # alpha_p = 1: the two-phase step must reproduce the single-phase run
    grid = PeriodicGrid(128)
    params = poly_params()
    config = SolverConfig(dt=2e-4, t_end=0.1, bounds=(0.05, 20.0),
                          snapshot_every=50)
    rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    u0 = 0.1 * np.cos(2 * np.pi * grid.x)
    nsk_traj = nsk_run(FluidState.make(grid, rho0, u0, params), params, config,
                       keep_records=False)
    bn_traj = bn_run(BNState.make(grid, 1.0, rho0, rho0, u0, params), params,
                     config, keep_records=False)
    assert len(nsk_traj.snapshots) == len(bn_traj.snapshots)
    for s_nsk, s_bn in zip(nsk_traj.snapshots, bn_traj.snapshots):
        assert s_bn.t == pytest.approx(s_nsk.t, abs=1e-14)
        assert np.max(np.abs(s_bn.rho_p - s_nsk.rho)) <= 1e-8
        assert np.max(np.abs(s_bn.u - s_nsk.u)) <= 1e-8
        assert np.max(np.abs(s_bn.alpha_p - 1.0)) <= 1e-12


def relaxation_ode_rhs(v, params):
    ap, rp, rm = v
    dp = float(params.eos.artificial_pressure(np.array(rp))
               - params.eos.artificial_pressure(np.array(rm)))
    return np.array([ap * (1.0 - ap) * dp / params.mu,
                     -rp * (1.0 - ap) * dp / params.mu,
                     rm * ap * dp / params.mu])


def rk4_reference(v0, params, t_end, dt):
    v = np.asarray(v0, dtype=float)
    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = relaxation_ode_rhs(v, params)
        k2 = relaxation_ode_rhs(v + 0.5 * dt * k1, params)
        k3 = relaxation_ode_rhs(v + 0.5 * dt * k2, params)
        k4 = relaxation_ode_rhs(v + dt * k3, params)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def test_homogeneous_relaxation_matches_rk4():
    grid = PeriodicGrid(8)
    params = poly_params()
    dt = 2e-4
    t_end = 0.5
    config = SolverConfig(dt=dt, t_end=t_end, bounds=(0.05, 20.0),
                          snapshot_every=10 ** 9)
    state = BNState.make(grid, 0.4, 1.5, 0.5, 0.0, params)
    traj = bn_run(state, params, config, keep_records=False)
    final = traj.snapshots[-1]
    ref = rk4_reference([0.4, 1.5, 0.5], params, t_end, dt / 100.0)
    assert np.max(np.abs(final.u)) == 0.0
    assert abs(final.alpha_p[0] - ref[0]) <= 1e-6
    assert abs(final.rho_p[0] - ref[1]) <= 1e-6
    assert abs(final.rho_m[0] - ref[2]) <= 1e-6


def test_homogeneous_relaxation_pressure_gap_decays():
    grid = PeriodicGrid(8)
    params = poly_params()
    config = SolverConfig(dt=2e-4, t_end=1.0, bounds=(0.05, 20.0),
                          snapshot_every=100)
    state = BNState.make(grid, 0.4, 1.5, 0.5, 0.0, params)
    traj = bn_run(state, params, config, keep_records=False)
    gaps = [abs(float(params.eos.artificial_pressure(s.rho_p[0])
                      - params.eos.artificial_pressure(s.rho_m[0])))
            for s in traj.snapshots]
    assert all(g2 <= g1 + 1e-14 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-6


def test_equal_densities_stay_equal_and_match_nsk():
    grid = PeriodicGrid(128)
    params = poly_params()
    config = SolverConfig(dt=2e-4, t_end=0.05, bounds=(0.05, 20.0),
                          snapshot_every=10 ** 9)
    rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    u0 = 0.1 * np.cos(2 * np.pi * grid.x)
    alpha0 = 0.5 + 0.3 * np.sin(4 * np.pi * grid.x)
    bn_traj = bn_run(BNState.make(grid, alpha0, rho0, rho0, u0, params),
                     params, config, keep_records=False)
    nsk_traj = nsk_run(FluidState.make(grid, rho0, u0, params), params, config,
                       keep_records=False)
    final = bn_traj.snapshots[-1]
    assert np.max(np.abs(final.rho_p - final.rho_m)) <= 1e-9
    assert np.max(np.abs(final.rho_p - nsk_traj.snapshots[-1].rho)) <= 1e-10


def test_mixture_mass_conserved():
    grid = PeriodicGrid(128)
    params = poly_params()
    config = SolverConfig(dt=1e-4, t_end=0.1, bounds=(0.05, 20.0),
                          snapshot_every=10 ** 9)
    state = BNState.make(grid, 0.4, 1.0 + 0.2 * np.sin(2 * np.pi * grid.x),
                         0.8, 0.1 * np.cos(2 * np.pi * grid.x), params)
    m0 = mean(grid, state.alpha_p * state.rho_p + state.alpha_m * state.rho_m)
    traj = bn_run(state, params, config, keep_records=False)
    final = traj.snapshots[-1]
    m1 = mean(grid, final.alpha_p * final.rho_p + final.alpha_m * final.rho_m)
    assert traj.n_steps >= 1000
    assert abs(m1 - m0) <= 1e-10


def test_closure_monitored_along_run():
    grid = PeriodicGrid(64)
    params = poly_params()
    config = SolverConfig(dt=2e-4, t_end=0.02, bounds=(0.05, 20.0))
    alpha0 = 0.5 + 0.4 * np.sin(2 * np.pi * grid.x)
    state = BNState.make(grid, alpha0, 1.4, 0.7,
                         0.2 * np.sin(2 * np.pi * grid.x), params)
    traj = bn_run(state, params, config, keep_records=False)
    assert traj.extras["monitor"]["closure_drift"] < 1e-10
    assert traj.extras["monitor"]["alpha_clip"] <= 1e-12


def test_single_final_snapshot_at_end_tolerance():
    # ten steps end 5e-13 short of t_end: the loop takes one more short
    # step, and only the state that ends the run is a final snapshot
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=1e-3 - 5e-14, t_end=0.01, bounds=(0.05, 20.0),
                          snapshot_every=3)
    state = BNState.make(grid, 0.4, 1.2, 0.8, 0.0, params)
    traj = bn_run(state, params, config, keep_records=False)
    times = traj.snapshot_times
    assert traj.n_steps == 11
    assert np.sum(times >= config.t_end - 1e-12) == 1
    assert times[-1] == pytest.approx(config.t_end, abs=1e-14)


def cfl_limited_run(keep_records):
    # dt = 0.05 is far above the CFL bound, so the run takes many short steps
    grid = PeriodicGrid(32)
    params = poly_params()
    config = SolverConfig(dt=0.05, t_end=0.2, cfl=0.4, bounds=(0.05, 20.0))
    alpha0 = 0.5 + 0.2 * np.sin(2 * np.pi * grid.x)
    state = BNState.make(grid, alpha0, 1.2, 0.8,
                         0.3 * np.sin(2 * np.pi * grid.x), params)
    return bn_run(state, params, config, keep_records=keep_records)


def test_run_reports_cfl_limit():
    traj = cfl_limited_run(keep_records=False)
    assert traj.n_steps > 4
    assert traj.cfl_limited


def test_dxc_sup_independent_of_records():
    with_records = cfl_limited_run(keep_records=True)
    without = cfl_limited_run(keep_records=False)
    assert with_records.dxc_sup > 0.0
    assert without.dxc_sup == with_records.dxc_sup


# ------------------------------------------------------------------- picard

def test_picard_constant_fixed_point():
    grid = PeriodicGrid(32)
    eos = PolytropicEOS(1.0, 2.0, 1.0)
    times = np.linspace(0.0, 0.1, 21)
    u = np.zeros((times.size, grid.n))
    pi = np.full((times.size, grid.n),
                 float(eos.artificial_pressure(np.array(1.3))))
    a, r, info = picard_bn(grid, np.full(grid.n, 0.5), np.full(grid.n, 1.3),
                           u, pi, times, eos, mu=1.0, tol=1e-12)
    assert np.max(np.abs(a - 0.5)) < 1e-12
    assert np.max(np.abs(r - 1.3)) < 1e-12
    assert len(info["slabs"]) == 1


def picard_ode_oracle(a0, r0, pi_val, eos, mu, t_end, dt):
    a, r = a0, r0
    steps = int(round(t_end / dt))

    def rhs(v):
        a_, r_ = v
        pa = float(eos.artificial_pressure(np.array(r_)))
        return np.array([a_ * (pa - pi_val) / mu, r_ * (pi_val - pa) / mu])

    v = np.array([a, r])
    for _ in range(steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def test_picard_matches_ode_oracle():
    grid = PeriodicGrid(32)
    eos = PolytropicEOS(1.0, 2.0, 1.0)
    mu = 0.5
    t_end = 0.2
    times = np.linspace(0.0, t_end, 201)
    pi_val = float(eos.artificial_pressure(np.array(1.2)))
    u = np.zeros((times.size, grid.n))
    pi = np.full((times.size, grid.n), pi_val)
    a, r, info = picard_bn(grid, np.full(grid.n, 0.7), np.full(grid.n, 0.9),
                           u, pi, times, eos, mu=mu, tol=1e-11)
    ref = picard_ode_oracle(0.7, 0.9, pi_val, eos, mu, t_end, t_end / 20000)
    assert abs(a[-1, 0] - ref[0]) < 1e-6
    assert abs(r[-1, 0] - ref[1]) < 1e-6
    for slab in info["slabs"]:
        assert all(rat < 1.0 for rat in slab["ratios"])


def test_picard_cross_check_against_bn_step():
    # outer loop recomputing pi = p_bar from the two picard phases matches
    # the operator-split stepper to O(dt) on a short slab
    grid = PeriodicGrid(64)
    params = poly_params(mu=0.5)
    eos = params.eos
    t_end = 0.02

    def errs_at(dt):
        times = np.arange(0.0, t_end + 0.5 * dt, dt)
        config = SolverConfig(dt=dt, t_end=t_end, bounds=(0.05, 20.0),
                              snapshot_every=10 ** 9)
        alpha0 = np.full(grid.n, 0.4) + 0.1 * np.sin(2 * np.pi * grid.x)
        rp0 = np.full(grid.n, 1.5)
        rm0 = np.full(grid.n, 0.6)
        u_field = 0.2 * np.sin(2 * np.pi * grid.x)

        state = BNState.make(grid, alpha0, rp0, rm0, u_field, params)
        # freeze u: run the stepper with the momentum update disabled by
        # reusing its transport pieces through a tiny shim run
        states = [state]
        for _ in range(times.size - 1):
            new = bn_step(states[-1], params, config)
            new = BNState(grid, new.t, new.alpha_p, new.alpha_m, new.rho_p,
                          new.rho_m, state.u.copy(), new.c)
            states.append(new)

        u_series = np.tile(u_field, (times.size, 1))
        ap = np.tile(alpha0, (times.size, 1))
        am = 1.0 - ap
        rp = np.tile(rp0, (times.size, 1))
        rm = np.tile(rm0, (times.size, 1))
        for _ in range(8):
            pi = (ap * eos.artificial_pressure(rp)
                  + am * eos.artificial_pressure(rm))
            ap, rp, _ = picard_bn(grid, alpha0, rp0, u_series, pi, times, eos,
                                  mu=params.mu, tol=1e-11)
            am_new, rm, _ = picard_bn(grid, 1.0 - alpha0, rm0, u_series, pi,
                                      times, eos, mu=params.mu, tol=1e-11)
            am = am_new
        err_a = np.max(np.abs(states[-1].alpha_p - ap[-1]))
        err_r = np.max(np.abs(states[-1].rho_p - rp[-1]))
        return err_a + err_r

    e1 = errs_at(2e-3)
    e2 = errs_at(1e-3)
    assert e2 < e1
    assert e1 / e2 > 1.5  # O(dt) agreement between the two integrators


def test_picard_nonconvergence_raises():
    # an absurdly tight tolerance with one allowed iteration on a one-step
    # slab cannot contract
    grid = PeriodicGrid(32)
    eos = PolytropicEOS(1.0, 2.0, 1.0)
    times = np.array([0.0, 0.05])
    u = np.zeros((2, grid.n))
    pi = np.zeros((2, grid.n))
    with pytest.raises(FixedPointError):
        picard_bn(grid, np.full(grid.n, 0.5), np.full(grid.n, 1.5), u, pi,
                  times, eos, mu=1e-4, tol=1e-16, max_iter=2)
    assert FixedPointError.exit_code == 5


def test_cubic_interp_exact_on_cubics():
    grid = PeriodicGrid(64)
    # periodic cubic spline reproduction is not exact globally, but local
    # Lagrange interpolation is exact for data sampled from degree-3
    # polynomials of the local coordinate; use a shifted-node check instead
    f = np.sin(2 * np.pi * grid.x)
    assert np.max(np.abs(cubic_interp_periodic(f, grid.x, grid.h) - f)) < 1e-14
    shift = cubic_interp_periodic(f, (grid.x + 0.5 * grid.h) % 1.0, grid.h)
    exact = np.sin(2 * np.pi * (grid.x + 0.5 * grid.h))
    assert np.max(np.abs(shift - exact)) < (2 * np.pi * grid.h) ** 4
