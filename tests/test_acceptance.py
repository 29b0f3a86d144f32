"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything here is desk scale (N <= 2048, horizons
<= 0.5, minutes on one core).
"""

import numpy as np
import pytest

from phasekit.bn import BNState, bn_run, picard_bn
from phasekit.cli import main
from phasekit.diagnostics import balance_check
from phasekit.eos import PolytropicEOS, VanDerWaalsEOS, check_admissibility
from phasekit.harness import (FamilyConfig, kinetic_consistency, run_family,
                              suggest_dt)
from phasekit.nsk import (FluidState, PhysicalParams, SolverConfig,
                          nsk_run)
from phasekit.torus import PeriodicGrid, derivative, helmholtz_solve, mean


def report(num, ok, desc):
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def poly_params(mu=0.1, kappa=0.02, gamma=1.0):
    return PhysicalParams(mu=mu, kappa=kappa,
                          eos=PolytropicEOS(1.0, 2.0, gamma))


def vdw_params(mu=0.1, kappa=0.1, gamma=2.0):
    return PhysicalParams(mu=mu, kappa=kappa,
                          eos=VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, gamma))


# ----------------------------------------------------------------- shared

@pytest.fixture(scope="module")
def smooth_run():
    """Reference smooth single-phase run used by criteria 2, 3 and 4."""
    grid = PeriodicGrid(128)
    params = poly_params()
    config = SolverConfig(dt=5e-5, t_end=0.06, bounds=(0.05, 20.0),
                          snapshot_every=10 ** 9)
    rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    state = FluidState.make(grid, rho0, grid.zeros(), params)
    return nsk_run(state, params, config)


def family_config(n_list, v_minus, v_plus, grid_n, t_end=0.1):
    params = vdw_params()
    grid = PeriodicGrid(grid_n)
    dt = suggest_dt(params, (0.5, 2.0), 0.5, 0.4, grid)
    steps = max(1, round(t_end / dt))
    dt = t_end / steps
    solver = SolverConfig(dt=dt, t_end=t_end, cfl=0.4, bounds=(1 / 2.8, 2.8),
                          snapshot_every=max(1, steps // 10))
    return FamilyConfig(n_list=n_list, v_minus=v_minus, v_plus=v_plus,
                        theta=0.5, delta=0.1, u0=0.0, params=params,
                        solver=solver, grid_n=grid_n)


# --------------------------------------------------------------- criteria

def test_criterion_01_helmholtz():
    grid = PeriodicGrid(256)
    rho = 1.0 + np.sin(2 * np.pi * grid.x)
    exact = 1.0 + np.sin(2 * np.pi * grid.x) / (1.0 + 4 * np.pi ** 2)
    c = helmholtz_solve(grid, rho, 1.0, 1.0, backend="fourier")
    rel = np.max(np.abs(c - exact)) / np.max(np.abs(exact))
    fourier_ok = rel <= 1e-10

    errs = []
    for n in (64, 128, 256):
        g = PeriodicGrid(n)
        r = 1.0 + np.sin(2 * np.pi * g.x)
        ex = 1.0 + np.sin(2 * np.pi * g.x) / (1.0 + 4 * np.pi ** 2)
        errs.append(np.max(np.abs(helmholtz_solve(g, r, 1.0, 1.0, "fd") - ex)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    fd_ok = np.all(np.abs(orders - 2.0) <= 0.2)
    report(1, fourier_ok and fd_ok,
           f"helmholtz: fourier rel err {rel:.2e} <= 1e-10, "
           f"fd orders {np.round(orders, 3)} within 2 +- 0.2")


def test_criterion_02_conservation(smooth_run):
    mass = smooth_run.records.mass
    mass_drift = float(np.max(np.abs(mass - mass[0])))
    mass_ok = smooth_run.n_steps >= 1000 and mass_drift <= 1e-12

    def drift(n, dt):
        grid = PeriodicGrid(n)
        params = poly_params()
        config = SolverConfig(dt=dt, t_end=0.05, bounds=(0.05, 20.0),
                              upwind=0.0, snapshot_every=10 ** 9)
        rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
        state = FluidState.make(grid, rho0, grid.zeros(), params)
        final = nsk_run(state, params, config).snapshots[-1]
        return abs(mean(grid, final.rho * final.u)
                   - mean(grid, state.rho * state.u))

    d1, d2 = drift(64, 4e-5), drift(128, 2e-5)
    momentum_ok = d1 / d2 >= 3.0
    report(2, mass_ok and momentum_ok,
           f"conservation: mass drift {mass_drift:.2e} <= 1e-12 over "
           f"{smooth_run.n_steps} steps; momentum refinement ratio "
           f"{d1 / d2:.2f} >= 3")


def test_criterion_03_energy_dissipation(smooth_run):
    rep = balance_check(smooth_run.records)
    e0 = smooth_run.records.energy[0]
    base_ok = rep["energy_ok"] and rep["energy_residual"] <= 0.01 * e0

    def residual(n, dt):
        grid = PeriodicGrid(n)
        params = poly_params()
        config = SolverConfig(dt=dt, t_end=0.05, bounds=(0.05, 20.0),
                              upwind=0.0, snapshot_every=10 ** 9)
        rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
        traj = nsk_run(FluidState.make(grid, rho0, grid.zeros(), params),
                       params, config)
        return balance_check(traj.records)["energy_residual"]

    r1, r2 = residual(64, 2e-4), residual(128, 5e-5)
    order = np.log2(r1 / r2)
    report(3, base_ok and order >= 1.5,
           f"energy: residual {rep['energy_residual']:.2e} <= 1% of E0 = "
           f"{e0:.3e}, final increase {rep['energy_increase']:.2e} <= 1e-6 E0, "
           f"refinement order {order:.2f} >= 1.5")


def test_criterion_04_bd_entropy(smooth_run):
    grid = PeriodicGrid(128)
    mu = smooth_run.params.mu
    rho = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
    lhs = rho * derivative(grid, mu * (1.0 - 1.0 / rho), 1, "spectral") ** 2
    rhs = (4.0 * mu ** 2
           * derivative(grid, 1.0 / np.sqrt(rho), 1, "spectral") ** 2)
    identity_err = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    identity_ok = identity_err <= 1e-10

    rate = 4.0 * smooth_run.params.gamma * smooth_run.dxc_sup
    rep = balance_check(smooth_run.records, gronwall_rate=rate)
    report(4, identity_ok and rep["gronwall_ok"],
           f"bd entropy: drift identity rel err {identity_err:.2e} <= 1e-10; "
           f"eta below Gronwall envelope (margin {rep['gronwall_margin']:.3e})")


def test_criterion_05_dispersion():
    params = poly_params()
    rho_bar, k = 1.0, 1
    w = 2 * np.pi * k
    s_k = params.gamma / (params.kappa * w ** 2 + params.gamma)
    dp_art = float(params.eos.d_artificial_pressure(np.array(rho_bar)))
    a_k = np.array([
        [0.0, -1j * w * rho_bar],
        [1j * w * (params.gamma * s_k - dp_art / rho_bar),
         -params.mu * w ** 2 / rho_bar]])
    lam = np.linalg.eigvals(a_k)
    analytic = lam[np.argsort(lam.imag)]

    grid = PeriodicGrid(256)
    config = SolverConfig(dt=2e-5, t_end=0.25, bounds=(0.05, 20.0),
                          upwind=0.0, snapshot_every=250)
    rho0 = rho_bar + 0.01 * np.sin(2 * np.pi * k * grid.x)
    traj = nsk_run(FluidState.make(grid, rho0, grid.zeros(), params), params,
                   config)
    ts = traj.snapshot_times
    vecs = np.array([[np.fft.rfft(s.rho - rho_bar)[k] / grid.n,
                      np.fft.rfft(s.u)[k] / grid.n] for s in traj.snapshots]).T
    m, *_ = np.linalg.lstsq(vecs[:, :-1].T, vecs[:, 1:].T, rcond=None)
    lam_meas = np.log(np.linalg.eigvals(m.T)) / (ts[1] - ts[0])
    measured = lam_meas[np.argsort(lam_meas.imag)]
    rel = np.max(np.abs(measured - analytic) / np.abs(analytic))
    report(5, rel <= 1e-3,
           f"dispersion: measured {np.round(measured, 4)} vs analytic "
           f"{np.round(analytic, 4)}, rel err {rel:.2e} <= 1e-3")


def test_criterion_06_bn_nsk_degeneracy():
    grid = PeriodicGrid(512)
    params = poly_params()
    config = SolverConfig(dt=1e-4, t_end=0.1, bounds=(0.05, 20.0),
                          snapshot_every=100)
    rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
    u0 = 0.1 * np.cos(2 * np.pi * grid.x)
    nsk_traj = nsk_run(FluidState.make(grid, rho0, u0, params), params,
                       config)
    bn_traj = bn_run(BNState.make(grid, 1.0, rho0, rho0, u0, params), params,
                     config)
    err = max(max(np.max(np.abs(sb.rho_p - sn.rho)),
                  np.max(np.abs(sb.u - sn.u)))
              for sb, sn in zip(bn_traj.snapshots, nsk_traj.snapshots))
    report(6, err <= 1e-8,
           f"pure-phase degeneracy: max |BN - NSK| {err:.2e} <= 1e-8 "
           f"over [0, 0.1] at N = 512")


def test_criterion_07_homogeneous_relaxation(homogeneous_relaxation,
                                             relaxation_oracle):
    params = homogeneous_relaxation.params
    snapshots = homogeneous_relaxation.snapshots[::5]   # every 250th step
    v = relaxation_oracle([0.4, 1.5, 0.5], params, 1.0)
    final = snapshots[-1]
    ode_err = max(abs(final.alpha_p[0] - v[0]), abs(final.rho_p[0] - v[1]),
                  abs(final.rho_m[0] - v[2]))

    gaps = [abs(float(params.eos.artificial_pressure(s.rho_p[0])
                      - params.eos.artificial_pressure(s.rho_m[0])))
            for s in snapshots]
    monotone = all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))
    report(7, ode_err <= 1e-6 and monotone and gaps[-1] < 1e-6,
           f"homogeneous relaxation: DOP853-oracle err {ode_err:.2e} <= 1e-6, "
           f"pressure gap monotone to {gaps[-1]:.2e} < 1e-6")


def test_criterion_08_picard():
    grid = PeriodicGrid(32)
    eos = PolytropicEOS(1.0, 2.0, 1.0)
    mu, t_end = 0.5, 0.2
    times = np.linspace(0.0, t_end, 201)
    pi_val = float(eos.artificial_pressure(np.array(1.2)))
    u = np.zeros((times.size, grid.n))
    pi = np.full((times.size, grid.n), pi_val)
    a, r, info = picard_bn(grid, np.full(grid.n, 0.7), np.full(grid.n, 0.9),
                           u, pi, times, eos, mu=mu, tol=1e-11)
    ratios_ok = all(rat < 1.0 for slab in info["slabs"]
                    for rat in slab["ratios"])

    def ode(v, steps):
        fine = t_end / steps

        def rhs(w):
            a_, r_ = w
            pa = float(eos.artificial_pressure(np.array(r_)))
            return np.array([a_ * (pa - pi_val), r_ * (pi_val - pa)]) / mu

        for _ in range(steps):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * fine * k1)
            k3 = rhs(v + 0.5 * fine * k2)
            k4 = rhs(v + fine * k3)
            v = v + fine / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        return v

    ref = ode(np.array([0.7, 0.9]), 20000)
    ode_err = max(abs(a[-1, 0] - ref[0]), abs(r[-1, 0] - ref[1]))

    # cross-check against the stepper, frozen velocity, pi recomputed per pass
    params = PhysicalParams(mu=mu, kappa=0.02, eos=eos)
    grid2 = PeriodicGrid(64)
    u_field = 0.2 * np.sin(2 * np.pi * grid2.x)
    alpha0 = np.full(grid2.n, 0.4) + 0.1 * np.sin(2 * np.pi * grid2.x)
    rp0, rm0 = np.full(grid2.n, 1.5), np.full(grid2.n, 0.6)

    def cross_err(dt):
        short = 0.02
        tgrid = np.arange(0.0, short + 0.5 * dt, dt)
        config = SolverConfig(dt=dt, t_end=short, bounds=(0.05, 20.0),
                              snapshot_every=10 ** 9)
        from phasekit.bn import bn_step
        state = BNState.make(grid2, alpha0, rp0, rm0, u_field, params)
        for _ in range(tgrid.size - 1):
            new = bn_step(state, params, config, config.dt)
            state = BNState(grid2, new.t, new.alpha, new.rho, u_field.copy(),
                            new.c)
        u_series = np.tile(u_field, (tgrid.size, 1))
        ap = np.tile(alpha0, (tgrid.size, 1))
        am, rp, rm = 1.0 - ap, np.tile(rp0, (tgrid.size, 1)), np.tile(
            rm0, (tgrid.size, 1))
        for _ in range(8):
            pi_f = (ap * eos.artificial_pressure(rp)
                    + am * eos.artificial_pressure(rm))
            ap, rp, _ = picard_bn(grid2, alpha0, rp0, u_series, pi_f, tgrid,
                                  eos, mu=mu, tol=1e-11)
            am_new, rm, _ = picard_bn(grid2, 1.0 - alpha0, rm0, u_series,
                                      pi_f, tgrid, eos, mu=mu, tol=1e-11)
            am = am_new
        return (np.max(np.abs(state.alpha_p - ap[-1]))
                + np.max(np.abs(state.rho_p - rp[-1])))

    e1, e2 = cross_err(2e-3), cross_err(1e-3)
    cross_ok = e2 < e1 and e1 / e2 >= 1.5
    report(8, ratios_ok and ode_err <= 1e-6 and cross_ok,
           f"picard: contraction ratios < 1 on all accepted slabs, ODE-oracle "
           f"err {ode_err:.2e} <= 1e-6, stepper agreement O(dt) "
           f"(errors {e1:.2e} -> {e2:.2e})")


def test_criterion_09_kinetic_residuals():
    box = (0.25, 3.2)
    params = poly_params()

    grid = PeriodicGrid(64)
    config = SolverConfig(dt=1e-3, t_end=0.05, bounds=box, snapshot_every=1)
    const = nsk_run(FluidState.make(grid, grid.constant(1.3),
                                    grid.constant(0.4), params), params,
                    config)
    zero_max = max(kinetic_consistency(const).values())
    zero_ok = zero_max <= 1e-13

    def nsk_res(n, dt, t_end=0.04):
        g = PeriodicGrid(n)
        cfg = SolverConfig(dt=dt, t_end=t_end, bounds=box, snapshot_every=1,
                           upwind=0.0)
        rho0 = (1.0 + 0.2 * np.sin(2 * np.pi * g.x)
                + 0.05 * np.cos(4 * np.pi * g.x + 0.7))
        traj = nsk_run(FluidState.make(g, rho0, g.zeros(), params), params,
                       cfg)
        return np.array(list(kinetic_consistency(traj).values()))

    def bn_res(n, dt, t_end=0.04):
        g = PeriodicGrid(n)
        cfg = SolverConfig(dt=dt, t_end=t_end, bounds=box, snapshot_every=1,
                           upwind=0.0)
        alpha0 = 0.5 + 0.2 * np.sin(2 * np.pi * g.x + 0.3)
        state = BNState.make(g, alpha0, 1.5, 0.7,
                             0.1 * np.cos(2 * np.pi * g.x), params)
        traj = bn_run(state, params, cfg)
        return np.array(list(kinetic_consistency(traj).values()))

    orders = []
    for fn in (nsk_res, bn_res):
        coarse, fine = fn(64, 4e-4), fn(128, 1e-4)
        orders.append(np.log2(np.max(coarse) / np.max(fine)))
    order_ok = all(o >= 1.0 for o in orders)
    report(9, zero_ok and order_ok,
           f"kinetic equation: constant-state residual {zero_max:.2e} <= "
           f"1e-13; refinement orders (empirical, two-Dirac) "
           f"{np.round(orders, 2)} >= 1")


@pytest.fixture(scope="module")
def reference_family():
    return run_family(family_config((4, 8, 16, 32), 0.8, 1.6, 2048))


def test_criterion_10_homogenization(reference_family):
    rep = reference_family
    slack_ok = rep.monotone_dist and rep.monotone_uerr
    decrease_ok = (rep.sup_dist[-1] < rep.sup_dist[0]
                   and rep.sup_uerr[-1] < rep.sup_uerr[0])

    degenerate = run_family(family_config((4, 8, 16), 1.2, 1.2, 1024))
    degenerate_ok = all(np.max(d) <= 1e-9 for d in degenerate.dist_series)
    report(10, slack_ok and decrease_ok and degenerate_ok,
           f"homogenization at N=2048, n=(4,8,16,32): sup_t distances "
           f"{np.round(rep.sup_dist, 5)} and velocity errors "
           f"{np.round(rep.sup_uerr, 5)} decrease within 20% slack; "
           f"degenerate family distances <= 1e-9")


def test_criterion_11_admissibility_gate(tmp_path, capsys):
    accepted = check_admissibility(
        VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=2.0), 0.0, 0.999)
    rejected = check_admissibility(
        VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=0.0), 0.0, 0.999)
    values_ok = (accepted.admissible and not rejected.admissible
                 and rejected.spinodal is not None
                 and rejected.spinodal[0] < 0.3 < rejected.spinodal[1])

    cfg = tmp_path / "gate.cfg"
    cfg.write_text("[eos]\ntype = van_der_waals\nA = 1.0\nB = 1.0\nR = 1.0\n"
                   "T_star = 0.2\n\n[physics]\ngamma = 0.0\n\n[bounds]\n"
                   "m0 = 1.0\n")
    code = main(["check-eos", "--config", str(cfg)])
    capsys.readouterr()
    report(11, values_ok and code == 3,
           f"admissibility gate: gamma=2 accepted, gamma=0 rejected with "
           f"spinodal {np.round(rejected.spinodal, 4)} containing 0.3; "
           f"check-eos exit code {code} == 3")


def test_criterion_12_determinism(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
[physics]
mu = 0.1
kappa = 0.1
gamma = 2.0

[grid]
n = 256

[time]
dt = 4e-4
t_end = 0.02
snapshot_every = 10

[bounds]
m0 = 1.4

[init]
v_minus = 0.8
v_plus = 1.6

[harness]
n_list = 2, 4
""")
    assert main(["homogenize", "--config", str(cfg), "--out", "run_a"]) == 0
    assert main(["homogenize", "--config", str(cfg), "--out", "run_b"]) == 0
    capsys.readouterr()
    blob_a = (tmp_path / "run_a" / "convergence.csv").read_bytes()
    blob_b = (tmp_path / "run_b" / "convergence.csv").read_bytes()
    report(12, blob_a == blob_b and len(blob_a) > 0,
           f"determinism: two homogenize invocations produced byte-identical "
           f"convergence.csv ({len(blob_a)} bytes)")
