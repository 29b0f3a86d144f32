import re

import numpy as np
import pytest

from phasekit import harness
from phasekit.eos import PolytropicEOS, VanDerWaalsEOS
from phasekit.errors import BoundsError
from phasekit.harness import (FamilyConfig, kinetic_consistency,
                              limit_initial_data, run_family, suggest_dt)
from phasekit.measures import smoke_test_set
from phasekit.nsk import (FluidState, PhysicalParams, SolverConfig,
                          make_oscillating_initial, nsk_run)
from phasekit.torus import PeriodicGrid, mean


def vdw_params(mu=0.1, kappa=0.1, gamma=2.0):
    return PhysicalParams(mu=mu, kappa=kappa,
                          eos=VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, gamma))


def family(grid_n=256, n_list=(1, 2), t_end=0.02, v_minus=0.8, v_plus=1.6,
           snapshot_every=None):
    params = vdw_params()
    grid = PeriodicGrid(grid_n)
    dt = suggest_dt(params, (0.5, 2.0), 0.5, 0.4, grid)
    steps = max(1, round(t_end / dt))
    dt = t_end / steps
    solver = SolverConfig(dt=dt, t_end=t_end, cfl=0.4, bounds=(1 / 2.8, 2.8),
                          snapshot_every=snapshot_every or max(1, steps // 5))
    return FamilyConfig(n_list=n_list, v_minus=v_minus, v_plus=v_plus,
                        theta=0.5, delta=0.1, u0=0.0, params=params,
                        solver=solver, grid_n=grid_n)


def test_limit_initial_data_symmetric():
    grid = PeriodicGrid(512)
    alpha_p, alpha_m, rho_p, rho_m = limit_initial_data(0.8, 1.6, 0.5, 0.05,
                                                        grid)
    assert alpha_p == pytest.approx(0.5, abs=1e-12)
    assert alpha_m == pytest.approx(0.5, abs=1e-12)
    assert (rho_p, rho_m) == (1.6, 0.8)


def test_limit_initial_data_theta():
    grid = PeriodicGrid(512)
    alpha_p, alpha_m, _, _ = limit_initial_data(0.8, 1.6, 0.25, 0.05, grid)
    assert alpha_m == pytest.approx(0.25, abs=1e-10)
    assert alpha_p == pytest.approx(0.75, abs=1e-10)


def test_limit_initial_data_mass_consistency():
    # the stated guarantee is O(delta); in practice the symmetric ramps
    # leave only a sub-grid quadrature wiggle
    grid = PeriodicGrid(1024)
    for theta, delta in ((0.5, 0.1), (0.3, 0.08), (0.7, 0.05)):
        alpha_p, alpha_m, rho_p, rho_m = limit_initial_data(
            0.8, 1.6, theta, delta, grid)
        profile = make_oscillating_initial(grid, 0.8, 1.6, theta, 4, delta)
        assert (alpha_p * rho_p + alpha_m * rho_m
                == pytest.approx(mean(grid, profile), abs=1e-6))
    # ramp centers on the compressed lattice: agreement to round-off
    alpha_p, alpha_m, rho_p, rho_m = limit_initial_data(0.8, 1.6, 0.5, 0.1,
                                                        grid)
    aligned = make_oscillating_initial(grid, 0.8, 1.6, 0.5, 4, 0.1)
    assert (alpha_p * rho_p + alpha_m * rho_m
            == pytest.approx(mean(grid, aligned), abs=1e-12))


def test_limit_initial_data_degenerate():
    grid = PeriodicGrid(512)
    alpha_p, alpha_m, rho_p, rho_m = limit_initial_data(1.2, 1.2, 0.3, 0.05,
                                                        grid)
    assert alpha_m == pytest.approx(0.3)
    assert rho_p == rho_m == 1.2


@pytest.mark.parametrize("eos", [VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0),
                                 PolytropicEOS(1.0, 2.0, 1.0)],
                         ids=["van_der_waals", "polytropic"])
def test_suggest_dt_equals_its_written_out_form(eos):
    # max(|u| + c_s) is |u| + max c_s bitwise: rounding is monotone
    params = PhysicalParams(mu=0.1, kappa=0.1, eos=eos)
    for rho_range, u_max in (((0.5, 2.0), 0.5), ((0.3, 2.7), -0.3),
                             ((1e-3, 1.0), 0.0), ((0.8, 1.6), 1e3)):
        for n in (256, 2048):
            grid = PeriodicGrid(n)
            r = np.linspace(rho_range[0], rho_range[1], 257)
            smax = float(np.max(np.sqrt(np.maximum(
                eos.d_artificial_pressure(r), 0.0)))) + abs(u_max)
            assert (suggest_dt(params, rho_range, u_max, 0.4, grid)
                    == 0.7 * 0.4 * grid.h / smax)


def test_family_validation(monkeypatch):
    with pytest.raises(ValueError, match="n_list must not be empty"):
        family(n_list=())
    # the config loader reports the same rule with its [harness]. prefix
    with pytest.raises(ValueError, match=r"^n_list must be strictly "
                       r"increasing, got \[4, 2\]$"):
        family(n_list=(4, 2))
    with pytest.raises(ValueError, match=r"^n_list entries must be at "
                       r"least 1, got \[0, 2\]$"):
        family(n_list=(0, 2))
    with pytest.raises(ValueError):
        family(grid_n=128, n_list=(1, 4))
    # profile values outside the rails are the two-phase run's densities at
    # t = 0: its check stops the family before any member steps, and the
    # error names the two-phase reference
    monkeypatch.setattr(harness, "nsk_run", None)
    with pytest.raises(BoundsError, match=r"^two-phase reference from the "
                       r"\[init\] profile failed: density guard rail "
                       r"violated at t = 0:"):
        run_family(family(v_plus=5.0))


def test_degenerate_family_distances_vanish():
    report = run_family(family(v_minus=1.2, v_plus=1.2))
    for series in report.dist_series:
        assert np.max(series) <= 1e-9
    for series in report.uerr_series:
        assert np.max(series) <= 1e-9
    assert report.monotone_dist


def test_reference_family_behaviour():
    # members start at n = 4: with kappa = 0.1 the coupling stabilizes all
    # oscillation modes from 4 up (lower modes sit in the spinodal band)
    report = run_family(family(grid_n=512, n_list=(4, 8), t_end=0.05))
    assert report.monotone_dist
    assert report.monotone_uerr
    assert report.sup_dist[-1] < report.sup_dist[0]
    assert report.sup_uerr[-1] < report.sup_uerr[0]
    # uniqueness shadow: away-from-start distances stay within a moderate
    # multiple of the initial agreement plus the ramp floor
    for n, dists in zip(report.n_list, report.dist_series):
        c_measured = np.max(dists) / dists[0]
        print(f"\nuniqueness-shadow constant n={n}: {c_measured:.3f}")
        assert np.max(dists) <= 5.0 * dists[0] + 1e-3


def lift_above_the_rail(monkeypatch, members):
    """Members n in `members` start 1.5 denser (max 3.1 > upper rail 2.8);
    n = 1 also builds the two-phase data, which stays inside."""
    real_initial = harness.make_oscillating_initial

    def lifted(grid, v_minus, v_plus, theta, n, delta):
        rho0 = real_initial(grid, v_minus, v_plus, theta, n, delta)
        return rho0 + 1.5 if n in members else rho0

    monkeypatch.setattr(harness, "make_oscillating_initial", lifted)


def test_member_failure_aborts_with_partial_report(monkeypatch):
    lift_above_the_rail(monkeypatch, {2})
    with pytest.raises(BoundsError) as exc:
        run_family(family(n_list=(1, 2), t_end=0.01))
    partial = exc.value.partial_report
    assert partial is not None
    assert partial.n_list == (1,)
    assert list(partial.extras["failures"]) == [2]
    assert "guard rail violated" in partial.extras["failures"][2]


def test_family_whose_members_all_fail_has_no_partial_report(monkeypatch):
    lift_above_the_rail(monkeypatch, {2, 3})
    with pytest.raises(BoundsError, match=r"n=2: density guard rail violated "
                                          r"at t = 0: .*; n=3: density guard "
                                          r"rail violated at t = 0: ") as exc:
        run_family(family(n_list=(2, 3), t_end=0.01))
    assert exc.value.partial_report is None


RAIL_FAMILY = """
[grid]
n = 256

[time]
dt = 1e-3
t_end = 0.01
snapshot_every = 5

[harness]
n_list = {n_list}
"""


def homogenize(tmp_path, n_list):
    from phasekit.cli import main

    cfg = tmp_path / "fam.cfg"
    cfg.write_text(RAIL_FAMILY.format(n_list=n_list))
    out = tmp_path / "fam"
    return main(["homogenize", "--config", str(cfg), "--out", str(out)]), out


def test_cli_writes_the_partial_report_of_a_failed_family(monkeypatch,
                                                          tmp_path, capsys):
    lift_above_the_rail(monkeypatch, {2})
    code, out = homogenize(tmp_path, "1, 2")
    assert code == 4
    assert ("bounds failure: family aborted, member runs failed: n=2: "
            "density guard rail violated at t = 0") in capsys.readouterr().err
    # the report over n = 1, and no meta.json: the family did not finish
    assert sorted(p.name for p in out.iterdir()) == [
        "bn", "convergence.csv", "member_n1"]
    rows = (out / "convergence.csv").read_text().splitlines()
    assert [row.split(",", 1)[0] for row in rows[1:]] == ["1"]


def test_cli_writes_nothing_when_every_member_fails(monkeypatch, tmp_path,
                                                     capsys):
    lift_above_the_rail(monkeypatch, {2, 3})
    code, out = homogenize(tmp_path, "2, 3")
    assert code == 4
    assert "family aborted" in capsys.readouterr().err
    assert not out.exists()


def test_unresolvable_member_fails_before_any_run(monkeypatch):
    import phasekit.harness as hmod

    calls = []
    for name in ("bn_run", "nsk_run"):
        real = getattr(hmod, name)
        monkeypatch.setattr(hmod, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    cfg = family(grid_n=128, n_list=(1, 2))
    cfg.delta = 0.05   # n = 2 compresses the ramps below four cells
    with pytest.raises(ValueError, match="unresolved transitions"):
        run_family(cfg)
    assert calls == []


def test_kinetic_consistency_wrapper():
    params = vdw_params()
    grid = PeriodicGrid(128)
    solver = SolverConfig(dt=2e-4, t_end=0.02, bounds=(1 / 2.8, 2.8),
                          snapshot_every=1)
    rho0 = make_oscillating_initial(grid, 0.8, 1.6, 0.5, 1, 0.1)
    residuals = {}
    for t0 in (0.0, 0.013):
        traj = nsk_run(FluidState.make(grid, rho0, grid.zeros(), params, t=t0),
                       params, solver)
        residuals[t0] = kinetic_consistency(traj)
    assert set(residuals[0.0]) == {p.name for p in smoke_test_set(0.02)}
    assert all(np.isfinite(v) for v in residuals[0.0].values())
    # the time window spans the run, so a later start moves only round-off
    for name, value in residuals[0.013].items():
        assert value == pytest.approx(residuals[0.0][name], rel=1e-6,
                                      abs=1e-12), name


CFL_FAMILY = """
[physics]
mu = 0.1
kappa = 0.1
gamma = 2.0

[grid]
n = 128

[time]
dt = 0.02
t_end = 0.1
snapshot_every = 1

[bounds]
m0 = 1.4

[init]
profile = two_value
v_minus = 0.8
v_plus = 1.6

[harness]
n_list = 1, 2
"""


def test_family_above_the_cfl_bound_stops_before_writing(tmp_path, capsys):
    # dt = 0.02 lies above every member's initial CFL bound (5.6e-3)
    from phasekit.cli import main

    cfg = tmp_path / "cfl.cfg"
    cfg.write_text(CFL_FAMILY)
    out = tmp_path / "fam"
    assert main(["homogenize", "--config", str(cfg), "--out", str(out)]) == 2
    assert ("config error: member n=1 left the shared time grid "
            "(CFL-limited: True)") in capsys.readouterr().err
    assert not out.exists()


def coarse_step_family():
    cfg = family(grid_n=256, n_list=(1, 2), t_end=0.03)
    cfg.solver.dt, cfg.solver.snapshot_every = 1.5e-3, 4
    return cfg


def cfl_limited_n2_family(monkeypatch):
    # n = 2 starts 0.8 denser, which puts its CFL bound (1.2e-3 at t = 0)
    # below dt = 1.5e-3 and leaves n = 1's (2.8e-3) above it; the
    # members share one step length, so n = 1 leaves the time grid too
    import phasekit.harness as hmod

    cfg = coarse_step_family()
    real_initial = hmod.make_oscillating_initial

    def denser_n2(grid, v_minus, v_plus, theta, n, delta):
        rho0 = real_initial(grid, v_minus, v_plus, theta, n, delta)
        return rho0 + 0.8 if n == 2 else rho0

    monkeypatch.setattr(hmod, "make_oscillating_initial", denser_n2)
    return cfg


def test_family_names_the_cfl_limited_member(monkeypatch):
    from phasekit.errors import ConfigError

    cfg = cfl_limited_n2_family(monkeypatch)
    with pytest.raises(ConfigError, match=r"member n=2 left the shared time "
                                          r"grid \(CFL-limited: True\);"):
        run_family(cfg)


def test_family_names_a_cfl_limited_member_that_then_fails(monkeypatch):
    # the upper rail 2.405 lies above n = 2's initial maximum 2.4 and below
    # its peak (2.41 by t = 0.03), and above n = 1's (1.606): n = 2 leaves
    # its rails mid-run after CFL-limited steps, which moved n = 1 off the
    # time grid, so no partial report over n = 1 is assembled
    from phasekit.errors import ConfigError

    cfg = cfl_limited_n2_family(monkeypatch)
    cfg.solver.bounds = (1 / 2.8, 2.405)
    with pytest.raises(ConfigError) as exc:
        run_family(cfg)
    assert re.fullmatch(
        r"member n=2 left the shared time grid \(CFL-limited: True\) and "
        r"then failed: density guard rail violated at t = (\S+): range "
        r"\[\S+, \S+\] outside \[0\.357\d*, 2\.405\]; lower \[time\]\.dt "
        r"and rerun", str(exc.value))
    t_fail = float(re.search(r"at t = (\S+):", str(exc.value)).group(1))
    assert 0.0 < t_fail < 0.03


def test_family_names_a_cfl_limited_two_phase_reference(monkeypatch):
    # the two-phase run's plus phase starts 0.8 denser: its CFL bound falls
    # below dt = 1.5e-3 while both members' stay above it, so only the
    # reference leaves the time grid, and no member is blamed for it
    import phasekit.harness as hmod
    from phasekit.errors import ConfigError

    cfg = coarse_step_family()
    real_limit = hmod.limit_initial_data

    def denser_plus_phase(*args):
        alpha_p, alpha_m, rho_p, rho_m = real_limit(*args)
        return alpha_p, alpha_m, rho_p + 0.8, rho_m

    monkeypatch.setattr(hmod, "limit_initial_data", denser_plus_phase)
    with pytest.raises(ConfigError) as exc:
        run_family(cfg)
    assert str(exc.value) == ("the two-phase reference left the shared time "
                              "grid (CFL-limited: True); lower [time].dt and "
                              "rerun")
