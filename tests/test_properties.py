"""Property tests over randomly drawn admissible data."""

import json
from functools import partial

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from scipy.linalg import solve_banded  # noqa: E402

from phasekit.bn import (BNState, bn_step, cubic_interp_periodic,  # noqa: E402
                         transport_with_source)
from phasekit.config import RunConfig, parse_config  # noqa: E402
from phasekit.diagnostics import compute_record  # noqa: E402
from phasekit.eos import PolytropicEOS, VanDerWaalsEOS  # noqa: E402
from phasekit.nsk import (FluidState, PhysicalParams,  # noqa: E402
                          SolverConfig, continuity_update, momentum_update,
                          nsk_step, sound_speed_max)
from phasekit.torus import (PeriodicGrid, derivative,  # noqa: E402
                            helmholtz_solve, l2_norm, max_norm, mean,
                            sobolev_norm, solve_cyclic_tridiagonal)

FAST = settings(max_examples=30, deadline=None)


def banded_cyclic_oracle(lower, diag, upper, rhs):
    """The cyclic solve written on scipy's solve_banded, which builds the
    band matrix and checks the arguments that the direct gtsv call skips,
    with u scaled by 2^s, s = 900 - e clamped to [0, 900], and v @ y and
    v @ z read in closed form, as the docstring of the solve states them.
    The scaling moves no bit unless the unscaled sweep of u goes subnormal;
    these draws, with their subnormal and zero entries, make that happen
    in about 1 draw in 180, where the unscaled solve differs in signed
    zeros and subnormal results.  test_torus checks the scaled solve
    against the unscaled one on systems whose bits it must keep."""
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    alpha = -diag[0]
    v_last = lower[0] / alpha
    ab[1, 0] = diag[0] - alpha
    ab[1, n - 1] = diag[n - 1] - upper[n - 1] * v_last
    e = np.frexp(max(abs(alpha), abs(upper[n - 1])))[1] - 1
    s = min(900, max(0, 900 - int(e)))
    u = np.zeros(n)
    u[0] = np.ldexp(alpha, s)
    u[n - 1] = np.ldexp(upper[n - 1], s)
    y, z = solve_banded((1, 1), ab, np.column_stack([rhs, u]),
                        check_finite=False).T
    z = np.ldexp(z, -s)
    return y - z * (y[0] + v_last * y[n - 1]) / (1.0 + (z[0] + v_last * z[n - 1]))


@FAST
@given(data=st.data(), n=st.integers(3, 64))
def test_cyclic_tridiagonal_matches_dense_solve(data, n):
    entries = hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0))
    lower, upper, rhs = (data.draw(entries) for _ in range(3))
    margin = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 2.0)))
    diag = np.abs(lower) + np.abs(upper) + margin
    rows = np.arange(n)
    dense = np.diag(diag)
    dense[rows, (rows - 1) % n] += lower
    dense[rows, (rows + 1) % n] += upper
    expected = np.linalg.solve(dense, rhs)
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))
    assert same_bits(x, banded_cyclic_oracle(lower, diag, upper, rhs))


def smooth_field(modes, grid, base):
    """base + sum a cos(2 pi k x + phase) over the drawn (k, a, phase)."""
    f = np.full(grid.n, base)
    for k, a, phase in modes:
        f = f + a * np.cos(2 * np.pi * k * grid.x + phase)
    return f


def modes(max_amp):
    """Up to four Fourier modes, k <= 8, amplitudes summing to <= max_amp."""
    return st.lists(st.tuples(st.integers(1, 8),
                              st.floats(-max_amp / 4, max_amp / 4),
                              st.floats(0.0, 2 * np.pi)), max_size=4)


@FAST
@given(n=st.sampled_from([32, 64, 128, 256]), rho_modes=modes(0.8),
       u_modes=modes(2.0), u_mean=st.floats(-1.0, 1.0),
       courant=st.floats(0.01, 0.5), upwind=st.floats(0.0, 1.0))
def test_continuity_update_conserves_mass(n, rho_modes, u_modes, u_mean,
                                          courant, upwind):
    grid = PeriodicGrid(n)
    rho = smooth_field(rho_modes, grid, 1.0)
    u = smooth_field(u_modes, grid, u_mean)
    dt = courant * grid.h / (1.0 + np.max(np.abs(u)))
    rho_new = continuity_update(grid, rho, u, dt, upwind)
    mass = mean(grid, rho)
    assert abs(mean(grid, rho_new) - mass) <= n * np.finfo(float).eps * mass


@FAST
@given(n=st.sampled_from([32, 64, 128]), law=st.sampled_from(["vdw", "poly"]),
       rho_modes=modes(0.4), u_modes=modes(1.0), u_mean=st.floats(-1.0, 1.0),
       courant=st.floats(0.01, 1.0), upwind=st.floats(0.0, 1.0))
def test_pure_phase_bn_step_is_nsk_step(n, law, rho_modes, u_modes, u_mean,
                                        courant, upwind):
    # alpha_p = 1 and rho_p = rho_m = rho: five BN steps equal five NSK
    # steps of the same explicit length bit for bit
    grid = PeriodicGrid(n)
    eos = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0) if law == "vdw" else \
        PolytropicEOS(1.0, 2.0, 2.0)
    params = PhysicalParams(mu=0.1, kappa=0.1, gamma=2.0, eos=eos)
    config = SolverConfig(dt=1.0, t_end=1.0, upwind=upwind)
    rho = smooth_field(rho_modes, grid, 1.0)
    u = smooth_field(u_modes, grid, u_mean)
    dt = courant * grid.h / (1.0 + np.max(np.abs(u)))
    nsk = FluidState.make(grid, rho, u, params)
    bn = BNState.make(grid, 1.0, rho, rho, u, params)
    for _ in range(5):
        nsk = nsk_step(nsk, params, config, dt=dt)
        bn = bn_step(bn, params, config, dt=dt)
        for field in (bn.rho_p, bn.rho_m, bn.mixture_density):
            assert np.array_equal(field, nsk.rho)
        assert np.array_equal(bn.u, nsk.u) and np.array_equal(bn.c, nsk.c)


def stack_of(data, grid, k, max_amp, base):
    """k smooth fields drawn row by row, as a (k, n) array."""
    return np.stack([smooth_field(data.draw(modes(max_amp)), grid, base)
                     for _ in range(k)])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@FAST
@given(data=st.data(), n=st.integers(4, 256).map(lambda k: 2 * k),
       k=st.integers(1, 6), base=st.floats(-2.0, 2.0),
       courant=st.floats(0.01, 1.0), upwind=st.floats(0.0, 1.0))
def test_stacked_kernels_equal_row_by_row_calls(data, n, k, base, courant,
                                                upwind):
    grid = PeriodicGrid(n)
    f = stack_of(data, grid, k, 3.0, base)
    for backend in ("central", "spectral"):
        for order in (1, 2):
            assert same_bits(derivative(grid, f, order, backend),
                             [derivative(grid, row, order, backend) for row in f])
    for norm in (partial(mean, grid), partial(l2_norm, grid), max_norm,
                 partial(sobolev_norm, grid, order=0),
                 partial(sobolev_norm, grid, order=2)):
        rows = [norm(row) for row in f]
        assert all(type(v) is float for v in rows)
        assert same_bits(norm(f), rows)

    # the step kernels on a batch of k density and velocity fields
    eos = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0)
    params = PhysicalParams(mu=0.1, kappa=0.1, gamma=2.0, eos=eos)
    rho = stack_of(data, grid, k, 0.6, 1.0)
    u = stack_of(data, grid, k, 2.0, base)
    dt = courant * grid.h / (1.0 + np.max(np.abs(u)))
    speeds = [sound_speed_max(r, v, eos) for r, v in zip(rho, u)]
    assert all(type(v) is float for v in speeds)
    assert same_bits(sound_speed_max(rho, u, eos), speeds)
    c = helmholtz_solve(grid, rho, params.kappa, params.gamma)
    assert same_bits(c, [helmholtz_solve(grid, r, params.kappa, params.gamma)
                         for r in rho])
    rho_new = continuity_update(grid, rho, u, dt, upwind)
    assert same_bits(rho_new, [continuity_update(grid, r, v, dt, upwind)
                               for r, v in zip(rho, u)])
    for form in ("artificial", "original"):
        assert same_bits(
            momentum_update(grid, rho_new, rho, u, c, params, dt, form),
            [momentum_update(grid, *rows, params, dt, form)
             for rows in zip(rho_new, rho, u, c)])
        config = SolverConfig(dt=1.0, t_end=1.0, upwind=upwind,
                              force_form=form)
        batch = nsk_step(FluidState(grid, 0.5, rho, u, c), params, config,
                         dt=dt)
        rows = [nsk_step(FluidState(grid, 0.5, *fields), params, config,
                         dt=dt) for fields in zip(rho, u, c)]
        assert all(s.t == batch.t for s in rows)
        for name in ("rho", "u", "c"):
            assert same_bits(getattr(batch, name),
                             [getattr(s, name) for s in rows])


def interp_oracle(f, pos, h):
    """cubic_interp_periodic of one field with the modulo gather."""
    n = f.size
    g = (pos % 1.0) / h
    j = np.floor(g).astype(int)
    s = g - j
    w_m1 = -s * (s - 1.0) * (s - 2.0) / 6.0
    w_0 = (s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0
    w_p1 = -(s + 1.0) * s * (s - 2.0) / 2.0
    w_p2 = (s + 1.0) * s * (s - 1.0) / 6.0
    return (w_m1 * f[(j - 1) % n] + w_0 * f[j % n]
            + w_p1 * f[(j + 1) % n] + w_p2 * f[(j + 2) % n])


def positions(n):
    """Interpolation positions: arbitrary reals, the nodes and their
    periodic images, and the edge cases of pos % 1.0 (the largest double
    below 1, and tiny negatives, which round up to 1.0)."""
    return st.one_of(
        st.floats(-3.0, 3.0),
        st.integers(-n, 3 * n).map(lambda i: i / n),
        st.sampled_from([1.0 - 2.0 ** -53, 2.0 - 2.0 ** -52, -2.0 ** -60,
                         -1e-300, -0.0, 1.0, 2.0]))


@FAST
@given(data=st.data(), n=st.integers(4, 256).map(lambda k: 2 * k),
       k=st.integers(1, 4), law=st.sampled_from(["vdw", "poly"]),
       courant=st.floats(0.01, 1.0), upwind=st.floats(0.0, 1.0))
def test_stacked_phase_kernels_equal_per_phase_calls(data, n, k, law, courant,
                                                     upwind):
    # each kernel bn_step runs on a (2, n) phase stack is bitwise its two
    # per-phase calls
    grid = PeriodicGrid(n)
    eos = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0) if law == "vdw" else \
        PolytropicEOS(1.0, data.draw(st.floats(2.0, 4.0)), 2.0)
    pair = stack_of(data, grid, 2, 0.6, 1.0)
    batch = np.stack([stack_of(data, grid, k, 0.6, 1.0) for _ in range(2)])
    for kernel in (eos.artificial_pressure, eos.d_artificial_pressure):
        for rho in (pair, batch):   # (2, n) and (2, k, n)
            assert same_bits(kernel(rho), [kernel(r) for r in rho])

    alpha = stack_of(data, grid, 2, 3.0, 0.0)
    pos = data.draw(hnp.arrays(np.float64, n, elements=positions(n)))
    rows = [cubic_interp_periodic(a, pos, grid.h) for a in alpha]
    assert same_bits(cubic_interp_periodic(alpha, pos, grid.h), rows)
    assert same_bits(rows, [interp_oracle(a, pos, grid.h) for a in alpha])

    u = smooth_field(data.draw(modes(2.0)), grid, 0.0)
    dt = courant * grid.h / (1.0 + np.max(np.abs(u)))
    assert same_bits(continuity_update(grid, pair, u, dt, upwind),
                     [continuity_update(grid, r, u, dt, upwind) for r in pair])

    # picard_bn carries its (alpha, rho) pair along one velocity series
    times = dt * np.arange(data.draw(st.integers(2, 4)))
    u_series = stack_of(data, grid, times.size, 2.0, 0.0)
    f_pair = np.stack([stack_of(data, grid, times.size, 1.0, 0.0)
                       for _ in range(2)])
    assert same_bits(transport_with_source(grid, alpha, u_series, f_pair, times),
                     [transport_with_source(grid, a, u_series, f, times)
                      for a, f in zip(alpha, f_pair)])


@FAST
@given(n=st.sampled_from([32, 64, 128]), alpha_modes=modes(0.48),
       rho_p_modes=modes(0.4), rho_m_modes=modes(0.4), u_modes=modes(0.5),
       mu=st.floats(0.01, 1.0))
def test_bn_step_keeps_the_closure(n, alpha_modes, rho_p_modes, rho_m_modes,
                                   u_modes, mu):
    # |alpha_p + alpha_m - 1| stays within 2 ulp over CFL-limited steps;
    # the largest drift seen, over 400 such draws and 300 bn-512 steps, is
    # 1 ulp (2.2e-16)
    grid = PeriodicGrid(n)
    eos = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0)
    params = PhysicalParams(mu=mu, kappa=0.1, gamma=2.0, eos=eos)
    config = SolverConfig(dt=1.0, t_end=1.0, cfl=0.4)
    state = BNState.make(grid, smooth_field(alpha_modes, grid, 0.5),
                         smooth_field(rho_p_modes, grid, 0.8),
                         smooth_field(rho_m_modes, grid, 1.6),
                         smooth_field(u_modes, grid, 0.0), params)
    for _ in range(10):
        speed = max(sound_speed_max(rho, state.u, eos)
                    for rho in (state.rho_p, state.rho_m))
        state = bn_step(state, params, config, dt=config.cfl * grid.h / speed)
        assert state.closure_drift() <= 2.0 * np.finfo(float).eps


def record_bits(records):
    return np.array([r.as_row() for r in records]).tobytes()


@FAST
@given(data=st.data(), n=st.integers(4, 128).map(lambda k: 2 * k),
       k=st.integers(1, 6), two_phase=st.booleans())
def test_stacked_record_equals_per_state_records(data, n, k, two_phase):
    grid = PeriodicGrid(n)
    eos = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0)
    params = PhysicalParams(mu=0.1, kappa=0.1, gamma=2.0, eos=eos)
    rho = stack_of(data, grid, k, 0.6, 1.0)
    u = stack_of(data, grid, k, 2.0, 0.0)
    times = data.draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k))
    if two_phase:
        alpha = stack_of(data, grid, k, 0.4, 0.5)
        ratio = stack_of(data, grid, k, 0.4, 1.0)
        states = [BNState.make(grid, a, r, r * q, v, params, t=t)
                  for a, r, q, v, t in zip(alpha, rho, ratio, u, times)]
        stacked = BNState.stack(states)
    else:
        states = [FluidState.make(grid, r, v, params, t=t)
                  for r, v, t in zip(rho, u, times)]
        stacked = FluidState.stack(states)
    records = compute_record(stacked, params).unstack()
    per_state = [compute_record(s, params) for s in states]
    assert all(type(v) is float for r in records for v in r.as_row())
    assert record_bits(records) == record_bits(per_state)


def positive(hi):
    return st.floats(1e-6, hi, allow_nan=False, allow_infinity=False)


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def unit_open():
    return st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def with_ramp_width(init):
    """init with a ramp width delta in (0, min(theta, 1 - theta)]."""
    ramp_max = min(init["theta"], 1.0 - init["theta"])
    return st.floats(0.0, ramp_max, exclude_min=True).map(
        lambda delta: {**init, "delta": delta})


# valid configs: every value inside the range its owner accepts
CONFIGS = st.fixed_dictionaries({
    "physics": st.fixed_dictionaries({
        "mu": positive(10.0), "kappa": positive(10.0),
        "gamma": finite(0.0, 10.0)}),
    "eos": st.fixed_dictionaries({
        "type": st.sampled_from(["van_der_waals", "polytropic"]),
        "A": positive(10.0), "B": positive(10.0), "R": positive(10.0),
        "T_star": positive(10.0), "a": positive(10.0),
        "beta": finite(2.0, 6.0)}),
    "grid": st.fixed_dictionaries({"n": st.integers(4, 4096).map(lambda k: 2 * k)}),
    "time": st.fixed_dictionaries({
        "dt": positive(1.0), "cfl": st.floats(0.0, 1.0, exclude_min=True),
        "t_end": positive(10.0), "snapshot_every": st.integers(1, 1000)}),
    "bounds": st.fixed_dictionaries({
        "m0": st.floats(0.5, 100.0, exclude_min=True)}),
    "init": st.fixed_dictionaries({
        "profile": st.sampled_from(["two_value", "constant"]),
        "rho0": positive(10.0), "v_minus": positive(10.0),
        "v_plus": positive(10.0), "theta": unit_open(),
        "n_osc": st.integers(1, 64),
        "u0": finite(-10.0, 10.0), "u0_mode": st.integers(-8, 8),
        "u0_amp": finite(-10.0, 10.0)}).flatmap(with_ramp_width),
    "bn": st.fixed_dictionaries({
        "from_profile": st.booleans(), "alpha_p": finite(0.0, 1.0),
        "rho_p": positive(10.0), "rho_m": positive(10.0)}),
    "harness": st.fixed_dictionaries({
        "n_list": st.lists(st.integers(1, 64), min_size=1, max_size=5,
                           unique=True).map(sorted),
        "upwind": finite(0.0, 2.0)}),
    "output": st.fixed_dictionaries({
        "directory": st.text("abcxyz0123_-/.", min_size=1, max_size=12)}),
})


def config_text(config) -> str:
    """The config file that spells out every value of `config`."""
    lines = []
    for section, values in config.to_dict().items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@FAST
@given(payload=CONFIGS)
def test_config_round_trips(payload):
    config = RunConfig.from_dict(payload)
    assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    assert parse_config(config_text(config)) == config
