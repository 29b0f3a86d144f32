"""Property tests over randomly drawn admissible data."""

import dataclasses
import json
from functools import partial

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402
from scipy.linalg import solveh_banded as solve_banded_h  # noqa: E402

from phasekit.bn import (BNState, _relaxation_flow,  # noqa: E402
                         _relaxation_substep, bn_step, cubic_interp_periodic,
                         trace_feet, transport_with_source)
from phasekit.config import parse_config  # noqa: E402
from phasekit.diagnostics import compute_record  # noqa: E402
from phasekit.eos import PolytropicEOS, VanDerWaalsEOS  # noqa: E402
from phasekit.nsk import (FluidState, PhysicalParams,  # noqa: E402
                          SolverConfig, _chunk_record, central_c_x,
                          continuity_update, momentum_update, nsk_step,
                          sound_speed_max)
from phasekit.torus import (_WINDOW_BITS, PeriodicGrid,  # noqa: E402
                            derivative, helmholtz_solve, l2_norm, max_norm,
                            mean, sobolev_norm, solve_cyclic_tridiagonal)

FAST = settings(max_examples=30, deadline=None)


def windowed_cyclic_oracle(diag, off, rhs):
    """The cyclic solve as its docstring states it, written out: y on
    scipy's solveh_banded (which calls the same ptsv), B's LDL^T factors
    and the column's substitutions on the two end windows as plain Python
    scalar loops in LAPACK's dpttrf and dptts2 order, W from the decay
    bound, and v.y and v.z read in closed form."""
    n = diag.size
    alpha = -diag[0]
    v_last = off / alpha
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - off * v_last
    ab = np.zeros((2, n))
    ab[0, 1:] = off
    ab[1] = d
    y = solve_banded_h(ab, rhs, check_finite=False)
    big_d, big_e = list(d), [off] * (n - 1)
    for i in range(n - 1):   # dpttrf
        ei = big_e[i]
        big_e[i] = ei / big_d[i]
        big_d[i + 1] = big_d[i + 1] - big_e[i] * ei
    q = abs(off) / min(diag)
    w = n
    if q < 0.5:
        r = 2.0 * q / (1.0 + np.sqrt(1.0 - 4.0 * q * q))
        w = int(np.ceil((_WINDOW_BITS + 2) / -np.log2(r))) if r > 0.0 else 1
    rows = list(range(n)) if 2 * w >= n else (
        list(range(w)) + list(range(n - w, n)))
    k = len(rows)
    zd = [big_d[i] for i in rows]
    ze = [big_e[i] if i + 1 in rows else 0.0 for i in rows[:-1]]
    z = [0.0] * k
    z[0], z[k - 1] = alpha, off
    for i in range(1, k):   # dptts2
        z[i] = z[i] - z[i - 1] * ze[i - 1]
    z[k - 1] = z[k - 1] / zd[k - 1]
    for i in range(k - 2, -1, -1):
        z[i] = z[i] / zd[i] - z[i + 1] * ze[i]
    v_y = y[0] + v_last * y[n - 1]
    v_z = z[0] + v_last * z[k - 1]
    x = y.copy()
    for j, i in enumerate(rows):
        x[i] = y[i] - z[j] * v_y / (1.0 + v_z)
    return x


@FAST
@given(data=st.data(), n=st.integers(3, 64))
def test_cyclic_tridiagonal_matches_dense_solve(data, n):
    off = data.draw(st.floats(-1.0, 1.0))
    rhs = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    margin = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 2.0)))
    diag = 2.0 * abs(off) + margin
    rows = np.arange(n)
    dense = np.diag(diag)
    dense[rows, (rows - 1) % n] += off
    dense[rows, (rows + 1) % n] += off
    expected = np.linalg.solve(dense, rhs)
    x = solve_cyclic_tridiagonal(diag, off, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-12 * (1.0 + np.max(np.abs(expected)))
    assert same_bits(x, windowed_cyclic_oracle(diag, off, rhs))


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
    params = PhysicalParams(mu=0.1, kappa=0.1, eos=eos)
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
    params = PhysicalParams(mu=0.1, kappa=0.1, eos=eos)
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
    # the artificial form the solvers run and the original form: the bare
    # pressure with the force gamma rho (c - rho)_x
    for force_c, p in ((c, params.eos.artificial_pressure(rho)),
                       (c - rho, params.eos.pressure(rho))):
        assert same_bits(
            momentum_update(grid, rho_new, rho, u,
                            central_c_x(grid, force_c), params, dt, p),
            [momentum_update(grid, *rows, central_c_x(grid, c_row), params,
                             dt, p_row)
             for *rows, c_row, p_row in zip(rho_new, rho, u, force_c, p)])
    config = SolverConfig(dt=1.0, t_end=1.0, upwind=upwind)
    batch = nsk_step(FluidState(grid, 0.5, rho, u, c), params, config, dt=dt)
    rows = [nsk_step(FluidState(grid, 0.5, *fields), params, config, dt=dt)
            for fields in zip(rho, u, c)]
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


def trace_feet_oracle(grid, u_start, u_mid, dt):
    """trace_feet with the np.remainder wrap."""
    x_half = grid.x - 0.5 * dt * u_start
    return (grid.x - dt * cubic_interp_periodic(u_mid, x_half, grid.h)) % 1.0


# velocities at node 0 whose foot, with dt = 1 and u_start = 0 on a grid of
# 2^k nodes, is exactly -u: tiny negatives, which wrap to 1.0, the largest
# doubles below 1 and 2, integers, and +0.0 from either zero (a foot of -0.0
# cannot arise: x_0 = +0.0 and +0.0 - y is never -0.0; interp_oracle covers
# the position -0.0)
EDGE_VELOCITIES = [2.0 ** -60, 1e-300, 5e-324, -(1.0 - 2.0 ** -53),
                   -(2.0 - 2.0 ** -52), 0.0, -0.0, 1.0, -1.0, -3.0, 2.0]


@pytest.mark.parametrize("u0", EDGE_VELOCITIES)
def test_trace_feet_wraps_edge_feet_as_remainder(u0):
    grid = PeriodicGrid(64)
    u_start = np.zeros(grid.n)
    u_mid = 0.5 + 0.25 * np.sin(2 * np.pi * grid.x)
    u_mid[0] = u0
    foot = grid.x[0] - cubic_interp_periodic(u_mid, grid.x, grid.h)[0]
    assert same_bits(foot, -u0 if u0 else 0.0)   # the edge value, unwrapped
    feet = trace_feet(grid, u_start, u_mid, 1.0)
    assert same_bits(feet, trace_feet_oracle(grid, u_start, u_mid, 1.0))
    if 0.0 < u0 < 1e-16:
        assert feet[0] == 1.0


@FAST
@given(data=st.data(), n=st.integers(4, 256).map(lambda k: 2 * k),
       dt=st.floats(-2.0, 2.0))
def test_trace_feet_equals_its_remainder_form(data, n, dt):
    # arbitrary velocities and step lengths, feet well outside [0, 1]
    grid = PeriodicGrid(n)
    u_start, u_mid = (data.draw(hnp.arrays(np.float64, n,
                                           elements=st.floats(-4.0, 4.0)))
                      for _ in range(2))
    assert same_bits(trace_feet(grid, u_start, u_mid, dt),
                     trace_feet_oracle(grid, u_start, u_mid, dt))


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


def continuity_oracle(grid, rho, u, dt, upwind):
    """continuity_update with its neighbours from np.roll."""
    m = rho * u
    flux = 0.5 * (m + np.roll(m, -1, axis=-1))
    if upwind > 0.0:
        nu = upwind * 0.5 * (np.abs(u) + np.abs(np.roll(u, -1, axis=-1)))
        flux = flux - nu * (np.roll(rho, -1, axis=-1) - rho)
    return rho - (dt / grid.h) * (flux - np.roll(flux, 1, axis=-1))


def momentum_oracle(grid, rho_new, rho, u, c, params, dt, p):
    """momentum_update with its neighbours from np.roll and each row's
    diagonal built for its own solve."""
    m = rho * u
    g = m * u + p
    g_half = 0.5 * (g + np.roll(g, -1, axis=-1))
    force = params.gamma * rho * derivative(grid, c, 1, "central")
    m_star = m - (dt / grid.h) * (g_half - np.roll(g_half, 1, axis=-1)) + dt * force
    a = 0.5 * params.mu * dt / grid.h ** 2
    rhs = m_star + a * (np.roll(u, -1, axis=-1) - 2.0 * u
                        + np.roll(u, 1, axis=-1))
    rows = [solve_cyclic_tridiagonal(r_new + 2.0 * a, -a, r)
            for r_new, r in zip(np.atleast_2d(rho_new), np.atleast_2d(rhs))]
    return np.reshape(rows, rhs.shape)


def relaxation_oracle(alpha_p, alpha_m, rho_p, rho_m, lam_int):
    """_relaxation_flow with no factor shared between its outputs."""
    g = np.exp(0.5 * lam_int)
    denom = alpha_p * g + alpha_m / g
    return (alpha_p * g / denom, (alpha_m / g) / denom,
            rho_p * (alpha_p + alpha_m / g ** 2),
            rho_m * (alpha_m + alpha_p * g ** 2))


def relaxation_substep_oracle(alpha_p, alpha_m, rho_p, rho_m, params, dt):
    """_relaxation_substep as two full flows, the first one's fractions
    discarded."""
    def gap(rp, rm):
        p_p, p_m = params.eos.artificial_pressure(np.array((rp, rm)))
        return (p_p - p_m) / params.mu

    _, _, rp_half, rm_half = relaxation_oracle(
        alpha_p, alpha_m, rho_p, rho_m, 0.5 * dt * gap(rho_p, rho_m))
    return relaxation_oracle(alpha_p, alpha_m, rho_p, rho_m,
                             dt * gap(rp_half, rm_half))


@FAST
@given(data=st.data(), n=st.integers(4, 128).map(lambda k: 2 * k),
       k=st.integers(1, 5), courant=st.floats(0.01, 1.0),
       upwind=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       mu=st.floats(1e-3, 1.0))
def test_step_kernels_equal_their_written_out_forms(data, n, k, courant,
                                                    upwind, mu):
    # bitwise, on arbitrary values: the flux kernels against their np.roll
    # forms, the relaxation flow against its formula and the relaxation
    # substep against its two-flow form, on one field, a phase pair and a
    # batch of k rows; a change in the order of operations fails here
    grid = PeriodicGrid(n)
    params = PhysicalParams(mu=mu, kappa=0.1,
                            eos=VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0))

    def draw(shape, lo, hi):
        return data.draw(hnp.arrays(np.float64, shape, elements=finite(lo, hi)))

    for shape in ((n,), (2, n), (k, n)):
        rho_new, rho = draw(shape, 0.1, 2.5), draw(shape, 0.1, 2.5)
        u, c = draw(shape, -3.0, 3.0), draw(shape, -3.0, 3.0)
        p = draw(shape, -10.0, 10.0)
        dt = courant * grid.h / (1.0 + np.max(np.abs(u)))
        assert same_bits(continuity_update(grid, rho, u, dt, upwind),
                         continuity_oracle(grid, rho, u, dt, upwind))
        assert same_bits(central_c_x(grid, c),
                         derivative(grid, c, 1, "central"))
        assert same_bits(
            momentum_update(grid, rho_new, rho, u, central_c_x(grid, c),
                            params, dt, p),
            momentum_oracle(grid, rho_new, rho, u, c, params, dt, p))

        alpha_p = draw(shape, 0.0, 1.0)
        fields = (alpha_p, 1.0 - alpha_p, rho, rho_new,
                  draw(shape, -20.0, 20.0))
        for got, want in zip(_relaxation_flow(*fields),
                             relaxation_oracle(*fields)):
            assert same_bits(got, want)
        # a step of up to mu / 10: the law's artificial pressure stays below
        # 1 on [0.1, 2.5], so the half-step densities stay below 2.7, inside
        # its domain [0, 3)
        dt_relax = data.draw(st.floats(0.0, 0.1)) * mu
        for got, want in zip(
                _relaxation_substep(*fields[:4], params, dt_relax),
                relaxation_substep_oracle(*fields[:4], params, dt_relax)):
            assert same_bits(got, want)


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
    params = PhysicalParams(mu=mu, kappa=0.1, eos=eos)
    config = SolverConfig(dt=1.0, t_end=1.0, cfl=0.4)
    state = BNState.make(grid, smooth_field(alpha_modes, grid, 0.5),
                         smooth_field(rho_p_modes, grid, 0.8),
                         smooth_field(rho_m_modes, grid, 1.6),
                         smooth_field(u_modes, grid, 0.0), params)
    for _ in range(10):
        speed = max(sound_speed_max(rho, state.u, eos)
                    for rho in (state.rho_p, state.rho_m))
        state = bn_step(state, params, config, dt=config.cfl * grid.h / speed)
        drift = np.max(np.abs(state.alpha_p + state.alpha_m - 1.0))
        assert drift <= 2.0 * np.finfo(float).eps


def record_table(record):
    """The columns of a record as one array, (11,) or (11, K)."""
    return np.array(dataclasses.astuple(record))


@FAST
@given(data=st.data(), n=st.integers(4, 128).map(lambda k: 2 * k),
       k=st.integers(1, 6), two_phase=st.booleans())
def test_stacked_record_equals_per_state_records(data, n, k, two_phase):
    grid = PeriodicGrid(n)
    eos = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0)
    params = PhysicalParams(mu=0.1, kappa=0.1, eos=eos)
    rho = stack_of(data, grid, k, 0.6, 1.0)
    u = stack_of(data, grid, k, 2.0, 0.0)
    times = data.draw(st.lists(st.floats(0.0, 10.0), min_size=k, max_size=k))
    # a chunk of k states as the run loop records it, from the stack of
    # their mixtures with the pressure and c_x formed for their steps
    if two_phase:
        alpha = stack_of(data, grid, k, 0.4, 0.5)
        ratio = stack_of(data, grid, k, 0.4, 1.0)
        states = [BNState.make(grid, a, r, r * q, v, params, t=t)
                  for a, r, q, v, t in zip(alpha, rho, ratio, u, times)]
    else:
        states = [FluidState.make(grid, r, v, params, t=t)
                  for r, v, t in zip(rho, u, times)]
    record, _ = _chunk_record([(s, s.step_fields(eos)) for s in states],
                              params)
    table = record_table(record).reshape(-1, k)   # (11,) for one state
    per_state = [record_table(compute_record(s, params)) for s in states]
    assert table.dtype == np.float64 and table.shape == (len(per_state[0]), k)
    assert table.T.tobytes() == np.array(per_state).tobytes()


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


@FAST
@given(payload=CONFIGS)
def test_config_round_trips(config_text, payload):
    config = parse_config(config_text(payload))
    assert config == payload
    meta = json.loads(json.dumps(config))
    assert parse_config(config_text(meta)) == config
