import dataclasses

import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from phasekit import torus
from phasekit.config import (build_nsk_initial, build_params, build_solver,
                             parse_config)
from phasekit.nsk import nsk_run
from phasekit.torus import (TWO_PI, PeriodicGrid, dealias, derivative,
                            helmholtz_solve, l2_norm, mean, primitive,
                            sobolev_norm, solve_cyclic_tridiagonal)


@pytest.fixture
def grid():
    return PeriodicGrid(64)


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(6)
    with pytest.raises(ValueError):
        PeriodicGrid(9)
    g = PeriodicGrid(8)
    assert g.h == 0.125
    assert np.allclose(g.x, np.arange(8) / 8)


def test_field_shapes(grid):
    # the norms, derivative and the Fourier Helmholtz solve take a (K, n)
    # stack; the fd Helmholtz solve and primitive take one field
    stack = np.ones((3, grid.n))
    assert derivative(grid, stack).shape == (3, grid.n)
    assert mean(grid, stack).shape == (3,)
    assert helmholtz_solve(grid, stack, 0.1, 2.0).shape == (3, grid.n)
    for bad in (np.ones(grid.n + 2), np.ones((2, 3, grid.n)), np.float64(1.0)):
        with pytest.raises(ValueError, match="grid expects"):
            mean(grid, bad)
    for solve in (lambda f: helmholtz_solve(grid, f, 0.1, 2.0, "fd"),
                  lambda f: primitive(grid, f)):
        with pytest.raises(ValueError, match="grid expects"):
            solve(stack)


@pytest.mark.parametrize("backend", ["central", "spectral"])
def test_derivative_of_constant(grid, backend):
    f = grid.constant(7.0)
    for order in (1, 2):
        assert np.max(np.abs(derivative(grid, f, order, backend))) == 0.0


def test_spectral_derivative_single_mode(grid):
    f = np.sin(2 * np.pi * grid.x)
    exact = 2 * np.pi * np.cos(2 * np.pi * grid.x)
    d = derivative(grid, f, 1, backend="spectral")
    assert np.max(np.abs(d - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_central_derivative_second_order():
    # Richardson refinement oracle: max error falls by ~4 when N doubles
    errs = []
    for n in (64, 128):
        g = PeriodicGrid(n)
        f = np.sin(2 * np.pi * g.x)
        exact = 2 * np.pi * np.cos(2 * np.pi * g.x)
        errs.append(np.max(np.abs(derivative(g, f, 1, "central") - exact)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_mean(grid):
    assert mean(grid, grid.constant(3.0)) == pytest.approx(3.0, abs=1e-14)
    assert mean(grid, np.sin(2 * np.pi * grid.x)) == pytest.approx(0.0, abs=1e-14)
    f = 1.0 + np.cos(4 * np.pi * grid.x) ** 2
    assert mean(grid, f) == pytest.approx(1.5, abs=1e-13)


def test_mean_of_derivative_vanishes(grid):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(grid.n)
    for backend in ("central", "spectral"):
        assert abs(mean(grid, derivative(grid, f, 1, backend))) <= 1e-13


def test_primitive(grid):
    assert np.max(np.abs(primitive(grid, grid.zeros()))) == 0.0
    f = np.sin(2 * np.pi * grid.x)
    expect = -np.cos(2 * np.pi * grid.x) / (2 * np.pi)
    assert np.max(np.abs(primitive(grid, f) - expect)) < 1e-13
    f2 = np.cos(4 * np.pi * grid.x)
    expect2 = np.sin(4 * np.pi * grid.x) / (4 * np.pi)
    assert np.max(np.abs(primitive(grid, f2) - expect2)) < 1e-13


def test_primitive_rejects_nonzero_mean(grid):
    with pytest.raises(ValueError):
        primitive(grid, grid.constant(1.0))


def test_derivative_of_primitive_is_identity(grid):
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.n)
    f -= f.mean()
    f = dealias(grid, f)  # keep the Nyquist mode out of the comparison
    back = derivative(grid, primitive(grid, f), 1, "spectral")
    assert np.max(np.abs(back - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))


@pytest.mark.parametrize("backend", ["fourier", "fd"])
def test_helmholtz_constant(grid, backend):
    c = helmholtz_solve(grid, grid.constant(2.0), kappa=0.7, gamma=1.3,
                        backend=backend)
    assert np.max(np.abs(c - 2.0)) < 1e-12


def test_helmholtz_single_mode():
    grid = PeriodicGrid(256)
    rho = 1.0 + np.sin(2 * np.pi * grid.x)
    exact = 1.0 + np.sin(2 * np.pi * grid.x) / (1.0 + 4 * np.pi ** 2)
    c = helmholtz_solve(grid, rho, kappa=1.0, gamma=1.0)
    assert np.max(np.abs(c - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_helmholtz_fd_second_order():
    errs = []
    for n in (64, 128, 256):
        g = PeriodicGrid(n)
        rho = 1.0 + np.sin(2 * np.pi * g.x)
        exact = 1.0 + np.sin(2 * np.pi * g.x) / (1.0 + 4 * np.pi ** 2)
        c = helmholtz_solve(g, rho, 1.0, 1.0, backend="fd")
        errs.append(np.max(np.abs(c - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.2)


def test_helmholtz_preserves_mean(grid):
    rng = np.random.default_rng(3)
    rho = 1.0 + 0.3 * rng.standard_normal(grid.n)
    for backend in ("fourier", "fd"):
        c = helmholtz_solve(grid, rho, 0.01, 2.0, backend=backend)
        assert abs(mean(grid, c) - mean(grid, rho)) < 1e-12


def test_helmholtz_residual_fourier(grid):
    rng = np.random.default_rng(5)
    rho = 1.0 + 0.2 * rng.standard_normal(grid.n)
    kappa, gamma = 0.05, 1.7
    c = helmholtz_solve(grid, rho, kappa, gamma)
    resid = -kappa * derivative(grid, c, 2, "spectral") + gamma * c - gamma * rho
    assert np.max(np.abs(resid)) <= 1e-10 * np.max(np.abs(gamma * rho))


def test_helmholtz_rejects_bad_coefficients(grid):
    with pytest.raises(ValueError):
        helmholtz_solve(grid, grid.constant(1.0), -1.0, 1.0)
    with pytest.raises(ValueError):
        helmholtz_solve(grid, grid.constant(1.0), 1.0, 0.0)


def test_helmholtz_elliptic_estimate():
    # discrete analogue of the H^2 elliptic regularity bound: the ratio
    # ||c||_H2 / ||rho||_L2 stays below a fixed constant over random data
    grid = PeriodicGrid(128)
    kappa, gamma = 0.1, 1.5
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(20):
        rho = 1.0 + 0.5 * rng.standard_normal(grid.n)
        c = helmholtz_solve(grid, rho, kappa, gamma)
        ratios.append(sobolev_norm(grid, c, 2) / l2_norm(grid, rho))
    bound = max(1.0, gamma / kappa)  # gamma/(kappa k^2 + gamma) * (1+k^2)
    print(f"\nempirical elliptic constant: {max(ratios):.6f} (bound {bound})")
    assert max(ratios) <= bound + 1e-9


def test_cyclic_tridiagonal_against_dense():
    rng = np.random.default_rng(23)
    n = 64
    lower = -1.0 + 0.1 * rng.standard_normal(n)
    upper = -1.0 + 0.1 * rng.standard_normal(n)
    diag = 4.0 + 0.1 * rng.standard_normal(n)
    rhs = rng.standard_normal(n)
    dense = np.zeros((n, n))
    for i in range(n):
        dense[i, i] = diag[i]
        dense[i, (i - 1) % n] = lower[i]
        dense[i, (i + 1) % n] = upper[i]
    x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert np.max(np.abs(dense @ x - rhs)) < 1e-11


def test_cyclic_tridiagonal_singular_raises():
    # decoupled rows with one zero diagonal entry: gtsv reports a zero
    # pivot, which must surface as LinAlgError
    n = 16
    diag = np.ones(n)
    diag[5] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        solve_cyclic_tridiagonal(np.zeros(n), diag, np.zeros(n), np.ones(n))


def dominant_cyclic_system(rng, n):
    """lower, diag, upper, rhs of a random diagonally dominant system."""
    lower, upper, rhs = rng.uniform(-1.0, 1.0, (3, n))
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n)
    return lower, diag, upper, rhs


def dot_form_cyclic_solve(lower, diag, upper, rhs):
    """The cyclic solve as first written: u solved unscaled, and the corner
    correction taken by BLAS dots (v @ y, v @ z) on a dense v; the corner
    term of d is formed in the solve's order, upper[n-1] * v[n-1]."""
    n = diag.size
    alpha = -diag[0]
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - upper[n - 1] * (lower[0] / alpha)
    u = np.zeros(n)
    u[0] = alpha
    u[n - 1] = upper[n - 1]
    v = np.zeros(n)
    v[0] = 1.0
    v[n - 1] = lower[0] / alpha
    *_, x, info = dgtsv(lower[1:], d, upper[:-1], np.column_stack([rhs, u]),
                        overwrite_d=1, overwrite_b=1)
    assert info == 0
    y, z = x.T
    return y - z * (v @ y) / (1.0 + v @ z)


@pytest.mark.parametrize("n", [16, 64, 128, 256, 512, 2048, 16384])
def test_cyclic_tridiagonal_closed_form_matches_dot_form(n):
    # the closed-form corner correction equals numpy's dot bitwise when
    # n % 16 == 0 (numpy and scipy as pinned in constraints.txt), which
    # covers every pinned and benchmark grid
    rng = np.random.default_rng(n)
    for _ in range(20):
        system = dominant_cyclic_system(rng, n)
        x = solve_cyclic_tridiagonal(*system)
        assert x.tobytes() == dot_form_cyclic_solve(*system).tobytes()


def unscaled_cyclic_solve(lower, diag, upper, rhs):
    """The cyclic solve with u solved unscaled, its corner correction read
    in closed form as the solve does."""
    n = diag.size
    alpha = -diag[0]
    v_last = lower[0] / alpha
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - upper[n - 1] * v_last
    u = np.zeros(n)
    u[0] = alpha
    u[n - 1] = upper[n - 1]
    *_, x, info = dgtsv(lower[1:], d, upper[:-1], np.column_stack([rhs, u]),
                        overwrite_d=1, overwrite_b=1)
    assert info == 0
    y, z = x.T
    return y - z * (y[0] + v_last * y[n - 1]) / (1.0 + (z[0] + v_last * z[n - 1]))


def unscaled_sweep_is_subnormal(lower, diag, upper):
    """Whether the unscaled forward sweep of u, the column the solve scales,
    goes subnormal: read off the solve of (alpha, 0, ..., 0), whose sweep is
    u's up to the last node, and whose back substitution keeps the sweep's
    magnitudes."""
    n = diag.size
    d = np.array(diag, dtype=float)
    d[0] = 2.0 * diag[0]
    d[n - 1] = diag[n - 1] + upper[n - 1] * lower[0] / diag[0]
    e0 = np.zeros(n)
    e0[0] = -diag[0]
    z = dgtsv(lower[1:], d, upper[:-1], e0)[3]
    return bool(np.any((z != 0.0) & (np.abs(z) < np.finfo(float).tiny)))


NSK_16384 = """
[physics]
mu = 0.1
kappa = 0.1
gamma = 2.0

[eos]
type = van_der_waals
A = 1.0
B = 3.0
R = 1.0
T_star = 0.2

[bounds]
m0 = 1.4

[grid]
n = 16384

[time]
dt = 1.34e-05
t_end = 0.01
cfl = 0.4

[init]
profile = two_value
v_minus = 0.8
v_plus = 1.6
theta = 0.5
delta = 0.1
n_osc = 16
u0_mode = 1
u0_amp = 0.042022
"""


def test_cyclic_tridiagonal_scaling_is_exact_on_nsk_16384(monkeypatch):
    # the momentum systems of the first steps of the benchmark's nsk-16384
    # run (seed 101): the unscaled sweep of u runs into subnormals there,
    # and the scaled solve still gives its result bitwise
    systems = []

    def solve(*system):
        systems.append(system)
        return solve_cyclic_tridiagonal(*system)

    monkeypatch.setattr(torus, "solve_cyclic_tridiagonal", solve)
    config = parse_config(NSK_16384)
    params = build_params(config)
    solver = build_solver(config)
    nsk_run(build_nsk_initial(config, params), params,
            dataclasses.replace(solver, t_end=3 * solver.dt),
            keep_records=False)
    assert len(systems) == 3
    for system in systems:
        assert unscaled_sweep_is_subnormal(*system[:3])
        x = solve_cyclic_tridiagonal(*system)
        assert x.tobytes() == unscaled_cyclic_solve(*system).tobytes()


@pytest.mark.parametrize("n", [64, 512, 2048, 16384])
@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 0.1])
def test_cyclic_tridiagonal_scaling_is_exact_on_helmholtz(n, kappa):
    grid = PeriodicGrid(n)
    gamma = 2.0
    rho = 1.2 + 0.4 * np.cos(TWO_PI * 3 * grid.x)
    a = kappa / grid.h ** 2
    system = (np.full(n, -a), np.full(n, 2.0 * a + gamma), np.full(n, -a),
              gamma * rho)
    c = helmholtz_solve(grid, rho, kappa, gamma, "fd")
    assert c.tobytes() == unscaled_cyclic_solve(*system).tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_cyclic_tridiagonal_scaling_is_exact_at_extreme_columns(scale):
    # column 0 of A times scale puts u = (alpha, 0, ..., 0, upper[n-1])
    # near scale, which the solve scales by 2^900 (1e-300) or not at all
    # (1e300); on n = 8 the unscaled sweep of u stays normal, so the
    # results agree bitwise, and x[0] * scale is the unscaled system's x[0]
    rng = np.random.default_rng(31)
    for _ in range(20):
        lower, diag, upper, rhs = dominant_cyclic_system(rng, 8)
        x0 = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        lower[1] *= scale
        diag[0] *= scale
        upper[-1] *= scale
        assert not unscaled_sweep_is_subnormal(lower, diag, upper)
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
        assert np.allclose(x[1:], x0[1:], rtol=1e-13, atol=0.0)
        assert x[0] * scale == pytest.approx(x0[0], rel=1e-13)
        assert x.tobytes() == unscaled_cyclic_solve(
            lower, diag, upper, rhs).tobytes()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_cyclic_tridiagonal_corner_term_at_extreme_scales(scale):
    # A x = rhs scaled by 1e-200 or 1e200: the corner term is formed as
    # upper[n-1] * (lower[0] / alpha), so its product of two entries of
    # size scale neither underflows nor overflows
    rng = np.random.default_rng(41)
    for _ in range(20):
        system = dominant_cyclic_system(rng, 16)
        x0 = solve_cyclic_tridiagonal(*system)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x = solve_cyclic_tridiagonal(*(a * scale for a in system))
        assert np.max(np.abs(x - x0)) <= 1e-14 * np.max(np.abs(x0))


@pytest.mark.parametrize("power", [-400, -130, 130, 400])
def test_cyclic_tridiagonal_invariant_under_power_of_two_scaling(power):
    # 2^power A x = 2^power rhs has the same solution bitwise: u's scale
    # is clamped at 2^900, so z, about -1/2 at node 0 whatever the scale
    # of A, does not overflow on a system scaled by 2^-130 or 2^-400
    rng = np.random.default_rng(37)
    for _ in range(20):
        system = dominant_cyclic_system(rng, 64)
        x = solve_cyclic_tridiagonal(*system)
        scaled = [np.ldexp(a, power) for a in system]
        assert solve_cyclic_tridiagonal(*scaled).tobytes() == x.tobytes()


def test_cyclic_tridiagonal_zero_corner_diagonal():
    # diag[0] = 0 in a nonsingular system (condition number 8.2): the
    # correction takes a nonzero alpha instead of dividing by zero
    n = 16
    lower, upper = np.full(n, -1.0), np.full(n, -1.0)
    diag = np.full(n, 3.0)
    diag[0] = 0.0
    rhs = np.random.default_rng(3).standard_normal(n)
    dense = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    dense[0, n - 1] = lower[0]
    dense[n - 1, 0] = upper[n - 1]
    assert np.linalg.cond(dense) < 10.0
    with np.errstate(all="raise"):
        x = solve_cyclic_tridiagonal(lower, diag, upper, rhs)
    assert np.max(np.abs(x - np.linalg.solve(dense, rhs))) < 1e-14
    with pytest.raises(np.linalg.LinAlgError, match="row 0 is zero"):
        solve_cyclic_tridiagonal(np.zeros(n), diag, np.zeros(n), rhs)


@pytest.mark.parametrize("n", [10, 64, 16384])
def test_cyclic_tridiagonal_leaves_inputs_unchanged(n):
    system = dominant_cyclic_system(np.random.default_rng(7), n)
    before = [a.tobytes() for a in system]
    solve_cyclic_tridiagonal(*system)
    assert [a.tobytes() for a in system] == before


def test_sobolev_norm_single_mode(grid):
    f = np.sin(2 * np.pi * grid.x)
    # |f_hat|^2 contributes 1/2 at m = +-1: H^k norm = sqrt((1+4pi^2)^k / 2) * sqrt(2)/...
    expect = np.sqrt((1.0 + 4 * np.pi ** 2) ** 2 * 0.5)
    assert sobolev_norm(grid, f, 2) == pytest.approx(expect, rel=1e-12)
    assert sobolev_norm(grid, f, 0) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert l2_norm(grid, f) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_wavenumbers_are_read_only():
    grid = PeriodicGrid(16)
    k = grid.wavenumbers()
    assert k is grid.wavenumbers()
    assert k.tobytes() == (TWO_PI * np.arange(9)).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        k[1] = 0.0


@pytest.mark.parametrize("n", [8, 512, 2048, 16384])
def test_spectral_kernels_equal_their_per_call_formulas(n):
    # the symbols built once per grid give every kernel the bits of its
    # formula with the symbols built per call
    grid = PeriodicGrid(n)
    rng = np.random.default_rng(n)
    stack = 1.0 + 0.3 * rng.standard_normal((3, n))
    for f in (stack[0], stack):
        fh = np.fft.rfft(f)
        k = TWO_PI * np.arange(n // 2 + 1)
        d1 = fh * (1j * k)
        d1[..., -1] = 0.0
        assert derivative(grid, f, 1, "spectral").tobytes() == np.fft.irfft(
            d1, n=n).tobytes()
        assert derivative(grid, f, 2, "spectral").tobytes() == np.fft.irfft(
            fh * (-(k ** 2)), n=n).tobytes()
        kappa, gamma = 0.1, 2.0
        assert helmholtz_solve(grid, f, kappa, gamma).tobytes() == np.fft.irfft(
            gamma * fh / (kappa * k ** 2 + gamma), n=n).tobytes()
        weights = np.full(k.size, 2.0)
        weights[0] = weights[-1] = 1.0
        for order in range(4):
            sym = (1.0 + k ** 2) ** order
            expected = np.sqrt(np.sum(weights * sym * np.abs(fh / n) ** 2,
                                      axis=-1))
            assert np.array(sobolev_norm(grid, f, order)).tobytes() == (
                expected.tobytes())
