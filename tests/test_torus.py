import numpy as np
import pytest
from scipy.linalg.lapack import dgtsv

from phasekit.torus import (PeriodicGrid, dealias, derivative, helmholtz_solve,
                            l2_norm, mean, primitive, sobolev_norm,
                            solve_cyclic_tridiagonal)


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
    """The cyclic solve with its corner correction taken by BLAS dots
    (v @ y, v @ z) on a dense v, the form the closed form replaced."""
    n = diag.size
    alpha = -diag[0]
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - upper[n - 1] * lower[0] / alpha
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
