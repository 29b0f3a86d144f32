import dataclasses
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.linalg import lapack

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


def cyclic_dense(diag, off):
    """The dense n x n matrix of the cyclic system (diag, off)."""
    n = diag.size
    rows = np.arange(n)
    dense = np.diag(np.asarray(diag, dtype=float))
    dense[rows, (rows - 1) % n] += off
    dense[rows, (rows + 1) % n] += off
    return dense


def test_cyclic_tridiagonal_against_dense():
    rng = np.random.default_rng(23)
    n = 64
    off = -1.0
    diag = 2.0 + rng.uniform(0.1, 2.0, n)
    rhs = rng.standard_normal(n)
    x = solve_cyclic_tridiagonal(diag, off, rhs)
    assert np.max(np.abs(cyclic_dense(diag, off) @ x - rhs)) < 1e-12


def test_cyclic_tridiagonal_singular_raises():
    # a matrix that is not positive definite: a zero or negative diagonal
    # entry inside or at the corner, or a diagonal too weak for its
    # off-diagonal everywhere.  LDL^T meets a pivot <= 0, which surfaces as
    # LinAlgError; the corner entry is refused before any division by it
    n = 16
    for bad in (0.0, -1.0):
        for row in (0, 5, n - 1):
            diag = np.full(n, 3.0)
            diag[row] = bad
            with np.errstate(all="raise"):
                with pytest.raises(np.linalg.LinAlgError,
                                   match="not positive definite"):
                    solve_cyclic_tridiagonal(diag, -1.0, np.ones(n))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        solve_cyclic_tridiagonal(np.full(n, 0.5), -1.0, np.ones(n))


def dominant_cyclic_system(rng, n):
    """diag, off, rhs of a random strictly diagonally dominant symmetric
    system."""
    off = rng.uniform(-1.0, 1.0)
    diag = 2.0 * abs(off) + rng.uniform(0.1, 2.0, n)
    return diag, off, rng.uniform(-1.0, 1.0, n)


def test_import_leaves_scipy_linalg_unloaded():
    # torus loads scipy's LAPACK extension alone; scipy's package init would
    # load subprocess and its test helpers, and scipy.linalg's would load
    # numpy.f2py, numpy.testing and numpy.ma, unused here
    src = os.path.dirname(os.path.dirname(torus.__file__))
    unused = ("scipy", "scipy.linalg", "numpy.f2py", "numpy.testing",
              "numpy.ma")
    code = ("import sys, phasekit.cli; "
            f"print(*[m for m in {unused!r} if m in sys.modules])")
    loaded = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src)).stdout
    assert loaded.split() == []


def test_missing_lapack_extension_names_the_directory(monkeypatch, tmp_path):
    # the extension is looked up in scipy's package directory, which the
    # import spec gives without running scipy's package init
    spec = types.SimpleNamespace(submodule_search_locations=[str(tmp_path)])
    monkeypatch.setattr(torus.importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        torus._load_flapack()
    monkeypatch.setattr(torus.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        torus._load_flapack()


@pytest.mark.parametrize("n", [8, 512, 2048, 16384])
def test_lapack_routines_equal_scipy_linalgs(n):
    # torus's own load of the extension gives scipy.linalg.lapack's results
    # bit for bit: dptsv's factors and solution, and dpttrs on the factors
    assert torus.dptsv is not lapack.dptsv
    rng = np.random.default_rng(n)
    diag, off, rhs = dominant_cyclic_system(rng, n)
    e = np.full(n - 1, off)
    ours, theirs = torus.dptsv(diag, e, rhs), lapack.dptsv(diag, e, rhs)
    assert ours[3] == theirs[3] == 0
    for x, y in zip(ours[:3], theirs[:3]):
        assert x.tobytes() == y.tobytes()
    b = rng.uniform(-1.0, 1.0, n)
    z, info = torus.dpttrs(*ours[:2], b)
    z_ref, info_ref = lapack.dpttrs(*theirs[:2], b)
    assert info == info_ref == 0
    assert z.tobytes() == z_ref.tobytes()


def full_column_parts(diag, off, rhs):
    """y, z and v[n-1] of the cyclic solve with its Sherman-Morrison column
    solved over all n nodes, both right-hand sides in one dptsv call."""
    n = diag.size
    alpha = -diag[0]
    v_last = off / alpha
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - off * v_last
    u = np.zeros(n)
    u[0] = alpha
    u[n - 1] = off
    *_, x, info = lapack.dptsv(d, np.full(n - 1, off),
                              np.column_stack([rhs, u]))
    assert info == 0
    y, z = x.T
    return y, z, v_last


def full_column_solve(diag, off, rhs):
    """The cyclic solve with the full column, its corner correction read in
    closed form as the solve does."""
    y, z, v_last = full_column_parts(diag, off, rhs)
    n = y.size
    v_y = y[0] + v_last * y[n - 1]
    v_z = z[0] + v_last * z[n - 1]
    return y - z * v_y / (1.0 + v_z)


def dot_form_cyclic_solve(diag, off, rhs):
    """The full-column solve with the corner correction taken by BLAS dots
    (v @ y, v @ z) on a dense v."""
    y, z, v_last = full_column_parts(diag, off, rhs)
    v = np.zeros(y.size)
    v[0] = 1.0
    v[-1] = v_last
    return y - z * (v @ y) / (1.0 + v @ z)


def window_of(diag, off):
    """The solve's end window W, from the docstring's formula."""
    q = abs(off) / np.min(diag)
    r = 2.0 * q / (1.0 + np.sqrt(1.0 - 4.0 * q * q))
    return int(np.ceil((torus._WINDOW_BITS + 2) / -np.log2(r)))


@pytest.mark.parametrize("n", [16, 64, 128, 256, 512, 2048, 16384])
def test_cyclic_tridiagonal_closed_form_matches_dot_form(n):
    # the closed-form corner correction equals numpy's dot bitwise when
    # n % 16 == 0 (numpy and scipy as pinned in constraints.txt), which
    # covers every pinned and benchmark grid; on these O(1) right-hand
    # sides the end windows move no bit either, so the solve is the
    # full-column dot form bitwise
    rng = np.random.default_rng(n)
    for _ in range(20):
        system = dominant_cyclic_system(rng, n)
        x = solve_cyclic_tridiagonal(*system)
        assert x.tobytes() == dot_form_cyclic_solve(*system).tobytes()


def full_column_is_subnormal(diag, off):
    """Whether the forward sweep of the full column goes subnormal: read
    off the solve of (alpha, 0, ..., 0), whose sweep is the column's up to
    the last node, and whose back substitution keeps the sweep's
    magnitudes."""
    n = diag.size
    first = np.zeros(n)
    first[0] = 1.0
    z = full_column_parts(diag, off, first)[0] * -diag[0]
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


def nsk_16384_momentum_systems(monkeypatch, steps):
    """(diag, off, rhs) of the momentum solves of the first steps of the
    benchmark's nsk-16384 run (seed 101)."""
    systems = []

    def solve(*system):
        systems.append(system)
        return solve_cyclic_tridiagonal(*system)

    monkeypatch.setattr(torus, "solve_cyclic_tridiagonal", solve)
    config = parse_config(NSK_16384)
    params = build_params(config)
    solver = build_solver(config)
    nsk_run(build_nsk_initial(config, params), params,
            dataclasses.replace(solver, t_end=steps * solver.dt))
    monkeypatch.undo()
    assert len(systems) == steps
    return systems


def test_cyclic_tridiagonal_scaling_is_exact_on_nsk_16384(monkeypatch):
    # the end windows, which replaced the column's power-of-two scaling,
    # are exact on the momentum systems of the benchmark's nsk-16384 run:
    # the full column runs into subnormals there, and the windowed solve
    # still gives its result bitwise
    for diag, off, rhs in nsk_16384_momentum_systems(monkeypatch, 3):
        assert 2 * window_of(diag, off) < diag.size
        assert full_column_is_subnormal(diag, off)
        x = solve_cyclic_tridiagonal(diag, off, rhs)
        assert x.tobytes() == full_column_solve(diag, off, rhs).tobytes()


@pytest.mark.parametrize("n", [64, 512, 2048, 16384])
@pytest.mark.parametrize("kappa", [1e-6, 1e-3, 0.1])
def test_cyclic_tridiagonal_scaling_is_exact_on_helmholtz(n, kappa):
    # the fd Helmholtz solve, windowed or not, is the full-column solve
    grid = PeriodicGrid(n)
    gamma = 2.0
    rho = 1.2 + 0.4 * np.cos(TWO_PI * 3 * grid.x)
    a = kappa / grid.h ** 2
    c = helmholtz_solve(grid, rho, kappa, gamma, "fd")
    expected = full_column_solve(np.full(n, 2.0 * a + gamma), -a, gamma * rho)
    assert c.tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_cyclic_tridiagonal_scaling_is_exact_at_extreme_columns(scale):
    # A times 1e-300 or 1e300, the rhs unscaled: the column (alpha, 0, ...,
    # 0, off) sits near the scale of A, and x * scale is the unscaled
    # system's x; the result is the full-column solve's bitwise
    rng = np.random.default_rng(31)
    for n in (8, 64, 512):
        for _ in range(20):
            diag, off, rhs = dominant_cyclic_system(rng, n)
            x0 = solve_cyclic_tridiagonal(diag, off, rhs)
            x = solve_cyclic_tridiagonal(diag * scale, off * scale, rhs)
            assert np.max(np.abs(x * scale - x0)) <= 1e-13 * np.max(np.abs(x0))
            assert x.tobytes() == full_column_solve(
                diag * scale, off * scale, rhs).tobytes()


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_cyclic_tridiagonal_corner_term_at_extreme_scales(scale):
    # A x = rhs scaled by 1e-200 or 1e200: the corner term is formed as
    # off * (off / alpha), so its product of two entries of size scale
    # neither underflows nor overflows
    rng = np.random.default_rng(41)
    for _ in range(20):
        diag, off, rhs = dominant_cyclic_system(rng, 16)
        x0 = solve_cyclic_tridiagonal(diag, off, rhs)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x = solve_cyclic_tridiagonal(diag * scale, off * scale,
                                         rhs * scale)
        assert np.max(np.abs(x - x0)) <= 1e-14 * np.max(np.abs(x0))


@pytest.mark.parametrize("power", [-400, -130, 130, 400])
def test_cyclic_tridiagonal_invariant_under_power_of_two_scaling(power):
    # 2^power A x = 2^power rhs has the same solution bitwise: the
    # factorization's multipliers, the window and z do not change, and the
    # windowed column stays far from underflow and overflow
    rng = np.random.default_rng(37)
    for n in (64, 2048):
        for _ in range(20):
            diag, off, rhs = dominant_cyclic_system(rng, n)
            x = solve_cyclic_tridiagonal(diag, off, rhs)
            scaled = solve_cyclic_tridiagonal(
                np.ldexp(diag, power), math.ldexp(off, power),
                np.ldexp(rhs, power))
            assert scaled.tobytes() == x.tobytes()


def test_cyclic_tridiagonal_zero_corner_diagonal():
    # diag[0] = 0 leaves the system without a positive diagonal, which the
    # solve refuses with LinAlgError before dividing by it; a system that
    # is positive definite but not strictly dominant (min(diag) = 2|off|
    # at one node) takes the whole grid as its window and is solved to
    # round-off
    n = 16
    diag = np.full(n, 3.0)
    diag[0] = 0.0
    rhs = np.random.default_rng(3).standard_normal(n)
    with np.errstate(all="raise"):
        with pytest.raises(np.linalg.LinAlgError):
            solve_cyclic_tridiagonal(diag, -1.0, rhs)
        diag[0] = 2.0
        dense = cyclic_dense(diag, -1.0)
        assert np.linalg.cond(dense) < 10.0
        x = solve_cyclic_tridiagonal(diag, -1.0, rhs)
    assert np.max(np.abs(x - np.linalg.solve(dense, rhs))) < 1e-14


def adversarial_rhs(rng, n):
    """Right-hand sides the end windows must survive: most entries 2^-60
    of the largest, exact zeros, support only at the two ends, and one
    whose solution crosses zero."""
    x = np.arange(n) / n
    tiny = np.ldexp(rng.standard_normal(n), -60)
    tiny[rng.integers(0, n, 4)] = rng.standard_normal(4)
    zeros = rng.standard_normal(n)
    zeros[rng.uniform(size=n) < 0.5] = 0.0
    zeros[n // 4:3 * n // 4] = 0.0
    ends = np.zeros(n)
    ends[:3] = rng.standard_normal(3)
    ends[-3:] = rng.standard_normal(3)
    corner = np.zeros(n)
    corner[0] = 1.0
    crossing = np.sin(TWO_PI * x + 0.1) + 1e-3 * rng.standard_normal(n)
    return {"tiny": tiny, "zeros": zeros, "ends": ends, "corner": corner,
            "crossing": crossing}


@pytest.mark.parametrize("n, a", [(512, 5.5), (2048, 22.5), (16384, 180.0),
                                  (16384, 13.4)])
def test_cyclic_tridiagonal_windows_on_adversarial_rhs(n, a):
    # each stays within 2^-b ||x||_inf of the full-column solve, b = 64,
    # on momentum matrices rho + 2a with rho constant (where the decay
    # bound is tight), smooth, a step and random
    rng = np.random.default_rng(n)
    x = np.arange(n) / n
    bound = 2.0 ** -torus._WINDOW_BITS
    for rho in (np.ones(n), 1.0 + 0.3 * np.sin(TWO_PI * x),
                0.36 + 2.4 * (x > 0.5), rng.uniform(0.36, 2.8, n)):
        diag = rho + 2.0 * a
        assert 2 * window_of(diag, -a) < n
        for name, rhs in adversarial_rhs(rng, n).items():
            full = full_column_solve(diag, -a, rhs)
            windowed = solve_cyclic_tridiagonal(diag, -a, rhs)
            err = np.max(np.abs(windowed - full))
            assert err <= bound * np.max(np.abs(full)), name


@pytest.mark.parametrize("a", ["nsk-16384", 40.0, 13.4])
def test_cyclic_tridiagonal_column_holds_no_subnormal(monkeypatch, a):
    # the windowed column of each solve holds no subnormal (so its sweeps
    # ran in normal arithmetic), where the full column does: on the first
    # nsk-16384 momentum systems and at a = 40 and 13.4 on N = 16384
    if a == "nsk-16384":
        systems = nsk_16384_momentum_systems(monkeypatch, 3)
    else:
        x = np.arange(16384) / 16384
        rho = 1.0 + 0.3 * np.sin(TWO_PI * x)
        systems = [(rho + 2.0 * a, -a, np.sin(TWO_PI * x))]
    columns = []
    lapack_dpttrs = torus.dpttrs

    def dpttrs(*args, **kwargs):
        z, info = lapack_dpttrs(*args, **kwargs)
        columns.append(z.copy())
        return z, info

    monkeypatch.setattr(torus, "dpttrs", dpttrs)
    for diag, off, rhs in systems:
        assert full_column_is_subnormal(diag, off)
        solve_cyclic_tridiagonal(diag, off, rhs)
    assert len(columns) == len(systems)
    for z in columns:
        assert z.size < 16384
        assert np.all(np.abs(z) >= np.finfo(float).tiny)


def test_sobolev_norm_single_mode(grid):
    f = np.sin(2 * np.pi * grid.x)
    # |f_hat|^2 contributes 1/2 at m = +-1: H^k norm = sqrt((1+4pi^2)^k / 2) * sqrt(2)/...
    expect = np.sqrt((1.0 + 4 * np.pi ** 2) ** 2 * 0.5)
    assert sobolev_norm(grid, f, 2) == pytest.approx(expect, rel=1e-12)
    assert sobolev_norm(grid, f, 0) == pytest.approx(np.sqrt(0.5), rel=1e-12)
    assert l2_norm(grid, f) == pytest.approx(np.sqrt(0.5), rel=1e-12)


def test_wavenumbers_are_read_only():
    # the grid's Fourier symbols, built once per grid and shared by every
    # kernel call, and the node coordinates, which every state on the grid
    # shares
    grid = PeriodicGrid(16)
    k = TWO_PI * np.arange(9)
    assert grid._k.tobytes() == k.tobytes()
    assert grid._sobolev_weights(2) is grid._sobolev_weights(2)
    for symbol in (grid._k, grid._ik, grid._k2, grid._minus_k2,
                   grid._sobolev_weights(2)):
        with pytest.raises(ValueError, match="read-only"):
            symbol[1] = 0.0
    assert grid.x.tobytes() == (np.arange(16) / 16).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        grid.x[1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        grid.x *= 2.0


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
