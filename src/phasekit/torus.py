"""Discrete calculus on the periodic unit interval (the torus R/Z).

Grid fields are plain 1D numpy arrays sampled at the nodes of a
:class:`PeriodicGrid`.  ``derivative``, ``mean``, ``l2_norm``,
``sobolev_norm``, ``max_norm`` and the Fourier backend of
``helmholtz_solve`` also act along the last axis of a ``(K, n)`` stack of K
fields: the result has one row (or one value) per field, bitwise equal to K
separate calls, and a reduction of a single field is a Python float.
``primitive``, ``dealias``, the fd backend of ``helmholtz_solve`` and
``solve_cyclic_tridiagonal`` take one field.  The latter solves the
symmetric positive definite cyclic systems that the momentum step and the
fd Helmholtz backend form, with a scalar off-diagonal: one LAPACK dptsv
factorization and solve of the rhs over all n nodes, then the
Sherman-Morrison column solved on its factors only on the two end windows
outside which its correction is below 2^-b of the largest entry of the
result (b = 64; the bound is in its docstring).  It makes no BLAS call,
since its corner correction reads the two inner products it needs in
closed form, so no solve wakes a BLAS thread pool.
``nsk.momentum_update`` solves a stack one row at a time, because one
block-banded solve of all rows differs from the row solves in the last
bit.  Two derivative backends are
provided everywhere: ``"central"`` (second-order finite differences,
exactly conservative in the telescoping sense) and ``"spectral"``
(discrete-Fourier differentiation, exact on resolved trigonometric
polynomials).  The central backend serves the diagnostics and
``bn.picard_bn``; ``nsk.central_c_x`` forms its first derivative bitwise
from slice shifts, without np.roll's per-call overhead, for the run
loop's c_x (one per state, for the coupling force, the record's gradient
density and ``Trajectory.dxc_sup``).  The
backend is always an explicit argument, never module state.  The Fourier
symbols (the wavenumbers, i k, -k^2, k^2 and the Sobolev weights of each
order) are built once per grid and are read-only, and so are the node
coordinates ``grid.x``, which every state on the grid shares; each kernel
applies the symbols in the order it always did, so every value is bitwise
what building them per call gave.

The kernels write their intermediates in place.  numpy reuses a temporary
of a chain such as ``a * b + c`` only for arrays of 256 KiB or more, and a
field of the benchmark's largest grid (16384 nodes) is 128 KiB, so every
operator of a written-out chain allocates a fresh array that is not in
cache.  Instead each kernel allocates an array of its own and updates it
with in-place ufuncs and augmented assignment (``x **= 2`` is numpy's
in-place square, bitwise ``x ** 2``).  Every operation keeps its operands
and their association; where the in-place form must swap the two operands
of one sum or product, that swap is exact in IEEE arithmetic, so every
value is bitwise the written-out formula's.  No kernel writes into an
argument, a state's field, ``grid.x`` or a grid symbol, and none returns a
view that keeps a larger buffer alive.  This is the library's in-place
rule, stated here once; the kernels of ``nsk``, ``eos``, ``diagnostics``
and ``bn`` follow it too.

The kernels check shapes, not values: NaN and inf propagate to the result,
and the run loop (``nsk._integrate``) decides whether a state is valid.

dptsv and dpttrs come from scipy's f2py LAPACK extension
(``scipy/linalg/_flapack``, the module ``scipy.linalg.lapack``
re-exports), loaded on its own from the directory that scipy's import
spec names, so neither scipy's package init nor that of ``scipy.linalg``
runs.  ``scipy.linalg``'s init would run its array-API layer, which reads
every public numpy attribute and so loads numpy.f2py, numpy.testing,
numpy.ma, numpy.random and numpy.polynomial; scipy's own init loads
subprocess, sysconfig and its test and version helpers.  With both,
``import phasekit.cli`` loaded 556 modules in 0.27-0.42 s to 57 MB of
RSS; with scipy's init alone, 256 in 0.15-0.18 s to 33 MB; with neither,
23 fewer, and about 1 MB less RSS (py3.11.7, numpy 2.4.6, scipy 1.17.1,
a shared 2-core x86-64 host).
The extension finds the OpenBLAS it links through its RPATH, which holds
on the Linux x86-64 wheels this was checked on; Windows wheels add their
DLL directory in scipy's package init, so this load is not known to work
there.
"""

from __future__ import annotations

import importlib.util
import math
import os
from importlib.machinery import PathFinder

import numpy as np


def _load_flapack():
    """scipy's LAPACK extension, loaded under the private name
    phasekit._flapack: under its own name, a later ``import scipy.linalg``
    would find the module registered but lack the attribute.  scipy's
    directory comes from its import spec, which locates the installed
    package without running scipy/__init__.py."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("scipy is not installed: no directory holds its "
                          "LAPACK extension _flapack")
    directory = os.path.join(scipy_spec.submodule_search_locations[0],
                             "linalg")
    spec = PathFinder.find_spec("phasekit._flapack", [directory])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in "
                          f"{directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dptsv, dpttrs = _flapack.dptsv, _flapack.dpttrs

TWO_PI = 2.0 * np.pi
# b of solve_cyclic_tridiagonal: its end windows hold the correction column
# to within 2^-b of the largest entry of the result
_WINDOW_BITS = 64


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PeriodicGrid:
    """Uniform grid of n nodes x_i = i/n on the unit torus.

    n must be even and at least 8: the Fourier-diagonal solves assume a
    well-defined Nyquist mode and can't do anything useful on toy grids.
    Grids compare and print by n: they are values.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 8:
            raise ValueError(f"grid needs at least 8 nodes, got {n}")
        if n % 2 != 0:
            raise ValueError(f"grid size must be even, got {n}")
        self.n = n
        self.h = 1.0 / n
        self.x = _read_only(np.arange(n) / n)
        k = TWO_PI * np.arange(n // 2 + 1)
        self._k = _read_only(k)
        self._ik = _read_only(1j * k)
        self._k2 = _read_only(k ** 2)
        self._minus_k2 = _read_only(-self._k2)
        self._sobolev = {}   # order -> weights * (1 + k^2)^order

    def __repr__(self):
        return f"PeriodicGrid(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, PeriodicGrid) and other.n == self.n

    def zeros(self) -> np.ndarray:
        return np.zeros(self.n)

    def constant(self, value: float) -> np.ndarray:
        return np.full(self.n, float(value))

    def _sobolev_weights(self, order) -> np.ndarray:
        """weights * (1 + k^2)^order, the H^order symbol of sobolev_norm,
        with weight 2 on the modes that stand for a +-m pair."""
        if order not in self._sobolev:
            weights = np.full(self._k.size, 2.0)
            weights[0] = 1.0
            weights[-1] = 1.0   # the Nyquist mode; n is always even
            sym = (1.0 + self._k2) ** order
            self._sobolev[order] = _read_only(weights * sym)
        return self._sobolev[order]


def _check_field(grid: PeriodicGrid, f: np.ndarray,
                 stack: bool = True) -> np.ndarray:
    """f as a float array of shape (n,), or (K, n) when stack is set."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (grid.n,) or f.ndim > (2 if stack else 1):
        allowed = f"({grid.n},) or (K, {grid.n})" if stack else f"({grid.n},)"
        raise ValueError(f"field has shape {f.shape}, grid expects {allowed}")
    return f


def row_values(v):
    """A reduction over the last axis: a float for one field, one value per
    row for a stack."""
    return float(v) if np.ndim(v) == 0 else v


def derivative(grid: PeriodicGrid, f: np.ndarray, order: int = 1,
               backend: str = "central") -> np.ndarray:
    """Discrete d/dx or d2/dx2 of a periodic nodal field (or of each row)."""
    f = _check_field(grid, f)
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if backend == "central":
        df = np.roll(f, -1, axis=-1)
        if order == 1:
            df -= np.roll(f, 1, axis=-1)
            df /= 2.0 * grid.h
        else:
            df -= 2.0 * f
            df += np.roll(f, 1, axis=-1)
            df /= grid.h ** 2
        return df
    if backend == "spectral":
        fh = np.fft.rfft(f)
        if order == 1:
            fh *= grid._ik
            fh[..., -1] = 0.0  # Nyquist mode has no well-defined odd derivative
        else:
            fh *= grid._minus_k2
        return np.fft.irfft(fh, n=grid.n)
    raise ValueError(f"unknown backend {backend!r}")


def mean(grid: PeriodicGrid, f: np.ndarray):
    """h * sum(f), the trapezoid rule on the torus (no boundary terms)."""
    f = _check_field(grid, f)
    return row_values(np.sum(f, axis=-1) * grid.h)


def primitive(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """Mean-free primitive F with F' = f, computed in Fourier space.

    Requires |mean(f)| <= 1e-10 max(1, max |f|); the caller subtracts the
    mean first.
    """
    f = _check_field(grid, f, stack=False)
    m = mean(grid, f)
    scale = max(1.0, float(np.max(np.abs(f))))
    if abs(m) > 1e-10 * scale:
        raise ValueError(f"primitive needs a mean-free field, mean = {m:.3e}")
    fh = np.fft.rfft(f)
    out = np.zeros_like(fh)
    out[1:] = fh[1:] / grid._ik[1:]
    out[-1] = 0.0
    return np.fft.irfft(out, n=grid.n)


def helmholtz_solve(grid: PeriodicGrid, rho: np.ndarray, kappa: float,
                    gamma: float, backend: str = "fourier") -> np.ndarray:
    """Solve -kappa c'' + gamma c = gamma rho on the torus.

    The Fourier backend is diagonal per mode, c_hat = gamma rho_hat /
    (kappa k^2 + gamma); the fd backend solves the cyclic tridiagonal
    second-order discretization.  Only the Fourier backend takes a stack.
    """
    rho = _check_field(grid, rho, stack=backend == "fourier")
    if kappa <= 0.0 or gamma <= 0.0:
        raise ValueError(f"kappa and gamma must be positive, got {kappa}, {gamma}")
    if backend == "fourier":
        ch = np.fft.rfft(rho)
        ch *= gamma
        den = kappa * grid._k2
        den += gamma
        ch /= den
        return np.fft.irfft(ch, n=grid.n)
    if backend == "fd":
        a = kappa / grid.h ** 2
        return solve_cyclic_tridiagonal(np.full(grid.n, 2.0 * a + gamma),
                                        -a, gamma * rho)
    raise ValueError(f"unknown backend {backend!r}")


def solve_cyclic_tridiagonal(diag: np.ndarray, off: float,
                             rhs: np.ndarray) -> np.ndarray:
    """Solve the periodic symmetric tridiagonal system A x = rhs.

    Row i reads off*x[i-1] + diag[i]*x[i] + off*x[i+1] = rhs[i], indices
    mod n.  The solve accepts the systems the library forms, the momentum
    matrix diag(rho) + aL and the fd Helmholtz matrix: symmetric, one
    scalar off-diagonal, a positive diagonal and, for the windows below,
    strict dominance min(diag) > 2|off|.  Sherman-Morrison writes A = B +
    u v^T, u = (alpha, 0, ..., 0, off), alpha = -diag[0], v = u / alpha; B
    drops the corners and holds diag[0] - alpha and diag[n-1] - off * (off
    / alpha) (quotient first, so that neither underflows nor overflows on
    a system scaled beyond about 1e+-154), and is positive definite when A
    is.  One LAPACK dptsv call (LDL^T, no pivoting) solves B y = rhs and
    leaves the factors; a B that is not positive definite raises
    numpy.linalg.LinAlgError.  One dpttrs call on the factors solves
    B z = u, and x = y - z (v.y) / (1 + v.z), with v.y = y[0] + v[n-1]
    y[n-1] (and v.z alike) in closed form, no BLAS dot.

    z is solved only on its end windows, rows [0, W) and [n - W, n), as
    one 2W system whose blocks are joined by a zero multiplier, and the
    correction is applied there only.  Each multiplier of B's LDL^T, taken
    from the top or from the bottom, is at most r = 2q / (1 + sqrt(1 -
    4q^2)) in size, q = |off| / min(diag).  So |z_i| <= 2/3 r^i + r^(n-i),
    and since the correction z_i (v.y) / (1 + v.z) is z_i (v.x) with
    |v.x| <= 1.5 ||x||_inf, what the windows leave out, and what the zero
    join changes inside them, is at most 2.5 r^W ||x||_inf.  W = ceil((b +
    2) / -log2 r) brings that below 2^-b ||x||_inf: the result is that
    close to the full-column solve's, apart from the rounding of the last
    subtraction.  b = 64 lies 11 bits below the unit roundoff, so no bit of
    an entry above about 2^-10 ||x||_inf moves unless it lies that close to
    a rounding tie.  When 2W >= n, or A is not strictly dominant, the
    window is the whole grid.  Within the windows z decays by at most
    about 2^-(b+2), so it needs no scaling to stay out of subnormal
    arithmetic, which a full sweep enters past about 8,500 nodes at r =
    0.92 (the N = 16384 momentum matrix) and then runs several times
    slower.
    """
    n = diag.size
    alpha = -diag[0]
    if alpha >= 0.0:   # B's first pivot, 2 diag[0], would not be positive
        raise np.linalg.LinAlgError("matrix is not positive definite")
    v_last = off / alpha
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - off * v_last
    d, e, y, info = dptsv(d, np.full(n - 1, off), rhs,
                          overwrite_d=1, overwrite_e=1)
    if info != 0:
        raise np.linalg.LinAlgError("matrix is not positive definite")

    w = n
    d_min = diag.min()
    if d_min > 2.0 * abs(off):   # strictly dominant
        q = abs(off) / d_min
        r = 2.0 * q / (1.0 + math.sqrt(1.0 - 4.0 * q * q))
        w = math.ceil((_WINDOW_BITS + 2) / -math.log2(r)) if r > 0.0 else 1
    if 2 * w >= n:
        w = k = n
    else:   # the two end windows as one system, joined by a zero multiplier
        k = 2 * w
        d = np.concatenate((d[:w], d[n - w:]))
        e = np.concatenate((e[:w - 1], (0.0,), e[n - w:]))
    z = np.zeros(k)
    z[0] = alpha
    z[k - 1] = off
    z, info = dpttrs(d, e, z, overwrite_b=1)

    v_y = y[0] + v_last * y[n - 1]
    v_z = z[0] + v_last * z[k - 1]
    z *= v_y
    z /= 1.0 + v_z
    y[:w] -= z[:w]   # y - z v_y / (1 + v_z) on the windows
    if k > w:
        y[n - w:] -= z[w:]
    return y


def sobolev_norm(grid: PeriodicGrid, f: np.ndarray, order: int):
    """Discrete H^k norm via Fourier symbols, matching the continuum norm.

    ||f||_{H^k}^2 = sum_m (1 + (2 pi m)^2)^k |f_hat_m|^2 with the DFT
    normalized so that H^0 agrees with the L^2(T) norm.
    """
    f = _check_field(grid, f)
    return spectral_norm(grid, np.fft.rfft(f), order)


def spectral_norm(grid: PeriodicGrid, fh: np.ndarray, order: int = 0):
    """The H^order norm of the field (or of each row) whose rfft is fh, by
    Parseval with the grid's cached Sobolev weights; order 0 is the L^2(T)
    norm, which equals l2_norm of the field up to rounding."""
    weighted = np.abs(fh / grid.n)
    weighted **= 2
    weighted *= grid._sobolev_weights(order)
    return row_values(np.sqrt(np.sum(weighted, axis=-1)))


def l2_norm(grid: PeriodicGrid, f: np.ndarray):
    f = _check_field(grid, f)
    return row_values(np.sqrt(grid.h * np.sum(f ** 2, axis=-1)))


def max_norm(f: np.ndarray):
    return row_values(np.max(np.abs(f), axis=-1))


def dealias(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """2/3-rule filter: zero the top third of Fourier modes.

    Not applied anywhere, and kept while perfbench/tracing.py requires it;
    exposed for aliasing stress tests of the nodal pseudo-spectral products.
    """
    f = _check_field(grid, f, stack=False)
    fh = np.fft.rfft(f)
    cutoff = grid.n // 3
    fh[cutoff + 1:] = 0.0
    return np.fft.irfft(fh, n=grid.n)
