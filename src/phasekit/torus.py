"""Discrete calculus on the periodic unit interval (the torus R/Z).

Grid fields are plain 1D numpy arrays sampled at the nodes of a
:class:`PeriodicGrid`.  ``derivative``, ``mean``, ``l2_norm``,
``sobolev_norm``, ``max_norm`` and the Fourier backend of
``helmholtz_solve`` also act along the last axis of a ``(K, n)`` stack of K
fields: the result has one row (or one value) per field, bitwise equal to K
separate calls, and a reduction of a single field is a Python float.
``primitive``, ``dealias``, the fd backend of ``helmholtz_solve`` and
``solve_cyclic_tridiagonal`` take one field; the latter calls LAPACK gtsv
directly and makes no BLAS call: its corner correction reads the two inner
products it needs in closed form, so no solve wakes a BLAS thread pool.  It
solves its Sherman-Morrison column scaled by a power of two, at least 2^123
below overflow, so that the column's geometric decay (about 0.92 per node
on the N = 16384 momentum matrix) does not run nearly half the sweep in
subnormal arithmetic; the result is bitwise the unscaled solve's wherever
that sweep has no subnormal intermediate.  ``nsk.momentum_update`` solves a
stack one row at a time, because one block-banded solve of all rows
differs from the row solves in the last bit.  Two derivative backends are
provided everywhere: ``"central"`` (second-order finite differences,
exactly conservative in the telescoping sense) and ``"spectral"``
(discrete-Fourier differentiation, exact on resolved trigonometric
polynomials).  The backend is always an explicit argument, never module
state.  The Fourier symbols (the wavenumbers, i k, -k^2, k^2 and the
Sobolev weights of each order) are built once per grid and are read-only;
each kernel applies them in the order it always did, so every value is
bitwise what building them per call gave.

The kernels check shapes, not values: NaN and inf propagate to the result,
and the run loop (``nsk._integrate``) decides whether a state is valid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgtsv

TWO_PI = 2.0 * np.pi


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class PeriodicGrid:
    """Uniform grid of n nodes x_i = i/n on the unit torus.

    n must be even and at least 8: the Fourier-diagonal solves assume a
    well-defined Nyquist mode and can't do anything useful on toy grids.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 8:
            raise ValueError(f"grid needs at least 8 nodes, got {n}")
        if n % 2 != 0:
            raise ValueError(f"grid size must be even, got {n}")
        self.n = n
        self.h = 1.0 / n
        self.x = np.arange(n) / n
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

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers 2*pi*m for the rfft layout, m = 0..n/2
        (read-only, shared by every call)."""
        return self._k

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
        if order == 1:
            return (np.roll(f, -1, axis=-1)
                    - np.roll(f, 1, axis=-1)) / (2.0 * grid.h)
        return (np.roll(f, -1, axis=-1) - 2.0 * f
                + np.roll(f, 1, axis=-1)) / grid.h ** 2
    if backend == "spectral":
        fh = np.fft.rfft(f)
        if order == 1:
            fh = fh * grid._ik
            fh[..., -1] = 0.0  # Nyquist mode has no well-defined odd derivative
        else:
            fh = fh * grid._minus_k2
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
        rh = np.fft.rfft(rho)
        ch = gamma * rh / (kappa * grid._k2 + gamma)
        return np.fft.irfft(ch, n=grid.n)
    if backend == "fd":
        a = kappa / grid.h ** 2
        lower = np.full(grid.n, -a)
        diag = np.full(grid.n, 2.0 * a + gamma)
        upper = np.full(grid.n, -a)
        return solve_cyclic_tridiagonal(lower, diag, upper, gamma * rho)
    raise ValueError(f"unknown backend {backend!r}")


def solve_cyclic_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                             upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the periodic tridiagonal system A x = rhs.

    Row i reads lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i]
    with wrap-around corners lower[0] and upper[n-1].  Sherman-Morrison on
    top of one LAPACK gtsv call with the two right-hand sides rhs and u =
    (alpha, 0, ..., 0, upper[n-1]), alpha = -diag[0], or -(|upper[0]| +
    |lower[0]|) when diag[0] == 0, so that a zero diag[0] of a nonsingular
    system needs no division by zero.  scipy's solve_banded((1, 1), ...)
    dispatches to the same gtsv with the same three diagonals; the direct
    call skips building the (3, n) band matrix and the argument checks.  A
    singular reduced system, or a zero row 0, raises
    numpy.linalg.LinAlgError.

    The column u is solved scaled by 2^s, s = 900 - e clamped to [0, 900],
    with e the binary exponent of max(|alpha|, |upper[n-1]|), and its
    solution z is unscaled by ldexp.  Scaling by a power of two is exact,
    and gtsv's pivots do not depend on the right-hand side, so z and the
    result are bitwise the unscaled solve's wherever the unscaled sweep has
    no subnormal intermediate; where it has, the scaled sweep is the more
    accurate one.  The scaled entries of u stay below 2^901, 2^123 below
    overflow.  z does not change when the whole system is scaled (z[0] is
    about -1/2 when row 0 is diagonally dominant), and the clamp at 900
    lets it grow to 2^124 before the scaled z overflows, at any scale of
    the system.  The rhs column is not scaled.

    The correction vector v = (1, 0, ..., 0, lower[0]/alpha) has two
    nonzero entries.  The corner term of the reduced diagonal is formed as
    upper[n-1] * v[n-1], the quotient first, so that on a system scaled
    beyond about 1e+-154 the product of the two corner entries neither
    underflows nor overflows.  v @ y is read as y[0] + v[n-1] * y[n-1]
    (and v @ z alike), with no BLAS dot.  That equals numpy's length-n dot
    bitwise when n % 16 == 0 (numpy 2.4.6 with OpenBLAS 0.3.31, as pinned in
    constraints.txt); on other grids it may differ in the last bit.
    """
    n = diag.size
    corner_low = lower[0]
    corner_up = upper[n - 1]

    # rank-one correction u v^T removing the two corner entries
    alpha = -diag[0]
    if alpha == 0.0:
        # keeps row 0 of the reduced system diagonally dominant
        alpha = -(abs(upper[0]) + abs(corner_low))
        if alpha == 0.0:
            raise np.linalg.LinAlgError("singular matrix: row 0 is zero")
    v_last = corner_low / alpha
    d = np.array(diag, dtype=float)
    d[0] = diag[0] - alpha
    d[n - 1] = diag[n - 1] - corner_up * v_last

    # the two right-hand sides rhs and 2^s u as the rows of one buffer,
    # passed transposed so gtsv gets Fortran order without a copy
    e = math.frexp(max(abs(alpha), abs(corner_up)))[1] - 1
    s = min(900, max(0, 900 - e))
    b = np.zeros((2, n))
    b[0] = rhs
    b[1, 0] = math.ldexp(alpha, s)
    b[1, n - 1] = math.ldexp(corner_up, s)

    *_, x, info = dgtsv(lower[1:], d, upper[:-1], b.T,
                        overwrite_d=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    y, z = x.T
    z = np.ldexp(z, -s)
    v_y = y[0] + v_last * y[n - 1]
    v_z = z[0] + v_last * z[n - 1]
    return y - z * v_y / (1.0 + v_z)


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
    fh = fh / grid.n
    weighted = grid._sobolev_weights(order) * np.abs(fh) ** 2
    return row_values(np.sqrt(np.sum(weighted, axis=-1)))


def l2_norm(grid: PeriodicGrid, f: np.ndarray):
    f = _check_field(grid, f)
    return row_values(np.sqrt(grid.h * np.sum(f ** 2, axis=-1)))


def max_norm(f: np.ndarray):
    return row_values(np.max(np.abs(f), axis=-1))


def dealias(grid: PeriodicGrid, f: np.ndarray) -> np.ndarray:
    """2/3-rule filter: zero the top third of Fourier modes.

    Not applied by default anywhere; exposed for aliasing stress tests of
    the nodal pseudo-spectral products.
    """
    f = _check_field(grid, f, stack=False)
    fh = np.fft.rfft(f)
    cutoff = grid.n // 3
    fh[cutoff + 1:] = 0.0
    return np.fft.irfft(fh, n=grid.n)
