"""Property tests over randomly drawn admissible data."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from phasekit.nsk import continuity_update  # noqa: E402
from phasekit.torus import PeriodicGrid, mean, solve_cyclic_tridiagonal  # noqa: E402

FAST = settings(max_examples=30, deadline=None)


@FAST
@given(data=st.data(), n=st.integers(3, 48))
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
