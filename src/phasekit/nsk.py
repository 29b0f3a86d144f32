"""Time integration of the non-local compressible flow system.

Unknowns on the periodic grid: density rho, velocity u and the order
parameter c, where c is slaved to rho through the screened Poisson solve
-kappa c'' + gamma (c - rho) = 0 and is re-solved after every density
update.

Scheme: conservative central fluxes with a small velocity-proportional
diffusive flux on the density (odd-even guard), explicit pressure and
coupling forces, Crank-Nicolson viscosity solved as a cyclic tridiagonal
system.  Mass is conserved to round-off by construction; the momentum
fluxes telescope, so the only momentum drift comes from the coupling force
and vanishes at second order in h.

The two flux kernels, continuity_update and momentum_update, which the
two-phase step shares, form each periodic neighbour by a slice copy
(_next, _prev) rather than np.roll, and so does central_c_x, the coupling
force's c_x: the values are the same copies, and on small grids np.roll's
per-call overhead costs several times the copy.  For the same reason the
checks that run on every step (_check_state, _step_length) reduce each
field once, with ndarray methods rather than the np.* wrappers.

The kernels follow torus' in-place rule (see the torus module docstring).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, torus
from .eos import EquationOfState, require_admissible
from .errors import BoundsError
from .torus import PeriodicGrid


@dataclass
class PhysicalParams:
    """mu and kappa must be positive; gamma > 0 is left to
    torus.helmholtz_solve, which every state construction and step calls."""
    mu: float
    kappa: float
    eos: EquationOfState

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("kappa", self.kappa)):
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def gamma(self) -> float:
        """The coupling coefficient, owned by the pressure law: P_art = P +
        gamma/2 rho^2 and the force gamma rho c_x are one pair."""
        return self.eos.gamma


@dataclass
class SolverConfig:
    dt: float
    t_end: float
    cfl: float = 0.9
    bounds: tuple = (1e-3, 1e3)
    snapshot_every: int = 1
    upwind: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.dt < np.inf and 0.0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        lo, hi = self.bounds
        if not 0.0 < lo < hi:
            raise ValueError(f"bounds must satisfy 0 < lower < upper, got {self.bounds}")
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be at least 1")
        if self.upwind < 0.0:
            raise ValueError(f"upwind must be nonnegative, got {self.upwind}")


def _select(state, rows):
    """The rows of a batch state, an index (fields that are views) or a
    list of them, along the axis next to the nodes, so that a phase
    stack's phases stay leading."""
    _, _, *names = (f.name for f in dataclasses.fields(state))
    return type(state)(state.grid, state.t,
                       *(getattr(state, name)[..., rows, :] for name in names))


def _rows(state) -> list:
    """The rows of a batch state as states whose fields are views, or
    [state] for a state of single fields."""
    if state.u.ndim == 1:
        return [state]
    return [_select(state, i) for i in range(len(state.u))]


@dataclass
class FluidState:
    grid: PeriodicGrid
    t: float
    rho: np.ndarray
    u: np.ndarray
    c: np.ndarray

    # the snapshot CSV's columns after x
    COLUMNS = ("rho", "u", "c")

    @classmethod
    def make(cls, grid: PeriodicGrid, rho, u, params: PhysicalParams,
             t: float = 0.0) -> "FluidState":
        """c solved from rho; the run loop's check at t = 0 judges rho."""
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        c = torus.helmholtz_solve(grid, rho, params.kappa, params.gamma)
        return cls(grid, t, rho, u, c)

    @property
    def mixture_density(self) -> np.ndarray:
        return self.rho

    def mixture(self, eos: EquationOfState) -> tuple:
        """The density and its artificial pressure."""
        return self.rho, eos.artificial_pressure(self.rho)

    def step_fields(self, eos: EquationOfState) -> tuple:
        """What a step from this state and its record both read: the
        mixture pair of mixture(eos) and the central c_x.  The run loop
        forms them once per state; see nsk_run."""
        return (*self.mixture(eos), central_c_x(self.grid, self.c))

    def helmholtz_residual(self, params: PhysicalParams) -> float:
        res = (-params.kappa * torus.derivative(self.grid, self.c, 2, "spectral")
               + params.gamma * self.c - params.gamma * self.rho)
        return torus.max_norm(res)


@dataclass
class Trajectory:
    """A finished run of nsk_run or bn_run: its snapshots, and in records
    its diagnostics table, one entry per state in time order.  dxc_sup is
    sup |c_x| over all states, for the central c_x, the one the coupling
    force applies."""
    snapshots: list
    records: diagnostics.DiagnosticsRecord
    params: PhysicalParams
    config: SolverConfig
    n_steps: int = 0
    dxc_sup: float = 0.0
    cfl_limited: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def snapshot_times(self):
        return np.array([s.t for s in self.snapshots])


def smoothstep(s: np.ndarray) -> np.ndarray:
    """C^2 quintic ramp on [0, 1], symmetric about s = 1/2."""
    s = np.clip(s, 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s ** 2)


def check_profile(theta: float, delta: float, n_osc: int) -> None:
    """Raise ValueError unless theta lies in (0, 1), the ramp width delta
    in (0, min(theta, 1 - theta)] and n_osc is a positive integer.  The
    one rule for the profile; the config loader prefixes its section."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    ramp_max = min(theta, 1.0 - theta)
    if not 0.0 < delta <= ramp_max:
        raise ValueError(f"delta must lie in (0, min(theta, 1 - theta)] = "
                         f"(0, {ramp_max}], got {delta}")
    if not float(n_osc).is_integer():
        raise ValueError(f"n_osc must be an integer, got {n_osc}")
    if n_osc < 1:
        raise ValueError(f"n_osc must be at least 1, got {n_osc}")


def make_oscillating_initial(grid: PeriodicGrid, v_minus: float, v_plus: float,
                             theta: float, n_osc: int, delta: float
                             ) -> np.ndarray:
    """n-fold compressed two-value density profile rho0(n x).

    The base (n = 1) profile takes the value v_minus on a fraction theta of
    the torus and v_plus on the rest, with the two jumps replaced by smooth
    ramps of width delta (in the base coordinate, so the compressed field
    has physical transition width delta / n).  The ramps are symmetric, so
    the profile mean is exactly theta v_minus + (1 - theta) v_plus.
    theta, delta and n_osc must pass check_profile; the grid must resolve
    each compressed ramp with at least four cells.
    """
    check_profile(theta, delta, n_osc)
    if delta * grid.n < 4.0 * n_osc:
        raise ValueError(
            f"unresolved transitions: compressed ramp width {delta / n_osc:.3e} "
            f"is below 4 h = {4.0 * grid.h:.3e}")
    y = (n_osc * grid.x) % 1.0
    # smoothed indicator of the arc (0, theta): periodized difference of
    # ramps; the jump at 0 contributes through both the j=0 and j=1 images
    chi = (smoothstep(y / delta + 0.5)
           - smoothstep((y - theta) / delta + 0.5)
           + smoothstep((y - 1.0) / delta + 0.5))
    return v_plus + (v_minus - v_plus) * chi


def sound_speed_max(rho: np.ndarray, u: np.ndarray, eos: EquationOfState):
    """max(|u| + c_s) over the grid, one value per row of a batch."""
    speed = eos.d_artificial_pressure(rho)
    np.maximum(speed, 0.0, out=speed)
    np.sqrt(speed, out=speed)
    speed += np.abs(u)
    return torus.row_values(speed.max(axis=-1))


def _check_state(state, railed: np.ndarray, bounds: tuple):
    """The one test of a failed run: the railed densities, each row of a
    phase-leading stack, u and c finite and the railed densities inside
    the rails, else BoundsError.  A railed row's min and max are NaN or
    infinite when the row holds a NaN or an inf, so that one pair answers
    both tests."""
    extremes = [(float(f.min()), float(f.max())) for f in railed]
    if not (all(math.isfinite(rmin) and math.isfinite(rmax)
                for rmin, rmax in extremes)
            and np.isfinite(state.u).all() and np.isfinite(state.c).all()):
        raise BoundsError(f"non-finite field at t = {state.t:.6g}")
    lo, hi = bounds
    for rmin, rmax in extremes:
        if rmin < lo or rmax > hi:
            raise BoundsError(
                f"density guard rail violated at t = {state.t:.6g}: "
                f"range [{rmin:.6g}, {rmax:.6g}] outside [{lo}, {hi}]")


def _next(f: np.ndarray) -> np.ndarray:
    """The value at node i + 1 (mod n) of each row: np.roll(f, -1, axis=-1)."""
    return np.concatenate((f[..., 1:], f[..., :1]), axis=-1)


def _prev(f: np.ndarray) -> np.ndarray:
    """The value at node i - 1 (mod n) of each row: np.roll(f, 1, axis=-1)."""
    return np.concatenate((f[..., -1:], f[..., :-1]), axis=-1)


def central_c_x(grid: PeriodicGrid, c: np.ndarray) -> np.ndarray:
    """(c_{i+1} - c_{i-1}) / 2h of each row from slice shifts, bitwise
    torus.derivative(grid, c, 1, "central"): the c_x of the coupling force,
    of the record's gradient density and of Trajectory.dxc_sup."""
    c_x = _next(c)
    c_x -= _prev(c)
    c_x /= 2.0 * grid.h
    return c_x


def continuity_update(grid: PeriodicGrid, rho: np.ndarray, u: np.ndarray,
                      dt: float, upwind: float) -> np.ndarray:
    """One conservative step of rho_t + (rho u)_x = 0 with central flux and
    an upwind-style diffusive flux of coefficient upwind * h * |u|."""
    flux = rho * u
    flux += _next(flux)
    flux *= 0.5
    if upwind > 0.0:
        speed = np.abs(u)
        nu = _next(speed)
        nu += speed
        nu *= upwind * 0.5
        jump = _next(rho)
        jump -= rho
        jump *= nu
        flux -= jump
    dflux = _prev(flux)
    np.subtract(flux, dflux, out=dflux)
    dflux *= dt / grid.h
    return np.subtract(rho, dflux, out=dflux)


def momentum_update(grid: PeriodicGrid, rho_new: np.ndarray, rho: np.ndarray,
                    u: np.ndarray, c_x: np.ndarray, params: PhysicalParams,
                    dt: float, p: np.ndarray) -> np.ndarray:
    """Conservative momentum step: explicit convection and flux of the
    nodal pressure p, explicit coupling force gamma rho c_x, Crank-Nicolson
    viscosity.  Returns u at the new time level.  The solvers pass the
    artificial pressure of their (mixture) density and central_c_x of c;
    the original form, the bare pressure P with the force gamma rho (c -
    rho)_x, is the call with central_c_x(grid, c - rho) for c_x and
    eos.pressure(rho) for p.

    The viscous system is (rho_new + 2a) u - a (u_{i-1} + u_{i+1}) = rhs,
    a = mu dt / 2h^2: symmetric, with the scalar off-diagonal -a, and
    strictly diagonally dominant while rho_new > 0, so
    torus.solve_cyclic_tridiagonal solves it by one LDL^T factorization
    (one solve per row of a stack).  A rho_new that makes the system
    indefinite raises numpy.linalg.LinAlgError, a ValueError, which the
    run loop reports as a failed step."""
    h = grid.h
    m = rho * u
    g = m * u
    g += p
    g += _next(g)
    g *= 0.5                              # the flux at the half nodes
    dg = _prev(g)
    np.subtract(g, dg, out=dg)
    dg *= dt / h
    force = params.gamma * rho
    force *= c_x
    force *= dt
    rhs = m                               # m_star, then the rhs
    rhs -= dg
    rhs += force

    a = 0.5 * params.mu * dt / h ** 2
    lap = _next(u)
    lap -= 2.0 * u
    lap += _prev(u)
    lap *= a
    rhs += lap
    diag = rho_new + 2.0 * a
    if rhs.ndim == 1:
        return torus.solve_cyclic_tridiagonal(diag, -a, rhs)
    return np.stack([torus.solve_cyclic_tridiagonal(d, -a, r)
                     for d, r in zip(diag, rhs)])


def _step_length(state, railed: np.ndarray, params: PhysicalParams,
                 config: SolverConfig, remaining: float) -> tuple:
    """min(config.dt, remaining, cfl h / max(|u| + c_s) over the rows of
    the phase-leading stack of railed densities and the rows of a batch),
    and whether the CFL bound lies below config.dt, one flag per row of a
    batch."""
    smax = sound_speed_max(railed, state.u, params.eos).max(axis=0)
    with np.errstate(divide="ignore"):
        cfl_dt = config.cfl * state.grid.h / np.asarray(smax)
    return min(config.dt, remaining, float(cfl_dt.min())), cfl_dt < config.dt


def nsk_step(state: FluidState, params: PhysicalParams, config: SolverConfig,
             dt: float, fields: tuple | None = None) -> FluidState:
    """Advance one step of length dt.  fields is state.step_fields(eos),
    which the run loop hands over and which is formed here when not given;
    it is not written.  The result is not checked here; the run loop
    chooses dt and checks every state."""
    grid = state.grid
    _, p, c_x = fields or state.step_fields(params.eos)
    rho_new = continuity_update(grid, state.rho, state.u, dt, config.upwind)
    u_new = momentum_update(grid, rho_new, state.rho, state.u, c_x, params,
                            dt, p)
    c_new = torus.helmholtz_solve(grid, rho_new, params.kappa, params.gamma)
    return FluidState(grid, state.t + dt, rho_new, u_new, c_new)


def _drop_failed_rows(state, members: list, rails, bounds, results: list,
                      cfl_limited: np.ndarray):
    """Check each row of a batch state alone: the BoundsError of a failed
    row, with the row's cfl_limited flag, becomes its member's entry of
    results, and the batch of the other rows is returned with their
    members."""
    keep = []
    for i, row in enumerate(_rows(state)):
        try:
            _check_state(row, rails(row), bounds)
            keep.append(i)
        except BoundsError as exc:
            exc.cfl_limited = bool(cfl_limited[members[i]])
            results[members[i]] = exc
    return _select(state, keep), [members[i] for i in keep]


# rows per record chunk, one per state or batch row: at most
# max(1, _CHUNK_ELEMENTS // n); at small n the per-call overhead of the
# record kernels dominates, at large n it does not, and the bound keeps the
# record temporaries small
_CHUNK_ELEMENTS = 8192


def _chunk_record(pending: list, params: PhysicalParams) -> np.ndarray:
    """The record of the held (state, step_fields) pairs as one (12, rows)
    array, a column per state or batch row: the 11 RECORD_COLUMNS, then the
    row's sup |c_x|.  A lone state is recorded from its own arrays; several
    are stacked once into one carrier FluidState of their t, mixture
    density, u and c, with their stacked step fields."""
    state, fields = pending[0]
    if len(pending) > 1:
        u, c, *fields = (np.vstack(f) for f in zip(
            *((s.u, s.c, *f) for s, f in pending)))
        rows = [len(np.atleast_2d(s.u)) for s, _ in pending]
        state = FluidState(state.grid, np.repeat([s.t for s, _ in pending],
                                                 rows), fields[0], u, c)
    record = diagnostics.compute_record(state, params, fields)
    c_x = fields[2]
    chunk = np.empty((len(diagnostics.RECORD_COLUMNS) + 1,
                      len(np.atleast_2d(c_x))))
    # a column of one value (t of a batch state) fills its row
    for row, name in zip(chunk, diagnostics.RECORD_COLUMNS):
        row[...] = getattr(record, name)
    chunk[-1] = torus.max_norm(c_x)
    return chunk


def _integrate(initial, params: PhysicalParams, config: SolverConfig, step,
               rails):
    """The run loop of nsk_run and bn_run: step(state, params, config, dt=dt,
    fields=fields) advances one step from a state and its step_fields,
    rails(state) gives the railed densities as one phase-leading stack.
    Each run's records are None until the run finishes, then its table."""
    require_admissible(params.eos, 0.0, config.bounds[1])
    batch = initial.u.ndim == 2
    runs = [Trajectory([row], None, params, config)
            for row in _rows(initial)]
    results = list(runs)   # a failed row's entry becomes its BoundsError
    members = list(range(len(runs)))   # the run of each row of state
    cfl_limited = np.zeros(len(runs), dtype=bool)
    state, n_steps = initial, 0
    t_final = initial.t + config.t_end
    t_stop = t_final - 1e-12 * config.t_end
    chunk_rows = max(1, _CHUNK_ELEMENTS // initial.grid.n)
    # the held states with their step_fields, and the run of each row
    pending, pending_runs = [], []
    chunks, owners = [], []   # _chunk_record's arrays, the run of each row
    while True:
        try:
            _check_state(state, rails(state), config.bounds)
        except BoundsError:
            if not batch:
                raise
            state, members = _drop_failed_rows(state, members, rails,
                                               config.bounds, results,
                                               cfl_limited)
            if not members:
                return results
        fields = state.step_fields(params.eos)
        pending.append((state, fields))
        pending_runs += members
        done = state.t >= t_stop
        # the next state has at most as many rows as this one
        if done or len(pending_runs) + len(members) > chunk_rows:
            chunks.append(_chunk_record(pending, params))
            owners += pending_runs
            pending, pending_runs = [], []
        if done:
            table, owners = np.hstack(chunks), np.array(owners)
            for j in members:
                rows = table[:, owners == j]
                runs[j].n_steps = n_steps
                runs[j].cfl_limited = bool(cfl_limited[j])
                runs[j].records = diagnostics.DiagnosticsRecord(*rows[:-1])
                runs[j].dxc_sup = float(rows[-1].max())
            return results if batch else runs[0]
        dt, limited = _step_length(state, rails(state), params, config,
                                   t_final - state.t)
        if limited.any():
            cfl_limited[members] |= limited
        try:
            state = step(state, params, config, dt=dt, fields=fields)
        except ValueError as exc:   # e.g. a density outside the law's domain
            raise BoundsError(f"step from t = {state.t:.6g} failed: {exc}")
        n_steps += 1
        if n_steps % config.snapshot_every == 0 or state.t >= t_stop:
            for j, row in zip(members, _rows(state)):
                runs[j].snapshots.append(row)


def nsk_run(initial: FluidState, params: PhysicalParams,
            config: SolverConfig) -> Trajectory | list:
    """Integrate from initial.t to t_final = initial.t + config.t_end.

    The run loop, shared with bn_run: the law must be admissible on [0,
    upper rail].  Each state, the initial one and each step's result, is
    checked once before it is recorded or stepped: the railed densities, u
    and c finite and the railed densities inside the rails, else
    BoundsError.  The railed densities are one phase-leading stack, each
    row a phase: rho[None], a view, here, and the state's rho stack
    (rho_p, rho_m) for BN.  A step that raises ValueError (a density
    the pressure law refuses, say) raises BoundsError, which names the
    step's start time.  Each step has length min(config.dt,
    t_final - t, cfl h / max(|u| + c_s)), the wave speed taken over the
    railed densities, until t >= t_final - 1e-12 t_end.  Every state is
    recorded: records is the run's diagnostics table, a DiagnosticsRecord
    of 1-D arrays with one entry per state in time order.  Snapshots:
    the initial state, every snapshot_every-th step and the final state,
    the only one within the end tolerance.  cfl_limited: the CFL bound fell
    below config.dt on some step; dxc_sup: sup |c_x| over all states, for
    the central c_x, the one the coupling force applies.

    Each checked state's step_fields (its mixture density and pressure
    and its central c_x) are formed once, for the step from the state and
    for its record.  Records are computed in chunks: checked states are
    held while their rows, one per state or per batch row, fit in K =
    max(1, 8192 // n), or until the final state, and their records and
    sup |c_x| come from one pass over the stack of their rows, one (12,
    rows) array of the 11 record columns and the sup |c_x| row.  The record
    reads a state's mixture only through its step fields, so a chunk
    stacks t, u, c and the three fields.  A state with more than K rows is
    a chunk of its own, and a chunk of one state is read from that state's
    arrays, without the copy a stack makes.
    Each run's table is built once, when the run finishes, from the rows
    its chunks computed; row k equals compute_record of its k-th state
    bitwise.  A checked state's densities lie inside the rails, so its
    record does not raise, and a failed run fails at the same state with
    the same error as it would with one record per step.

    A batch, an initial state whose fields have shape (M, n), runs M
    initial states in one loop, each step one nsk_step over all rows, and
    returns a list of M entries: the trajectory of each row, or the
    BoundsError that ended it.  A batch passes the check when each of its
    rows would; when it does not, each row is checked alone, and a failed
    row leaves the batch with the error its own run raises while the
    others go on.  All rows take one step length, the least of their
    CFL-limited lengths, and cfl_limited is set on the rows whose own bound
    fell below config.dt, on a failed row's BoundsError too.  While no row
    is CFL-limited, each row's trajectory (its snapshots, records, n_steps
    and dxc_sup) equals its own run's bitwise.
    bn_step does not take a batch.
    """
    return _integrate(initial, params, config, nsk_step, lambda s: s.rho[None])
