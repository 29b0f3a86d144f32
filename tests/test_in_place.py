"""The kernels that write their intermediates in place write into no input.

Each kernel runs once on writable copies of its inputs, which must come
back unchanged, and once on read-only copies, where a stray in-place write
into an input raises; both calls must give the same bits.
"""

import dataclasses

import numpy as np
import pytest

from phasekit import bn, diagnostics, measures, nsk, torus
from phasekit.bn import BNState
from phasekit.eos import PolytropicEOS, VanDerWaalsEOS
from phasekit.nsk import FluidState, PhysicalParams, SolverConfig
from phasekit.torus import PeriodicGrid

VDW = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, 2.0)
PARAMS = PhysicalParams(mu=0.1, kappa=0.1, eos=VDW)
CONFIG = SolverConfig(dt=1e-4, t_end=1.0)
LAW_METHODS = ("pressure", "d_pressure", "artificial_pressure",
               "d_artificial_pressure", "potential")


def density(grid, rng, rows=()):
    return rng.uniform(0.4, 2.0, (*rows, grid.n))


def velocity(grid, rng, rows=()):
    return rng.uniform(-1.0, 1.0, (*rows, grid.n))


def fluid(grid, rng):
    return FluidState.make(grid, density(grid, rng), velocity(grid, rng),
                           PARAMS)


def two_phase(grid, rng):
    return BNState.make(grid, rng.uniform(0.2, 0.8, grid.n),
                        density(grid, rng), density(grid, rng),
                        velocity(grid, rng), PARAMS)


def stack(make, grid, rng):
    """Three states of one kind as one state with a row per state, next to
    the nodes: a phase stack's phases stay leading."""
    states = [make(grid, rng) for _ in range(3)]
    return type(states[0])(
        grid, np.array([s.t for s in states]),
        *(np.stack([getattr(s, f.name) for s in states], axis=-2)
          for f in dataclasses.fields(states[0])[2:]))


STATES = {
    "fluid": fluid,
    "fluid_stack": lambda g, r: stack(fluid, g, r),
    "two_phase": two_phase,
    "two_phase_stack": lambda g, r: stack(two_phase, g, r),
}


def phase_stacks(grid, rng):
    """(alpha, rho) phase stacks of shape (2, n), as a state holds them."""
    alpha_p = rng.uniform(0.2, 0.8, grid.n)
    return np.array((alpha_p, 1.0 - alpha_p)), density(grid, rng, (2,))


def cyclic_system(grid, rng):
    """diag, off, rhs of a random strictly diagonally dominant symmetric
    system."""
    off = rng.uniform(-1.0, 1.0)
    diag = 2.0 * abs(off) + rng.uniform(0.1, 2.0, grid.n)
    return diag, off, rng.uniform(-1.0, 1.0, grid.n)


def momentum_args(grid, rng):
    rho, u, c_x = density(grid, rng), velocity(grid, rng), velocity(grid, rng)
    return (grid, density(grid, rng), rho, u, c_x, PARAMS, 1e-2 * grid.h,
            VDW.artificial_pressure(rho))


def given_fields(step):
    """step with its fields handed over by keyword, as the run loop hands
    them."""
    return lambda state, params, config, dt, fields: step(
        state, params, config, dt, fields=fields)


def step_args(make, grid, rng):
    state = make(grid, rng)
    return state, PARAMS, CONFIG, 1e-2 * grid.h, state.step_fields(VDW)


def record_args(state):
    return state, PARAMS, state.step_fields(VDW)


def lone_args(state):
    return state, state.step_fields(VDW), PARAMS


def pending(make, grid, rng):
    """block_record's arguments for a chunk of three states as the run
    loop checks them: each state with its step fields."""
    states = [make(grid, rng) for _ in range(3)]
    return tuple((s, s.step_fields(VDW)) for s in states), PARAMS


def block_record(pending, params):
    """The record chunk of the states and step fields of pending as the
    run loop records it: their rows copied into a _RecordBlock, then
    _chunk_record of its carrier."""
    block = nsk._RecordBlock(pending[0][0].grid, len(pending))
    for state, fields in pending:
        block.add(state, fields)
    return block.record(params)


# kernel name -> a function of (grid, rng) giving (kernel, arguments)
KERNELS = {
    "solve_cyclic_tridiagonal": lambda g, r: (
        torus.solve_cyclic_tridiagonal, cyclic_system(g, r)),
    "helmholtz_solve-fourier": lambda g, r: (
        torus.helmholtz_solve, (g, density(g, r, (2,)), 0.1, 2.0)),
    "helmholtz_solve-fd": lambda g, r: (
        torus.helmholtz_solve, (g, density(g, r), 0.1, 2.0, "fd")),
    "spectral_norm": lambda g, r: (
        torus.spectral_norm, (g, np.fft.rfft(velocity(g, r, (2,))), 2)),
    "sobolev_norm": lambda g, r: (
        torus.sobolev_norm, (g, velocity(g, r), 2)),
    "continuity_update": lambda g, r: (
        nsk.continuity_update,
        (g, density(g, r, (2,)), velocity(g, r, (2,)), 1e-2 * g.h, 0.5)),
    "momentum_update": lambda g, r: (nsk.momentum_update, momentum_args(g, r)),
    "sound_speed_max": lambda g, r: (
        nsk.sound_speed_max, (density(g, r, (2,)), velocity(g, r), VDW)),
    "nsk_step": lambda g, r: (
        nsk.nsk_step, (fluid(g, r), PARAMS, CONFIG, 1e-2 * g.h)),
    "bn_step": lambda g, r: (
        bn.bn_step, (two_phase(g, r), PARAMS, CONFIG, 1e-2 * g.h)),
    # the step and the record never write the pressure and c_x handed to
    # them
    "nsk_step-given_fields": lambda g, r: (
        given_fields(nsk.nsk_step), step_args(fluid, g, r)),
    "bn_step-given_fields": lambda g, r: (
        given_fields(bn.bn_step), step_args(two_phase, g, r)),
    "compute_record-given_fields": lambda g, r: (
        diagnostics.compute_record, record_args(two_phase(g, r))),
    # a chunk of one state, recorded from its own arrays
    "_chunk_record-lone": lambda g, r: (
        nsk._chunk_record, lone_args(two_phase(g, r))),
    "_chunk_record-fluid": lambda g, r: (
        block_record, pending(fluid, g, r)),
    "_chunk_record-two_phase": lambda g, r: (
        block_record, pending(two_phase, g, r)),
    "central_c_x": lambda g, r: (
        nsk.central_c_x, (g, velocity(g, r, (2,)))),
    "cubic_interp_periodic": lambda g, r: (
        bn.cubic_interp_periodic,
        (velocity(g, r, (2,)), r.uniform(-1.0, 2.0, g.n), g.h)),
    "trace_feet": lambda g, r: (
        bn.trace_feet, (g, velocity(g, r), velocity(g, r), 1e-2 * g.h)),
    "_relaxation_substep": lambda g, r: (
        bn._relaxation_substep, (*phase_stacks(g, r), PARAMS, 1e-2)),
    "_relaxation_flow": lambda g, r: (
        bn._relaxation_flow, (*phase_stacks(g, r), velocity(g, r))),
    "mixture_fields": lambda g, r: (
        bn.mixture_fields, (two_phase(g, r), VDW)),
    # the measure holds the state's own stacks, which it must not write
    "two_dirac_from_bn": lambda g, r: (
        measures.two_dirac_from_bn, (two_phase(g, r), (0.0, 3.0))),
    "BNState.step_fields": lambda g, r: (
        BNState.step_fields, (two_phase(g, r), VDW)),
}
for backend in ("central", "spectral"):
    for order in (1, 2):
        KERNELS[f"derivative-{backend}-{order}"] = (
            lambda g, r, backend=backend, order=order: (
                torus.derivative, (g, velocity(g, r, (2,)), order, backend)))
for law in (VDW, PolytropicEOS(1.0, 2.0, 1.0)):
    for method in LAW_METHODS:
        KERNELS[f"{type(law).__name__}.{method}"] = (
            lambda g, r, law=law, method=method: (
                getattr(law, method), (density(g, r, (2,)),)))
for functional in (diagnostics.compute_record, diagnostics.energy,
                   diagnostics.bd_entropy, diagnostics.dissipation):
    for kind, make in STATES.items():
        KERNELS[f"{functional.__name__}-{kind}"] = (
            lambda g, r, functional=functional, make=make: (
                functional, (make(g, r), PARAMS)))


def copied(value, writeable: bool):
    """value with each array copied, read-only unless writeable: an array,
    a tuple of arrays, or a state, whose field arrays are copied; anything
    else as it is."""
    if isinstance(value, tuple):
        return tuple(copied(v, writeable) for v in value)
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flags.writeable = writeable
        return value
    if isinstance(value, (FluidState, BNState)):
        return dataclasses.replace(value, **{
            f.name: copied(getattr(value, f.name), writeable)
            for f in dataclasses.fields(value) if f.name != "grid"})
    return value


def bits(value):
    """The bytes of every number in value: an array, a float, a state, a
    record or a measure, or a tuple of them; None for anything else (a
    grid, a law)."""
    if isinstance(value, (FluidState, BNState, diagnostics.DiagnosticsRecord,
                          measures.ParamMeasure)):
        value = [v for v in vars(value).values()
                 if not isinstance(v, PeriodicGrid)]
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value).tobytes()
    return None


def grid_symbols(grid):
    """The bytes of the grid's node coordinates and of every Fourier
    symbol it holds, the cached ones included; each must be read-only."""
    symbols = [grid.x, grid._k, grid._ik, grid._k2, grid._minus_k2,
               *grid._sobolev.values(), *grid._helmholtz.values()]
    assert not any(s.flags.writeable for s in symbols)
    return [s.tobytes() for s in symbols]


@pytest.mark.parametrize("n", [10, 64, 16384])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernels_leave_their_inputs_unchanged(kernel, n):
    # the grid's symbols too, which every kernel call on the grid shares
    grid = PeriodicGrid(n)
    function, args = KERNELS[kernel](grid, np.random.default_rng(n))
    writable = [copied(a, True) for a in args]
    before = bits(writable)
    expected = function(*writable)
    assert bits(writable) == before
    symbols = grid_symbols(grid)
    got = function(*(copied(a, False) for a in args))
    assert bits(got) == bits(expected)
    assert grid_symbols(grid) == symbols
