"""The one-velocity two-phase system: pressure relaxation and degeneracies.

A spatially homogeneous mixture relaxes its artificial-pressure gap to zero
monotonically; a pure alpha_p = 1 run reproduces the single-phase solver
exactly; and the Picard construction of the frozen-velocity subsystem
contracts on every slab.  A two-phase state holds its fractions and phase
densities as (2, n) stacks, alpha = (alpha_p, alpha_m) and rho = (rho_p,
rho_m), so one law call gives both phases' pressures.

Run:  python demos/04_two_phase_relaxation.py
"""

import numpy as np

from phasekit import (BNState, FluidState, PeriodicGrid, PhysicalParams,
                      PolytropicEOS, SolverConfig, bn_run, nsk_run, picard_bn)

grid = PeriodicGrid(64)
params = PhysicalParams(mu=0.1, kappa=0.02, eos=PolytropicEOS(1.0, 2.0, 1.0))

print("== homogeneous pressure relaxation ==")
config = SolverConfig(dt=2e-4, t_end=0.8, bounds=(0.05, 20.0),
                      snapshot_every=400)
state = BNState.make(grid, 0.4, 1.5, 0.5, 0.0, params)
traj = bn_run(state, params, config)
print(f"{'t':>6s} {'alpha_p':>9s} {'rho_p':>8s} {'rho_m':>8s} {'|gap|':>10s}")
for s in traj.snapshots:
    rho_p, rho_m = s.rho[:, 0]   # node 0 of each phase
    p_p, p_m = params.eos.artificial_pressure(s.rho[:, 0])
    print(f"{s.t:6.2f} {s.alpha[0, 0]:9.5f} {rho_p:8.5f} "
          f"{rho_m:8.5f} {abs(float(p_p - p_m)):10.3e}")

print("\n== pure phase degenerates to the single-phase solver ==")
rho0 = 1.0 + 0.2 * np.sin(2 * np.pi * grid.x)
u0 = 0.1 * np.cos(2 * np.pi * grid.x)
short = SolverConfig(dt=2e-4, t_end=0.05, bounds=(0.05, 20.0),
                     snapshot_every=10 ** 9)
single = nsk_run(FluidState.make(grid, rho0, u0, params), params,
                 short).snapshots[-1]
two = bn_run(BNState.make(grid, 1.0, rho0, rho0, u0, params), params,
             short).snapshots[-1]
print(f"  max |rho_p - rho| = {np.max(np.abs(two.rho[0] - single.rho)):.2e}")
print(f"  max |u_bn - u|    = {np.max(np.abs(two.u - single.u)):.2e}")

print("\n== Picard fixed point for the frozen-coefficient subsystem ==")
eos = params.eos
times = np.linspace(0.0, 0.2, 101)
pi = np.full((times.size, grid.n), float(eos.artificial_pressure(np.array(1.2))))
u = np.zeros((times.size, grid.n))
alpha, rho, info = picard_bn(grid, np.full(grid.n, 0.7), np.full(grid.n, 0.9),
                             u, pi, times, eos, mu=0.5, tol=1e-11)
for slab in info["slabs"]:
    ratios = ", ".join(f"{r:.3f}" for r in slab["ratios"][:6])
    print(f"  slab [{slab['t0']:.3f}, {slab['t1']:.3f}] contraction ratios: "
          f"{ratios}")
print(f"  final (alpha, rho) = ({alpha[-1, 0]:.6f}, {rho[-1, 0]:.6f}); the "
      f"density is relaxing toward P_art^(-1)(pi) = 1.2")
