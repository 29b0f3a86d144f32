"""A smooth single-phase run with its conservation and dissipation ledger.

The solver conserves mass to round-off, drifts total momentum only at
O(h^2) through the coupling force, and dissipates energy with a balance
residual controlled by the step size.  The BD entropy stays below its
run-measured Gronwall envelope, whose rate 4 gamma sup |c_x| takes the
central c_x, the one the coupling force applies.

Run:  python demos/03_single_phase_run.py
"""

import numpy as np

from phasekit import (FluidState, PeriodicGrid, PhysicalParams,
                      PolytropicEOS, SolverConfig, balance_check, nsk_run)

grid = PeriodicGrid(128)
params = PhysicalParams(mu=0.1, kappa=0.02, eos=PolytropicEOS(1.0, 2.0, 1.0))
config = SolverConfig(dt=1e-4, t_end=0.1, bounds=(0.05, 20.0),
                      snapshot_every=200)

rho0 = 1.0 + 0.1 * np.sin(2 * np.pi * grid.x)
state = FluidState.make(grid, rho0, grid.zeros(), params)
traj = nsk_run(state, params, config)

print(f"integrated {traj.n_steps} steps to t = {traj.snapshots[-1].t:.3f}")
print(f"{'t':>7s} {'mass':>10s} {'energy':>12s} {'dissip':>11s} "
      f"{'bd_entropy':>12s} {'rho_min':>8s} {'rho_max':>8s}")
rec = traj.records
for k in range(0, rec.t.size, 200):
    print(f"{rec.t[k]:7.3f} {rec.mass[k]:10.6f} {rec.energy[k]:12.4e} "
          f"{rec.dissipation[k]:11.3e} {rec.bd_entropy[k]:12.4e} "
          f"{rec.rho_min[k]:8.4f} {rec.rho_max[k]:8.4f}")

rate = 4.0 * params.gamma * traj.dxc_sup
report = balance_check(traj.records, gronwall_rate=rate)
print(f"\nsup |c_x| over the run (central c_x, as the coupling force): "
      f"{traj.dxc_sup:.6f}; Gronwall rate 4 gamma sup |c_x| = {rate:.6f}")
print("\nbalance report:")
for key in ("mass_drift", "momentum_drift", "energy_residual",
            "energy_increase", "gronwall_margin", "ok"):
    print(f"  {key:16s} {report[key]}")
print(f"\norder-parameter slaving: worst Helmholtz residual "
      f"{max(s.helmholtz_residual(params) for s in traj.snapshots):.2e}")

from phasekit import energy
final = traj.snapshots[-1]
print(f"final energy, solver backend (central): {energy(final, params):.10e}")
print(f"final energy, spectral re-evaluation:   "
      f"{energy(final, params, backend='spectral'):.10e}")
