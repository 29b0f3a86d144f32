"""Pressure laws, spinodal regions and the artificial-pressure cure.

A Van-der-Waals isotherm below its critical temperature loses monotonicity
on a density interval (the spinodal); adding gamma/2 rho^2 restores
monotonicity once gamma is at least twice the attraction coefficient.

Run:  python demos/02_equations_of_state.py
"""

import dataclasses
import json

import numpy as np

from phasekit import (PolytropicEOS, VanDerWaalsEOS, check_admissibility,
                      quadratic_growth_constant)

print("== bare Van-der-Waals law (A=1, B=1, R=1, T*=0.2): gamma = 0 ==")
bare = VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=0.0)
report = check_admissibility(bare, 0.0, 0.999)
print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))

print("\n== same law with gamma = 2A ==")
cured = VanDerWaalsEOS(1.0, 1.0, 1.0, 0.2, gamma=2.0)
report = check_admissibility(cured, 0.0, 0.999)
print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))

print("\n== pressure, artificial pressure and potential along the isotherm ==")
r = np.linspace(0.05, 0.95, 10)
rows = zip(r, bare.pressure(r), cured.artificial_pressure(r),
           cured.potential(r))
print(f"  {'rho':>6s} {'P':>9s} {'P_art':>9s} {'W':>9s}")
for ri, p, pa, w in rows:
    print(f"  {ri:6.2f} {p:9.4f} {pa:9.4f} {w:9.4f}")

print("\n== quadratic growth of the potential ==")
poly = PolytropicEOS(1.0, 2.0, gamma=1.0)
c_rho = quadratic_growth_constant(poly, 50.0)
print(f"  polytropic(1, 2): sup r^2 / (1 + W(r)) over (0, 50]  = {c_rho:.4f}")
wide = VanDerWaalsEOS(1.0, 3.0, 1.0, 0.2, gamma=2.0)
c_rho = quadratic_growth_constant(wide, 2.8)
print(f"  VdW(1, 3, 1, 0.2):  sup r^2 / (1 + W(r)) over (0, 2.8] = {c_rho:.4f}")
