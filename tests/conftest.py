import numpy as np
import pytest
from scipy.integrate import solve_ivp


def _relaxation_rhs(_, v, params):
    """Spatially homogeneous BN relaxation at rest, v = (alpha_p, rho_p,
    rho_m): alpha_p rho_p and alpha_m rho_m are invariant and the pressure
    gap drives alpha_p at rate 1 / mu."""
    ap, rp, rm = v
    dp = float(params.eos.artificial_pressure(np.array(rp))
               - params.eos.artificial_pressure(np.array(rm)))
    return np.array([ap * (1.0 - ap) * dp, -rp * (1.0 - ap) * dp,
                     rm * ap * dp]) / params.mu


@pytest.fixture
def relaxation_oracle():
    """reference(v0, params, t_end): (alpha_p, rho_p, rho_m) at t_end from
    a DOP853 solve of the homogeneous relaxation ODE, rtol 1e-12, atol
    1e-14."""
    def reference(v0, params, t_end):
        sol = solve_ivp(_relaxation_rhs, (0.0, t_end),
                        np.asarray(v0, dtype=float), method="DOP853",
                        rtol=1e-12, atol=1e-14, args=(params,))
        assert sol.success, sol.message
        return sol.y[:, -1]
    return reference
