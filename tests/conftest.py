import numpy as np
import pytest
from scipy.integrate import solve_ivp

from phasekit.bn import BNState, bn_run
from phasekit.eos import PolytropicEOS
from phasekit.nsk import PhysicalParams, SolverConfig
from phasekit.torus import PeriodicGrid


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


@pytest.fixture(scope="session")
def homogeneous_relaxation():
    """The one homogeneous relaxation run the relaxation checks share:
    polytropic law (mu 0.1, kappa 0.02, gamma 1), N = 8, (alpha_p, rho_p,
    rho_m) = (0.4, 1.5, 0.5) at rest, dt = 2e-4 to t = 1.0.  Snapshot k is
    step 50 k."""
    params = PhysicalParams(mu=0.1, kappa=0.02,
                            eos=PolytropicEOS(1.0, 2.0, 1.0))
    config = SolverConfig(dt=2e-4, t_end=1.0, bounds=(0.05, 20.0),
                          snapshot_every=50)
    state = BNState.make(PeriodicGrid(8), 0.4, 1.5, 0.5, 0.0, params)
    traj = bn_run(state, params, config)
    assert traj.n_steps == 5000 and len(traj.snapshots) == 101
    return traj


@pytest.fixture(scope="session")
def config_text():
    """text(payload): the config file that spells out every value of a
    RunConfig.to_dict() payload, such as the "config" entry of a run's
    meta.json, so that parse_config(text(config.to_dict())) == config."""
    def text(payload):
        lines = []
        for section, values in payload.items():
            lines.append(f"[{section}]")
            for key, value in values.items():
                if isinstance(value, bool):
                    value = str(value).lower()
                elif isinstance(value, list):
                    value = ", ".join(str(v) for v in value)
                elif isinstance(value, float):
                    value = repr(value)
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"
    return text
