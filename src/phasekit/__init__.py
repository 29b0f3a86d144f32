"""phasekit: 1D periodic compressible liquid-vapor flow.

A numpy library for the non-local diffuse-interface flow system, its
one-velocity two-phase relaxation limit, and the parametrized-measure
diagnostics that connect the two through oscillating initial data.
"""

__version__ = "0.1.0"

from .bn import BNState, bn_run, bn_step, picard_bn, transport_with_source
from .diagnostics import (DiagnosticsRecord, balance_check, bd_entropy,
                          compute_record, effective_viscous_flux, energy)
from .eos import (AdmissibilityError, AdmissibilityReport, EquationOfState,
                  PolytropicEOS, VanDerWaalsEOS, check_admissibility,
                  make_eos, quadratic_growth_constant, require_admissible)
from .errors import BoundsError, ConfigError, FixedPointError
from .harness import (ConvergenceReport, FamilyConfig, kinetic_consistency,
                      limit_initial_data, run_family, suggest_dt)
from .measures import (ParamMeasure, SeparableTest, TestDictionary, distance,
                       empirical_from_field, empirical_from_state,
                       kinetic_residual, smoke_test_set, two_dirac_from_bn,
                       wasserstein_avg)
from .nsk import (FluidState, PhysicalParams, SolverConfig,
                  make_oscillating_initial, nsk_run, nsk_step)
from .torus import (PeriodicGrid, derivative, helmholtz_solve, l2_norm,
                    max_norm, mean, primitive, sobolev_norm)

__all__ = [name for name in dir() if not name.startswith("_")]
