"""Boundary control of the degenerate heat equation u_t = (x^a u_x)_x.

The toolkit builds the Fourier-Bessel spectral theory of the operator
y |-> -(x^a y')' on (0, 1) for a in [0, 1), synthesizes H1 boundary
controls acting at the degeneracy point x = 0 by the moment method,
verifies controllability by exact spectral simulation, and quantifies the
1/(1-a) blow-up of the null-controllability cost as a -> 1.
"""

from .bessel import (BesselEval, LandauReport, ZeroRecord, bessel_j,
                     bessel_j_many, bessel_j_prime, bessel_zero, gamma_fn,
                     landau_check)
from .biortho import (BiorthogonalFamily, BoundProfile, bound_profile,
                      build_biortho, eval_sigma, exponential_gram)
from .control import (ControlSignal, ReachabilityScore, moment_residual,
                      reachability_score, synthesize)
from .cost import (CostPoint, CostReport, CostUpper, cost_global, cost_lower,
                   cost_sweep, cost_upper, null_control, resolve_u0)
from .errors import (AccuracyError, ConditioningError, ConvergenceError,
                     DegctrlError, DomainError, QuadratureError,
                     TargetStiffnessError, UsageError)
from .simulate import (TerminalError, Trajectory, evolve, reconstruct_state,
                       terminal_error)
from .spectrum import (LimitBasis, Mode, MomentVector, SpectralBasis,
                       eval_eigenfunction, gram_matrix, make_basis,
                       make_limit_basis, neumann_trace_numeric, project,
                       source_coefficient, source_coefficient_quadrature,
                       state_l2_norm, trace_asymptotic_prefactor, unit_moment)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "BesselEval", "BiorthogonalFamily", "BoundProfile",
    "ConditioningError", "ControlSignal", "ConvergenceError", "CostPoint",
    "CostReport", "CostUpper", "DegctrlError", "DomainError", "LandauReport",
    "LimitBasis", "Mode", "MomentVector", "QuadratureError",
    "ReachabilityScore", "SpectralBasis", "TargetStiffnessError",
    "TerminalError", "Trajectory", "UsageError", "ZeroRecord", "bessel_j",
    "bessel_j_many", "bessel_j_prime", "bessel_zero", "bound_profile",
    "build_biortho", "cost_global", "cost_lower", "cost_sweep", "cost_upper",
    "eval_eigenfunction", "eval_sigma", "evolve", "exponential_gram",
    "gamma_fn", "gram_matrix", "landau_check", "make_basis",
    "make_limit_basis", "moment_residual", "neumann_trace_numeric",
    "null_control", "project", "reachability_score", "reconstruct_state",
    "resolve_u0", "source_coefficient", "source_coefficient_quadrature",
    "state_l2_norm", "synthesize", "terminal_error",
    "trace_asymptotic_prefactor", "unit_moment",
]
