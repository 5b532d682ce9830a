"""Boundary control of the degenerate heat equation u_t = (x^a u_x)_x.

The toolkit builds the Fourier-Bessel spectral theory of the operator
y |-> -(x^a y')' on (0, 1) for a in [0, 1), synthesizes H1 boundary
controls acting at the degeneracy point x = 0 by the moment method,
verifies controllability by exact spectral simulation, and quantifies the
1/(1-a) blow-up of the null-controllability cost as a -> 1.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> its public names; the first read of a name imports it and binds the name here
_EXPORTS = {
    "bessel": ("BesselEval", "ZeroRecord", "bessel_j", "bessel_j_many", "bessel_j_prime",
               "bessel_zero"),
    "biortho": ("BiorthogonalFamily", "BoundProfile", "bound_profile", "build_biortho",
                "eval_sigma", "exponential_gram"),
    "control": ("ControlSignal", "ReachabilityScore", "moment_residual",
                "reachability_score", "synthesize"),
    "cost": ("CostPoint", "CostReport", "CostUpper", "cost_lower", "cost_sweep",
             "cost_upper", "null_control", "resolve_u0", "verify"),
    "errors": ("AccuracyError", "ConditioningError", "ConvergenceError", "DegctrlError",
               "DomainError", "QuadratureError", "TargetStiffnessError", "UsageError"),
    "simulate": ("TerminalError", "Trajectory", "evolve", "terminal_error"),
    "spectrum": ("LimitBasis", "Mode", "MomentVector", "SpectralBasis", "eval_eigenfunction",
                 "gram_matrix", "make_basis", "make_limit_basis", "neumann_trace_numeric",
                 "project", "source_coefficient", "source_coefficient_quadrature",
                 "trace_asymptotic_prefactor", "unit_moment"),
}
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    try:   # a public name's submodule, or a submodule such as degctrl.cli
        obj = importlib.import_module(f"{__name__}.{_OWNER.get(name, name)}")
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if name in _OWNER:
        obj = globals()[name] = getattr(obj, name)
    return obj


def __dir__():
    return sorted(set(globals()) | set(__all__))
