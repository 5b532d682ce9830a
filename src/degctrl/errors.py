"""Exception types shared across the package."""


class DegctrlError(Exception):
    """Base class for all package errors."""


class DomainError(DegctrlError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UsageError(DegctrlError, ValueError):
    """Inconsistent inputs (mismatched sizes, horizons, or alpha values)."""


class ConvergenceError(DegctrlError, RuntimeError):
    """An iteration failed to converge; carries diagnostics in args."""


class AccuracyError(DegctrlError, RuntimeError):
    """A computed quantity failed its internal accuracy gate."""


class ConditioningError(AccuracyError):
    """A Gram system is too ill-conditioned to certify a family.

    Raised before any solve, as an early form of the accuracy failure the
    certificate would report; ``condition`` is the Gram condition number.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class QuadratureError(DegctrlError, RuntimeError):
    """Quadrature error estimate exceeded the requested tolerance."""


class TargetStiffnessError(DegctrlError, RuntimeError):
    """A target coefficient amplified by e^{lambda*T} overflows double range.

    ``mode`` names the offending index (1-based).
    """

    def __init__(self, message, mode=None):
        super().__init__(message)
        self.mode = mode
