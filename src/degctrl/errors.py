"""Exception types shared across the package, and its integer and real checks."""

import numpy as np


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


def _require_int(name: str, value, positive: bool = True, error=DomainError) -> None:
    """Raise ``error`` unless ``value`` is a Python or numpy int, not a bool,
    and, when ``positive``, at least 1. Ranges beyond that stay with the caller."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or positive and value < 1):
        raise error(f"{name} must be {'a positive' if positive else 'an'} int, got {value!r}")


def _require_real(name: str, value, positive: bool = False) -> float:
    """``float(value)``; ``DomainError`` naming ``name`` when that fails (a
    type without a float, or an int or Fraction beyond double range) or,
    when ``positive``, unless the float is finite and positive."""
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if positive and not 0.0 < real < np.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return real
