"""Bessel functions of the first kind for fractional order in [0, 1].

Everything downstream (spectra, Neumann traces, controllability bounds)
rests on three primitives kept deliberately self-contained here:

* ``bessel_j``     -- J_nu(x) by the ascending power series below a fixed
                      switchover and by the cosine-type (Hankel) asymptotic
                      expansion above it, with a certified truncation-error
                      estimate attached to every value;
* ``bessel_j_prime`` -- J'_nu(x) through the downward recurrence
                      J_{nu+1}(x) = (nu/x) J_nu(x) - J'_nu(x);
* ``bessel_zero``  -- the n-th positive zero j_{nu,n}, located by Newton
                      iteration from McMahon's expansion and certified
                      against the Lorch-Muldoon bracket
                      pi (n + nu/2 - 1/4) <= j_{nu,n} <= pi (n + nu/4 - 1/8),
                      valid for nu in [0, 1/2].

The power series is summed with 80-bit extended-precision accumulation, so
values stay accurate to ~1e-15 absolute through the switchover; this is what
lets zero residuals |J_nu(j)| < 1e-12 be met near x ~ 12 where plain double
summation would drown in cancellation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Series/asymptotic switchover. Above this point the optimally truncated
# Hankel expansion has error below ~4e-13 (first omitted term ~ e^{-2x});
# below it the extended-precision series is exact to ~1e-15. A lower
# switchover would leave a window around x ~ 12 where the asymptotic
# truncation floor exceeds the 1e-12 zero-certification tolerance.
SERIES_CUTOFF = 12.6

# Largest supported order. Public entry points accept nu in [0, 1];
# the derivative recurrence needs J_{nu+1}, hence the internal slack.
_MAX_ORDER = 2.0

_LD = np.longdouble

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0 via a 9-term Lanczos approximation (g = 7).

    Relative error is below 1e-13 on [0.5, 50]; arguments in (0, 0.5) go
    through the reflection formula.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"gamma_fn requires a positive argument, got {x}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = _LD(x) - 1.0
    acc = _LD(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += _LD(c) / (z + i)
    t = z + _LD(_LANCZOS_G) + 0.5
    val = np.sqrt(2 * _LD(np.pi)) * t ** (z + 0.5) * np.exp(-t) * acc
    return float(val)


@dataclass(frozen=True)
class BesselEval:
    """One evaluation of J_nu(x) with its truncation-error certificate.

    ``est_error`` bounds the truncation error of the chosen expansion:
    the first-omitted-term bound for the alternating power series (terms
    are checked to be decreasing before truncation) and for the
    asymptotic expansion (truncated at its smallest term).
    """

    order: float
    argument: float
    value: float
    method: str          # "series" | "asymptotic"
    term_count: int
    est_error: float


def _series_eval(nu: float, x: float):
    """Ascending series in 80-bit accumulation.

    Returns (value, term_count, est_error). Terms are generated by the
    ratio recurrence t_{m+1} = -t_m (x/2)^2 / ((m+1)(m+nu+1)), so no large
    Gamma values are ever formed.
    """
    if x == 0.0:
        return (1.0 if nu == 0.0 else 0.0), 1, 0.0
    xl = _LD(x)
    nul = _LD(nu)
    q = (xl / 2) ** 2
    term = (xl / 2) ** nul / _LD(gamma_fn(nu + 1.0))
    total = term
    m = 0
    est = abs(float(term))
    while m < 200:
        nxt = -term * q / ((m + 1) * (m + nul + 1))
        # once terms decrease, the alternating remainder is bounded by the
        # first omitted term
        if abs(nxt) < abs(term) and abs(nxt) < 1e-18 * max(1.0, abs(float(total))):
            est = abs(float(nxt))
            break
        term = nxt
        total += term
        m += 1
    else:
        raise ConvergenceError(f"J_{nu}({x}): series did not settle in 200 terms")
    return float(total), m + 1, est


def _asymptotic_eval(nu: float, x: float):
    """Hankel's expansion J_nu = sqrt(2/(pi x)) (P cos w - Q sin w).

    P and Q are summed adaptively up to the smallest term; est_error is
    the prefactor times the first omitted term.
    """
    mu = 4.0 * nu * nu
    pref = math.sqrt(2.0 / (math.pi * x))
    omega = x - nu * math.pi / 2.0 - math.pi / 4.0
    p_sum = 1.0  # a_0 / x^0
    q_sum = 0.0
    a = 1.0      # a_m, recurrence below
    u_prev = 1.0
    m = 0
    est = pref * abs(u_prev)
    count = 1
    while m < 60:
        m += 1
        a *= (mu - (2 * m - 1) ** 2) / (8.0 * m)
        u = a / x**m
        if abs(u) >= abs(u_prev) or abs(u) < 1e-18:
            est = pref * abs(u)
            break
        if m % 2 == 0:
            p_sum += (-1.0) ** (m // 2) * u
        else:
            q_sum += (-1.0) ** ((m - 1) // 2) * u
        u_prev = u
        count += 1
    value = pref * (p_sum * math.cos(omega) - q_sum * math.sin(omega))
    return value, count, est


def _eval_any_order(nu: float, x: float):
    """(value, method, terms, est) without the public order restriction."""
    if x < 0.0:
        raise DomainError(f"J_nu needs x >= 0, got {x}")
    if x <= SERIES_CUTOFF:
        value, count, est = _series_eval(nu, x)
        return value, "series", count, est
    value, count, est = _asymptotic_eval(nu, x)
    return value, "asymptotic", count, est


def bessel_j(nu: float, x: float) -> BesselEval:
    """Evaluate J_nu(x) for nu in [0, 1], x >= 0, with an error certificate.

    Absolute accuracy is ~1e-15 in the series regime and better than 1e-11
    (typically ~4e-13) in the asymptotic regime for x <= 200.
    """
    nu = float(nu)
    x = float(x)
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"order must lie in [0, 1], got {nu}")
    value, method, count, est = _eval_any_order(nu, x)
    return BesselEval(order=nu, argument=x, value=value, method=method,
                      term_count=count, est_error=est)


def bessel_j_prime(nu: float, x: float) -> float:
    """J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x), for x > 0."""
    nu = float(nu)
    x = float(x)
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"order must lie in [0, 1], got {nu}")
    if not x > 0.0:
        raise DomainError("bessel_j_prime requires x > 0; the one-sided "
                          "derivative at the degeneracy is handled in the "
                          "spectrum module")
    jn, _, _, _ = _eval_any_order(nu, x)
    jn1, _, _, _ = _eval_any_order(nu + 1.0, x)
    return (nu / x) * jn - jn1


def bessel_j_many(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized J_nu over a nonnegative array (double precision).

    Quadrature-grade path: absolute error ~3e-12 near the switchover and
    far smaller elsewhere, which is ample for the 1e-8 integral tolerances
    downstream. The scalar ``bessel_j`` is the high-accuracy evaluator.
    """
    if not 0.0 <= nu <= _MAX_ORDER:
        raise DomainError(f"order must lie in [0, {_MAX_ORDER}], got {nu}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("arguments must be nonnegative")
    out = np.empty_like(x)

    low = x <= SERIES_CUTOFF
    if np.any(low):
        # extended-precision accumulation keeps cancellation noise ~1e-15
        # through the switchover, where peak terms reach ~1e4
        xs = x[low].astype(_LD)
        nul = _LD(nu)
        q = (xs / 2.0) ** 2
        with np.errstate(divide="ignore"):
            term = np.where(xs > 0.0, (xs / 2.0) ** nul,
                            _LD(1.0 if nu == 0.0 else 0.0))
        term = term / _LD(gamma_fn(nu + 1.0))
        total = term.copy()
        for m in range(90):
            term = -term * q / ((m + 1) * (m + nul + 1))
            total += term
            if np.max(np.abs(term)) < 1e-18:
                break
        out[low] = total.astype(float)

    high = ~low
    if np.any(high):
        xh = x[high]
        mu = 4.0 * nu * nu
        pref = np.sqrt(2.0 / (np.pi * xh))
        omega = xh - nu * np.pi / 2.0 - np.pi / 4.0
        p_sum = np.ones_like(xh)
        q_sum = np.zeros_like(xh)
        a = 1.0
        u_prev = np.ones_like(xh)
        alive = np.ones(xh.shape, dtype=bool)
        for m in range(1, 40):
            a *= (mu - (2 * m - 1) ** 2) / (8.0 * m)
            u = a / xh**m
            alive &= np.abs(u) < np.abs(u_prev)
            if not np.any(alive):
                break
            contrib = np.where(alive, u, 0.0)
            if m % 2 == 0:
                p_sum += (-1.0) ** (m // 2) * contrib
            else:
                q_sum += (-1.0) ** ((m - 1) // 2) * contrib
            u_prev = u
        out[high] = pref * (p_sum * np.cos(omega) - q_sum * np.sin(omega))
    return out


@dataclass(frozen=True)
class ZeroRecord:
    """A certified positive zero of J_nu.

    ``bracket`` is the Lorch-Muldoon enclosure the zero was certified
    against; ``newton_iters`` counts Newton corrections actually taken.
    """

    order: float
    index: int
    zero: float
    newton_iters: int
    bracket: tuple[float, float]


#: residual tolerance |J_nu(j)| required of a certified zero
ZERO_TOL = 1e-12
_BRACKET_SLACK = 1e-9


def lorch_muldoon_bracket(nu: float, n: int) -> tuple[float, float]:
    """Enclosure pi(n + nu/2 - 1/4) <= j_{nu,n} <= pi(n + nu/4 - 1/8)."""
    return (math.pi * (n + nu / 2.0 - 0.25), math.pi * (n + nu / 4.0 - 0.125))


def mcmahon_guess(nu: float, n: int) -> float:
    """Two-term McMahon expansion of j_{nu,n}."""
    beta = (n + nu / 2.0 - 0.25) * math.pi
    return beta - (4.0 * nu * nu - 1.0) / (8.0 * beta)


def _bisect_zero(nu: float, lo: float, hi: float) -> float:
    flo = _eval_any_order(nu, lo)[0]
    fhi = _eval_any_order(nu, hi)[0]
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(
            f"no sign change of J_{nu} on bracket [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = _eval_any_order(nu, mid)[0]
        if fm == 0.0 or hi - lo < 1e-15 * mid:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def bessel_zero(nu: float, n: int) -> ZeroRecord:
    """n-th positive zero of J_nu for nu in [0, 1/2].

    Newton iteration from the McMahon guess, safeguarded by the
    Lorch-Muldoon bracket; falls back to bisection on the bracket if an
    iterate escapes it. The result satisfies |J_nu(j)| < 1e-12 and lies
    inside the bracket.
    """
    nu = float(nu)
    if not 0.0 <= nu <= 0.5:
        raise DomainError(f"zero location supports nu in [0, 1/2], got {nu}")
    if n < 1:
        raise DomainError(f"zero index must be >= 1, got {n}")
    lo, hi = lorch_muldoon_bracket(nu, n)
    x = min(max(mcmahon_guess(nu, n), lo), hi)
    iters = 0
    best_x, best_f = x, abs(_eval_any_order(nu, x)[0])
    converged = best_f < 1e-15
    while not converged and iters < 50:
        f = _eval_any_order(nu, x)[0]
        if abs(f) < best_f:
            best_x, best_f = x, abs(f)
        fp = (nu / x) * f - _eval_any_order(nu + 1.0, x)[0]
        if fp == 0.0:
            break
        step = f / fp
        x = x - step
        iters += 1
        if not (lo - _BRACKET_SLACK <= x <= hi + _BRACKET_SLACK):
            x = _bisect_zero(nu, lo - _BRACKET_SLACK, hi + _BRACKET_SLACK)
            f = _eval_any_order(nu, x)[0]
            if abs(f) < best_f:
                best_x, best_f = x, abs(f)
            break
        f = _eval_any_order(nu, x)[0]
        if abs(f) < best_f:
            best_x, best_f = x, abs(f)
        # polish to the evaluator noise floor, then stop on stalled steps
        converged = best_f < 1e-15 or abs(step) < 4.0 * np.finfo(float).eps * x
    if best_f >= ZERO_TOL:
        raise ConvergenceError(
            f"zero j_({nu},{n}) stalled at {best_x} with residual "
            f"{best_f:.3e} >= {ZERO_TOL} after {iters} Newton steps "
            f"(bracket [{lo}, {hi}])")
    return ZeroRecord(order=nu, index=n, zero=best_x, newton_iters=iters,
                      bracket=(lo, hi))


@dataclass(frozen=True)
class LandauReport:
    """Pointwise check of |J_nu| <= nu^{-1/3} and |J_nu| <= x^{-1/3}."""

    order: float
    arguments: np.ndarray
    values: np.ndarray
    margin_order: np.ndarray   # nu^{-1/3} - |J|
    margin_argument: np.ndarray  # x^{-1/3} - |J|
    passed: bool


def landau_check(nu: float, xs) -> LandauReport:
    """Verify the Landau bounds at every sample; margins are reported."""
    nu = float(nu)
    if not nu > 0.0:
        raise DomainError("the order bound nu^{-1/3} needs nu > 0")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise DomainError("need at least one sample point")
    if np.any(xs <= 0.0):
        raise DomainError("sample points must be positive")
    vals = np.abs(bessel_j_many(nu, xs))
    m_nu = nu ** (-1.0 / 3.0) - vals
    m_x = xs ** (-1.0 / 3.0) - vals
    ok = bool(np.all(m_nu >= 0.0) and np.all(m_x >= 0.0))
    return LandauReport(order=nu, arguments=xs, values=vals,
                        margin_order=m_nu, margin_argument=m_x, passed=ok)
