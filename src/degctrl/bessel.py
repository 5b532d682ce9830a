"""Bessel functions of the first kind for fractional order in [0, 1].

Everything downstream (spectra, Neumann traces, controllability bounds)
rests on three primitives kept deliberately self-contained here:

* ``bessel_j``     -- J_nu(x) by the ascending power series and Miller's
                      recurrence below a fixed switchover and by the
                      cosine-type (Hankel) asymptotic expansion above it,
                      with a certified error estimate attached to every value;
* ``bessel_j_prime`` -- J'_nu(x) through the downward recurrence
                      J_{nu+1}(x) = (nu/x) J_nu(x) - J'_nu(x);
* ``bessel_zero``  -- the n-th positive zero j_{nu,n}, located by Newton
                      iteration from McMahon's expansion and certified
                      against the Lorch-Muldoon bracket
                      pi (n + nu/2 - 1/4) <= j_{nu,n} <= pi (n + nu/4 - 1/8),
                      valid for nu in [0, 1/2].

These scalar evaluators are the certified path. Like ``bessel_j_many``,
the vectorized quadrature path, they use only float64: the series where
cancellation is mild (x <= 2), Miller's downward recurrence on (2, 12.6],
where the series summed in double would lose ~1e-12 to cancellation in the
rounding of its ~1e4-sized terms, and the Hankel expansion above. Both
paths run the same recurrence and agree there bit for bit. Against
40-digit mpmath the absolute error on [0, 12.6] measured at most 1.3e-15
for orders 0 to 2, which lets zero residuals |J_nu(j)| < 1e-12 be met near
x ~ 12; below the switchover each certificate bounds float64 rounding as
well as truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Series/asymptotic switchover. Above this point the optimally truncated
# Hankel expansion has error below ~4e-13 (first omitted term ~ e^{-2x});
# below it the float64 series-plus-Miller evaluation that the scalar and
# the vectorized path share is exact to ~1e-15. A lower switchover would
# leave a window around x ~ 12 where the asymptotic truncation floor
# exceeds the 1e-12 zero-certification tolerance.
SERIES_CUTOFF = 12.6

# The vectorized path sums the series in float64 only up to here, where
# its terms stay below 1 and cancellation costs a few ulps at most; above
# it, up to SERIES_CUTOFF, it runs Miller's recurrence from order
# nu + _MILLER_START.
_MILLER_FROM = 2.0
_MILLER_START = 40

# A-priori rounding bound of the scalar path below SERIES_CUTOFF, in ulps
# of the magnitude it works at: up to 12 from the Lanczos sum of gamma_fn,
# one per step of Miller's recurrence and a few for the scaling.
_EPS = np.finfo(float).eps
_ROUNDING_ULPS = 64

# Largest supported order. Public entry points accept nu in [0, 1];
# the derivative recurrence needs J_{nu+1}, hence the internal slack.
_MAX_ORDER = 2.0

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
    if x > 171.7:
        return math.inf  # beyond float64 from 171.62 on
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    # two half powers: t^(z+1/2) alone would overflow from x ~ 143 on
    half = t ** ((z + 0.5) / 2.0)
    return math.sqrt(2.0 * math.pi) * half * math.exp(-t) * half * acc


@dataclass(frozen=True)
class BesselEval:
    """One evaluation of J_nu(x) with its error certificate.

    ``est_error`` bounds the truncation error of the chosen expansion (the
    first omitted term of the alternating power series, whose terms do not
    increase for x <= 2, or of the asymptotic expansion, truncated at its
    smallest term; Miller's is below 3e-31 relative). Below the switchover
    it adds an a-priori float64 rounding bound (``_series_eval``).
    """

    order: float
    argument: float
    value: float
    method: str          # "series" | "asymptotic"
    term_count: int
    est_error: float


def _series_eval(nu: float, x: float):
    """J_nu on [0, SERIES_CUTOFF] in float64: (value, term_count, est_error).

    The ascending series up to ``_MILLER_FROM``, its terms generated by the
    ratio t_{m+1} = -t_m (x/2)^2 / ((m+1)(m+nu+1)) so that no large Gamma
    values are formed, and Miller's recurrence above. est_error adds
    ``_ROUNDING_ULPS`` ulps of sum |t_m|, or of Miller's normalisation
    (x/2)^nu / Gamma(nu+1) >= |J_nu(x)|, to the truncation term.
    """
    if x == 0.0:
        return (1.0 if nu == 0.0 else 0.0), 1, 0.0
    if x > _MILLER_FROM:
        lead, value = _miller(nu, x)
        return float(value), _MILLER_START, _ROUNDING_ULPS * _EPS * float(lead)
    q = (x / 2.0) ** 2
    term = total = size = (x / 2.0) ** nu / gamma_fn(nu + 1.0)
    m = 0
    while True:
        nxt = -term * q / ((m + 1) * (m + nu + 1))
        # terms do not increase for x <= 2, so the alternating remainder
        # is bounded by the first omitted term
        if abs(nxt) < 1e-18 * max(1.0, abs(total)):
            return total, m + 1, abs(nxt) + _ROUNDING_ULPS * _EPS * size
        term = nxt
        total += term
        size += abs(term)
        m += 1


def _asymptotic_eval(nu: float, x: float):
    """Hankel's expansion J_nu = sqrt(2/(pi x)) (P cos w - Q sin w).

    P and Q are summed adaptively up to the smallest term; est_error is
    the prefactor times the first omitted term.
    """
    mu = 4.0 * nu * nu
    pref = math.sqrt(2.0 / (math.pi * x))
    omega = x - nu * math.pi / 2.0 - math.pi / 4.0
    # P = u_0 - u_2 + u_4 - ..., Q = u_1 - u_3 + ..., with
    # u_m = u_{m-1} (mu - (2m-1)^2) / (8 m x); u carries the sign
    # (-1)^floor(m/2) with which u_m enters its sum
    p_sum, q_sum, u = 1.0, 0.0, 1.0
    for m in range(1, 61):
        nxt = u * (mu - (2 * m - 1) ** 2) / (8.0 * m * x)
        if abs(nxt) >= abs(u) or abs(nxt) < 1e-18:
            break
        if m % 2:
            q_sum += nxt
        else:
            nxt = -nxt
            p_sum += nxt
        u = nxt
    value = pref * (p_sum * math.cos(omega) - q_sum * math.sin(omega))
    return value, m, pref * abs(nxt)


def _eval_any_order(nu: float, x: float):
    """(value, terms, est, method) without the public order restriction."""
    if not 0.0 <= x < math.inf:
        raise DomainError("arguments must be finite and nonnegative")
    if x <= SERIES_CUTOFF:
        return (*_series_eval(nu, x), "series")
    return (*_asymptotic_eval(nu, x), "asymptotic")


def bessel_j(nu: float, x: float) -> BesselEval:
    """Evaluate J_nu(x) for nu in [0, 1], x >= 0, with an error certificate.

    Absolute accuracy is ~1e-15 in the series regime and better than 1e-11
    (typically ~4e-13) in the asymptotic regime for x <= 200.
    """
    nu = float(nu)
    x = float(x)
    if not 0.0 <= nu <= 1.0:
        raise DomainError(f"order must lie in [0, 1], got {nu}")
    value, count, est, method = _eval_any_order(nu, x)
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
    return (nu / x) * _eval_any_order(nu, x)[0] - _eval_any_order(nu + 1.0, x)[0]


def bessel_j_many(nu: float, x: np.ndarray) -> np.ndarray:
    """Vectorized J_nu over a finite nonnegative array of any shape, in float64.

    Quadrature path: the ascending series for x <= ``_MILLER_FROM``,
    Miller's downward recurrence up to ``SERIES_CUTOFF`` and Hankel's
    expansion above it. Absolute error is below 6e-16 on [0, 12.6] and
    ~4e-13 above, ample for the 1e-8 integral tolerances downstream; each
    value depends only on its own argument, so a table and its rows give
    identical bits. The scalar ``bessel_j`` is the certified evaluator.
    """
    if not 0.0 <= nu <= _MAX_ORDER:
        raise DomainError(f"order must lie in [0, {_MAX_ORDER}], got {nu}")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x < np.inf)):
        raise DomainError("arguments must be finite and nonnegative")
    out = np.empty_like(x)

    low = x <= _MILLER_FROM
    if np.any(low):
        # terms decrease from the first and fall below 1e-19 by m = 13
        xs = x[low]
        q = (xs / 2.0) ** 2
        term = (xs / 2.0) ** nu / gamma_fn(nu + 1.0)
        total = term.copy()
        for m in range(14):
            term = -term * q / ((m + 1) * (m + nu + 1))
            total += term
        out[low] = total

    mid = ~low & (x <= SERIES_CUTOFF)
    if np.any(mid):
        out[mid] = _miller(nu, x[mid])[1]

    high = ~(low | mid)
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


def _miller(nu: float, x):
    """J_nu on (2, SERIES_CUTOFF] by Miller's algorithm (Gautschi 1967).

    f_{k-1} = (2(nu+k)/x) f_k - f_{k+1}, run down from f_{K+1} = 0,
    f_K = 1 with K = ``_MILLER_START``, is proportional to J_{nu+k}(x) up to
    a relative error of order J_{nu+K}(x) / |Y_{nu+K}(x)| (below 3e-31
    here). The scale comes from
    (x/2)^nu = Gamma(nu+1) [J_nu + sum_{k>=1} (nu+2k) h_k J_{nu+2k}]
    with h_1 = 1, h_{k+1} = h_k (nu+k)/(k+1). The recurrence is stable in
    this direction, so float64 stays within 6e-16 where the series would
    lose ~1e-12 to cancellation.

    Plain arithmetic serves a float and an ndarray alike, and ``np.power``
    rounds a scalar as it rounds an array element, so the scalar and the
    vectorized path agree bit for bit. Returns (lead, J_nu) with the
    leading series term lead = (x/2)^nu / Gamma(nu+1).
    """
    h = [0.0, 1.0]
    for k in range(1, _MILLER_START // 2):
        h.append(h[k] * (nu + k) / (k + 1))
    f_next, f, norm = 0.0, 1.0, 0.0
    for k in range(_MILLER_START, 0, -1):
        if k % 2 == 0:
            norm = norm + (nu + k) * h[k // 2] * f
        f, f_next = (2.0 * (nu + k) / x) * f - f_next, f
    lead = np.power(x / 2.0, nu) / gamma_fn(nu + 1.0)
    return lead, lead * f / (f + norm)


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
    f = _eval_any_order(nu, x)[0]
    best_x, best_f = x, abs(f)
    converged = best_f < 1e-15
    while not converged and iters < 50:
        fp = (nu / x) * f - _eval_any_order(nu + 1.0, x)[0]
        if fp == 0.0:
            break
        step = f / fp
        x = x - step
        iters += 1
        escaped = not (lo - _BRACKET_SLACK <= x <= hi + _BRACKET_SLACK)
        if escaped:
            x = _bisect_zero(nu, lo - _BRACKET_SLACK, hi + _BRACKET_SLACK)
        f = _eval_any_order(nu, x)[0]
        if abs(f) < best_f:
            best_x, best_f = x, abs(f)
        # polish to the evaluator noise floor, then stop on stalled steps;
        # a bisection result is final
        converged = escaped or best_f < 1e-15 or abs(step) < 4.0 * _EPS * x
    if best_f >= ZERO_TOL:
        raise ConvergenceError(
            f"zero j_({nu},{n}) stalled at {best_x} with residual "
            f"{best_f:.3e} >= {ZERO_TOL} after {iters} Newton steps "
            f"(bracket [{lo}, {hi}])")
    return ZeroRecord(order=nu, index=n, zero=best_x, newton_iters=iters,
                      bracket=(lo, hi))
