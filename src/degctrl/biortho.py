"""Finite biorthogonal families to real exponentials on [0, T].

Given 0 < lambda_1 < ... < lambda_N, construct sigma_1..sigma_N in
L2(0, T) with

    int_0^T sigma_n(t) e^{lambda_m t} dt = delta_nm   (m = 1..N)
    int_0^T sigma_n(t) dt = 0,

the zero-mean condition being enforced through an artificial exponent
lambda_0 = 0 adjoined to the family. Each sigma_n is the minimum-L2-norm
element of span{ e^{lambda_k (t-T)} : k = 0..N } subject to those N+1
constraints, obtained from the (N+1)x(N+1) Gram system

    G c = b,   G[j][k] = (1 - e^{-(lambda_j+lambda_k) T})/(lambda_j+lambda_k)
               (entry T when lambda_j + lambda_k = 0),
    b[m] = delta_nm e^{-lambda_m T}.

Scaling. The solver actually works with the time-reflected functions

    sigma_n(t) = e^{-lambda_n T} tilde_sigma_n(T - t),
    tilde_sigma_n(s) = sum_k a[n][k] e^{-lambda_k s},   G a_n = e_n,

and stores the reflected coefficients ``a`` together with the damping
log-scale -lambda_n T. The literal span coefficients c[n][k]
= e^{-lambda_n T} a[n][k] underflow double precision once
lambda_n T > ~709 (already at N = 10, T = 1, alpha = 0), while ``a`` is
always representable. The exact identity

    int_0^T sigma_n(t) e^{lambda_m t} dt
        = e^{(lambda_m - lambda_n) T} int_0^T tilde_sigma_n(s) e^{-lambda_m s} ds

links the two scales; the stored residual matrix is the reflected one,
R[n][m] = int tilde_sigma_n e^{-lambda_m s} ds - delta_nm, whose entries
all live at the terminal-state scale and are the quantities that actually
bound the damage a family defect can do to a controlled trajectory.
The residual applies the solved coefficients to the same closed-form
Gram, evaluated from the exponents and multiplied in long double. Its
rounding is at most (N+1) u max(|G| |A|), with u the long-double unit
roundoff and |.| taken entrywise. On 100 alphas in [0, 0.99], T from 0.1
to 4 and N = 4..16 that reads at most 4.1e-8 on a certified family (|A|
reaches 8.9e12 at N = 12), 4% of the default tol. The solve refines its
coefficients against that same long-double Gram (``_solve_spd``).

Norms satisfy ||sigma_n|| e^{lambda_n T} = ||tilde_sigma_n|| = sqrt(a[n][n]),
so the growth profile B_T e^{K sqrt(lambda_n)} of the family can be fitted
without ever forming an under/overflowing number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (AccuracyError, ConditioningError, DomainError, UsageError,
                     _require_int, _require_real)

CONDITION_LIMIT = 1e14
DEFAULT_TOL = 1e-6

_LD = np.longdouble
_ZERO = np.zeros(1)   # the adjoined exponent lambda_0


def exponential_gram(lambdas_full: np.ndarray, T: float,
                     other: np.ndarray | None = None) -> np.ndarray:
    """Gram of { e^{lambda_k (t-T)} } on [0, T], closed form; with ``other``
    = {mu_j}, the cross-Gram int_0^T e^{(lambda_k + mu_j)(t-T)} dt.

    Both exponent sets are taken increasing, so the last entry bounds the
    exponents: once it times T leaves double range, e^{-(lambda + mu) T}
    is 0 and the overflow on the way there is not reported. The entries
    take the exponents' precision: long double in, long double out, and
    float64 for anything narrower.
    """
    lam = np.asarray(lambdas_full)
    lam = lam.astype(np.result_type(lam, float), copy=False)
    mu = lam if other is None else np.asarray(other, dtype=lam.dtype)
    L = lam[:, None] + mu[None, :]
    if L.size and float(L[-1, -1]) * float(T) == math.inf:
        with np.errstate(over="ignore"):
            E = np.exp(-L * T)
    else:   # no errstate context on the common path: the mode ladder calls this often
        E = np.exp(-L * T)
    return np.divide(1.0 - E, L, out=np.full_like(L, T), where=L != 0.0)


def _affine_moments(a, b, T, lam, i1):
    """int_0^T (a + b t) e^{lambda (t-T)} dt from i1 = int_0^T e^{lambda (t-T)} dt,
    with int_0^T t e^{lambda (t-T)} dt = T/lambda - i1/lambda."""
    return a * i1 + b * (T / lam - i1 / lam)


def _solve_spd(G: np.ndarray, B: np.ndarray, G_ld: np.ndarray) -> np.ndarray:
    """Equilibrated Cholesky solve of G X = B with one extended-precision
    refinement step; ``AccuracyError`` if G is not numerically positive
    definite.

    The factor is inverted once and L^-T L^-1 applied by matmul, in the
    solve and in the refinement. The refinement residual is formed in long
    double against ``G_ld``, the long-double Gram that the certificate
    reads, equilibrated like G: refinement converges to the system whose
    residual it forms, so it refines toward that Gram, not toward its
    rounding to float64.
    """
    d = 1.0 / np.sqrt(G.diagonal())
    rows = d[:, None]
    Gs = G * rows * d
    Bs = B * rows
    try:
        L = np.linalg.cholesky(Gs)
    except np.linalg.LinAlgError:
        raise AccuracyError("Cholesky failed: Gram not positive definite") from None
    Li = np.linalg.inv(L)
    X = Li.T @ (Li @ Bs)
    # one refinement step, residual accumulated in 80-bit; np.dot sums in
    # matmul's order for long double, without its wrapper's cost
    R = (Bs.astype(_LD) - np.dot(G_ld * rows * d, X.astype(_LD))).astype(float)
    X = X + Li.T @ (Li @ R)
    return X * rows


@lru_cache(maxsize=32)
def _shift(n: int) -> np.ndarray:
    """The (N+1) x N right-hand sides [e_1 .. e_N] of G a_n = e_n, read-only."""
    B = np.eye(n + 1, n, k=-1)
    B.flags.writeable = False
    return B


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Coefficient representation of a biorthogonal family on [0, T].

    ``coeffs_reflected[k, n-1]`` is a[n][k] above; the span coefficient of
    sigma_n on e^{lambda_k (t-T)} is e^{-lambda_n T} a[n][k] (see module
    docstring for why it is not stored directly). ``residual[n-1, m]`` is
    the reflected residual against the long-double Gram, m = 0..N, with
    m = 0 the zero-mean row.
    """

    T: float
    lambdas_full: np.ndarray     # 0, lambda_1..lambda_N
    coeffs_reflected: np.ndarray  # shape (N+1, N)
    gram_condition: float
    residual: np.ndarray         # shape (N, N+1)
    tol: float
    gram: np.ndarray = field(repr=False, compare=False)

    @property
    def lambdas(self) -> np.ndarray:
        """lambda_1..lambda_N, a view of ``lambdas_full``."""
        return self.lambdas_full[1:]

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)

    @property
    def residual_max(self) -> float:
        return float(np.max(np.abs(self.residual)))

    @property
    def zero_mean_values(self) -> np.ndarray:
        """int_0^T sigma_n dt = e^{-lambda_n T} R[n][0], exactly."""
        return np.exp(-self.lambdas * self.T) * self.residual[:, 0]

    def _column(self, n: int) -> np.ndarray:
        """Coefficients a[n][:] of tilde_sigma_n; ``DomainError`` unless n is an
        int, ``UsageError`` unless 1 <= n <= N."""
        _require_int("sigma index", n, positive=False)
        if not 1 <= n <= self.n_modes:
            raise UsageError(f"sigma index {n} outside 1..{self.n_modes}")
        return self.coeffs_reflected[:, n - 1]

    def sigma_tilde_norm(self, n: int) -> float:
        """||tilde_sigma_n||_{L2} = ||sigma_n|| e^{lambda_n T} = sqrt(a[n][n])."""
        a_nn = self._column(n)[n]
        if a_nn < 0.0:
            raise AccuracyError(f"computed ||sigma_{n}||^2 is negative: {a_nn}")
        return float(np.sqrt(a_nn))

    def collapse(self, d: np.ndarray) -> np.ndarray:
        """w of sum_n d_n sigma_n = sum_k w_k e^{lambda_k (t-T)}; a damping e^{-lambda_n T}
        that underflows leaves sigma_n a share below 1e-308 in every w_k."""
        with np.errstate(under="ignore"):
            return self.coeffs_reflected @ (d * np.exp(-self.lambdas * self.T))

    def closed_norms(self, weights: np.ndarray):
        """(||g||_L2, ||G||_L2, (A, B)) for g = sum_k w_k e^{lambda_k (t-T)} and
        G = A + B t + sum_{k>=1} (w_k / lambda_k) e^{lambda_k (t-T)}, G(0) = 0."""
        G0, T, lam = self.gram, self.T, self.lambdas
        ng2 = float(weights @ G0 @ weights)
        q = weights[1:] / lam
        a = -float(np.dot(q, np.exp(-lam * T)))
        b = float(weights[0])
        nG2 = a * a * T + a * b * T * T + b * b * T**3 / 3.0
        nG2 += 2.0 * float(np.dot(q, _affine_moments(a, b, T, lam, G0[0, 1:])))
        nG2 += float(q @ G0[1:, 1:] @ q)
        return np.sqrt(max(ng2, 0.0)), np.sqrt(max(nG2, 0.0)), (a, b)

    def eval_sigma_reflected(self, n: int, s) -> np.ndarray | float:
        """tilde_sigma_n(s) = sum_k a[n][k] e^{-lambda_k s}."""
        scalar = np.isscalar(s)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        E = np.exp(-self.lambdas_full[None, :] * s[:, None])
        vals = E @ self._column(n)
        return float(vals[0]) if scalar else vals

    def to_json_dict(self) -> dict:
        return {
            "T": self.T,
            "exponents": self.lambdas_full.tolist(),
            "coefficients_reflected": self.coeffs_reflected.T.tolist(),
            "log_scales": (-self.lambdas * self.T).tolist(),
            "residual_max": self.residual_max,
            "gram_condition": self.gram_condition,
            "tol": self.tol,
        }


def eval_sigma(fam: BiorthogonalFamily, n: int, t) -> np.ndarray | float:
    """sigma_n(t), every exponential evaluated in damped form e^{...} <= 1.

    Computed as sum_k a[n][k] exp(lambda_k (t - T) - lambda_n T); each
    exponent is <= 0 on [0, T], so no overflow can occur. True values
    below double range underflow to 0.
    """
    coeffs = fam._column(n)
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    scale = fam.lambdas[n - 1] * fam.T
    expo = fam.lambdas_full[None, :] * (t[:, None] - fam.T) - scale
    vals = np.exp(expo) @ coeffs
    return float(vals[0]) if scalar else vals


def build_biortho(lambdas, T: float, tol: float = DEFAULT_TOL) -> BiorthogonalFamily:
    """Construct the minimum-norm biorthogonal family for given exponents.

    Only the certificate admits a family: the residual max |G A - I| of the
    solved coefficients A against the closed-form Gram G in long double
    must stay within ``tol``, else ``AccuracyError``; its own rounding
    stays below 4.1e-8 (module docstring). The long-double Gram is formed
    once and serves both the solve's refinement and the certificate. A
    Gram condition above ``CONDITION_LIMIT`` rejects early, before any
    solve, with ``ConditioningError`` (an ``AccuracyError``); on 100
    alphas in [0, 0.99], T in {0.5, 1, 2, 4} and N = 8..16 every family
    it rejects (1,423) has a residual of 1.8e-6 or more.
    Neither error says which smaller N would pass. ``T`` and ``tol`` are
    taken through ``float`` and must be finite and positive (``DomainError``
    otherwise). Every call builds its own family.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) < 1:
        raise DomainError("need a nonempty 1-D array of exponents")
    v = lam.tolist()   # float comparisons: a NaN fails each of them
    if not (v[0] > 0.0 and v[-1] < math.inf and all(map(float.__lt__, v, v[1:]))):
        raise DomainError("exponents must be finite, positive and strictly increasing")
    horizon = _require_real("horizon", T)
    if not horizon > 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    if not horizon < math.inf:
        raise DomainError(f"horizon must be finite, got {T}")
    T, tol = horizon, _require_real("tol", tol, positive=True)
    n = len(lam)
    lams_full = np.concatenate((_ZERO, lam))
    G = exponential_gram(lams_full, T)
    sv = np.linalg.svd(G, compute_uv=False).tolist()   # np.linalg.cond's bits
    cond = sv[0] / sv[-1] if sv[-1] else np.inf
    if cond > CONDITION_LIMIT:
        raise ConditioningError(
            f"Gram condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e} for "
            f"N={n}, T={T}", condition=cond)
    B = _shift(n)
    G_ld = exponential_gram(lams_full.astype(_LD), T)
    A = _solve_spd(G, B, G_ld)
    resid = np.dot(G_ld, A.astype(_LD)).astype(float).T - B.T  # (N, N+1)
    worst = np.abs(resid).max()
    if worst > tol:
        raise AccuracyError(
            f"biorthogonality residual {worst:.3e} exceeds "
            f"tol {tol:.1e} after refinement (N={n}, T={T}, cond={cond:.2e})")
    for arr in (lams_full, A, resid, G):   # the certificate covers these bits
        arr.flags.writeable = False
    return BiorthogonalFamily(T=T, lambdas_full=lams_full, coeffs_reflected=A,
                              gram_condition=cond, residual=resid, tol=tol, gram=G)


@dataclass(frozen=True)
class BoundProfile:
    """Least-squares fit of log||sigma_n|| + lambda_n T against sqrt(lambda_n).

    ``fit_rel_rms`` is ||residual||_2 / ||data||_2, the relative RMS misfit
    of the per-n fit residuals in log scale.
    """

    K: float
    log_B: float
    fit_rel_rms: float

    @property
    def B(self) -> float:
        return float(np.exp(self.log_B))


def bound_profile(fam: BiorthogonalFamily) -> BoundProfile:
    """Fit the growth law ||sigma_n|| <= B_T e^{K sqrt(lambda_n)} e^{-lambda_n T}."""
    if fam.n_modes < 3:
        raise UsageError("bound profile needs at least 3 modes")
    y = np.array([np.log(fam.sigma_tilde_norm(m)) for m in range(1, fam.n_modes + 1)])
    x = np.sqrt(fam.lambdas)
    slope, intercept = np.polyfit(x, y, 1)
    res = y - (slope * x + intercept)
    rel = float(np.sqrt(np.mean(res**2)) / np.sqrt(np.mean(y**2)))
    return BoundProfile(K=float(slope), log_B=float(intercept), fit_rel_rms=rel)
