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
Residuals are recomputed by independent quadrature on the 32 x 32 Gauss
rule (factored, long double throughout; see ``_quadrature_gram``), never
from the closed-form Gram identities used in assembly. The rule is reused
on a prefix or an extension of the last exponents at the same T, bit for
bit: each of its elements depends only on T and its own exponents.

Norms satisfy ||sigma_n|| e^{lambda_n T} = ||tilde_sigma_n|| = sqrt(a[n][n]),
so the growth profile B_T e^{K sqrt(lambda_n)} of the family can be fitted
without ever forming an under/overflowing number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, ConditioningError, DomainError, UsageError, _require_int
from .quadrature import gauss_legendre

CONDITION_LIMIT = 1e14
DEFAULT_TOL = 1e-6

_LD = np.longdouble
_ZERO = np.zeros(1)   # the adjoined exponent lambda_0

# 32-point Gauss-Legendre rule on [-1, 1]; the certificate uses it on 32 panels
_XG, _WG = (v.astype(_LD) for v in gauss_legendre(32))


def exponential_gram(lambdas_full: np.ndarray, T: float,
                     other: np.ndarray | None = None) -> np.ndarray:
    """Gram of { e^{lambda_k (t-T)} } on [0, T], closed form; with ``other``
    = {mu_j}, the cross-Gram int_0^T e^{(lambda_k + mu_j)(t-T)} dt.

    Both exponent sets are taken increasing, so the last entry bounds the
    exponents: once it times T leaves double range, e^{-(lambda + mu) T}
    is 0 and the overflow on the way there is not reported.
    """
    lam = np.asarray(lambdas_full, dtype=float)
    mu = lam if other is None else np.asarray(other, dtype=float)
    L = lam[:, None] + mu[None, :]
    if L.size and float(L[-1, -1]) * float(T) == math.inf:
        with np.errstate(over="ignore"):
            E = np.exp(-L * T)
    else:   # no errstate context on the common path: the mode ladder calls this often
        E = np.exp(-L * T)
    return np.divide(1.0 - E, L, out=np.full_like(L, T), where=L != 0.0)


def _solve_spd(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Equilibrated Cholesky solve with one extended-precision refinement
    step; ``AccuracyError`` if the Gram is not numerically positive definite."""
    d = 1.0 / np.sqrt(G.diagonal())
    rows = d[:, None]
    Gs = G * rows * d
    Bs = B * rows
    try:
        L = np.linalg.cholesky(Gs)
    except np.linalg.LinAlgError:
        raise AccuracyError("Cholesky failed: Gram not positive definite") from None
    X = np.linalg.solve(L.T, np.linalg.solve(L, Bs))
    # one refinement step, residual accumulated in 80-bit; np.dot sums in
    # matmul's order for long double, without its wrapper's cost
    R = (Bs.astype(_LD) - np.dot(Gs.astype(_LD), X.astype(_LD))).astype(float)
    X = X + np.linalg.solve(L.T, np.linalg.solve(L, R))
    return X * rows


@lru_cache(maxsize=32)
def _shift(n: int) -> np.ndarray:
    """The (N+1) x N right-hand sides [e_1 .. e_N] of G a_n = e_n, read-only."""
    B = np.eye(n + 1, n, k=-1)
    B.flags.writeable = False
    return B


@lru_cache(maxsize=8)
def _rule_nodes(T: float):
    """Nodes [i h | (1 + x_q) h/2] and weights w_q h/2 of the 32 x 32 rule,
    h = T/32, in long double and read-only; keyed on float(T)."""
    h = _LD(T) / 32
    nodes = np.concatenate([h * np.arange(32, dtype=_LD), h / 2 * (_XG + 1)])
    weights = h / 2 * _WG
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


#: (T, exponents, [P | Q], Q W, M) of the rule _quadrature_gram evaluated
#: last, read-only arrays; replaced, never mutated
_last_rule = (np.nan, np.zeros(0), np.zeros((0, 64), dtype=_LD),
              np.zeros((0, 32), dtype=_LD), np.zeros((0, 0), dtype=_LD))
#: ((exponent bytes, repr(T), repr(tol)), family) of the last certified build
_last_family = ((), None)


def _quadrature_gram(lambdas_full: np.ndarray, T: float) -> np.ndarray:
    """M[j][k] ~ int_0^T e^{-(lambda_j + lambda_k) s} ds on the 32 x 32 rule
    from long-double point values, sharing nothing with the closed form.
    A node is s = i h + (1 + x_q) h/2 with h = T/32, so the rule's sum is
    (P P^T) o (Q W Q^T) with P[k, i] = e^{-lambda_k i h}, W = diag(w_q h/2),
    Q[k, q] = e^{-lambda_k (1 + x_q) h/2}: 64 exponentials a row, not 1024.

    The last call's rule is kept: at the same T a prefix of its exponents
    slices M, and an extension evaluates only new rows and M's new borders
    (the upper one as such: M is not bitwise symmetric). numpy's long-double
    exp and np.dot give each element the same bits whatever the array's shape.
    """
    global _last_rule
    lam = np.array(lambdas_full, dtype=float)
    kT, klam, kPQ, kQw, kM = _last_rule   # one read: another thread may replace it
    p = min(len(lam), len(klam))
    if not (kT == T and p and lam[p - 1] == klam[p - 1]
            and (lam[:p] == klam[:p]).all()):
        p = 0
    if p == len(lam):
        return kM[:p, :p]
    nodes, weights = _rule_nodes(float(T))
    PQ = np.concatenate([kPQ[:p], np.exp(-lam[p:, None].astype(_LD) * nodes)])
    P, Q = PQ[:, :32], PQ[:, 32:]
    Qw = np.concatenate([kQw[:p], Q[p:] * weights])
    M = np.dot(P[p:], P.T) * np.dot(Qw[p:], Q.T)
    if p:   # the kept block and the new border above the diagonal
        top = np.dot(P[:p], P[p:].T) * np.dot(Qw[:p], Q[p:].T)
        M = np.concatenate([np.concatenate([kM[:p, :p], top], axis=1), M])
    for arr in (lam, PQ, Qw, M):
        arr.flags.writeable = False
    _last_rule = (T, lam, PQ, Qw, M)
    return M


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Coefficient representation of a biorthogonal family on [0, T].

    ``coeffs_reflected[k, n-1]`` is a[n][k] above; the span coefficient of
    sigma_n on e^{lambda_k (t-T)} is e^{-lambda_n T} a[n][k] (see module
    docstring for why it is not stored directly). ``residual[n-1, m]`` is
    the independently quadratured reflected residual, m = 0..N, with m = 0
    the zero-mean row.
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

    Only the certificate admits a family: the residual recomputed by
    independent quadrature must stay within ``tol``, else
    ``AccuracyError``. A Gram condition above ``CONDITION_LIMIT`` rejects
    early, before any solve, with ``ConditioningError`` (an
    ``AccuracyError``); on 100 alphas in [0, 0.99], T in {0.5, 1, 2} and
    N = 8..16 every family it rejects has a residual above ``tol``.
    Neither error says which smaller N would pass. ``T`` and ``tol`` must
    be finite and positive (``DomainError`` otherwise). The last certified
    family is kept: a call with its exponent bits, ``T`` and ``tol`` returns it.
    """
    global _last_family
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) < 1:
        raise DomainError("need a nonempty 1-D array of exponents")
    v = lam.tolist()   # float comparisons: a NaN fails each of them
    if not (v[0] > 0.0 and v[-1] < math.inf and all(map(float.__lt__, v, v[1:]))):
        raise DomainError("exponents must be finite, positive and strictly increasing")
    if not T > 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    if not T < math.inf:
        raise DomainError(f"horizon must be finite, got {T}")
    if not 0.0 < tol < np.inf:
        raise DomainError(f"tol must be finite and positive, got {tol}")
    key = (lam.tobytes(), repr(T), repr(tol))
    kept = _last_family   # one read: another thread may replace it
    if kept[0] == key:
        return kept[1]
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
    A = _solve_spd(G, B)

    M = _quadrature_gram(lams_full, T)
    resid = np.dot(M, A.astype(_LD)).astype(float).T - B.T  # (N, N+1)
    worst = np.abs(resid).max()
    if worst > tol:
        raise AccuracyError(
            f"biorthogonality residual {worst:.3e} exceeds "
            f"tol {tol:.1e} after refinement (N={n}, T={T}, cond={cond:.2e})")
    for arr in (lams_full, A, resid, G):   # the certificate covers these bits
        arr.flags.writeable = False
    fam = BiorthogonalFamily(T=float(T), lambdas_full=lams_full,
                             coeffs_reflected=A, gram_condition=cond,
                             residual=resid, tol=tol, gram=G)
    _last_family = (key, fam)
    return fam


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
