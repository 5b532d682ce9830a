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
Residuals are recomputed by independent composite Gauss-Legendre
quadrature (extended-precision accumulation), never from the closed-form
Gram identities used in assembly.

Norms satisfy ||sigma_n|| e^{lambda_n T} = ||tilde_sigma_n|| = sqrt(a[n][n]),
so the growth profile B_T e^{K sqrt(lambda_n)} of the family can be fitted
without ever forming an under/overflowing number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._fmt import write_json
from .errors import AccuracyError, ConditioningError, DomainError, UsageError
from .quadrature import panel_rule

CONDITION_LIMIT = 1e14
DEFAULT_TOL = 1e-6

_LD = np.longdouble


def exponential_gram(lambdas_full: np.ndarray, T: float,
                     other: np.ndarray | None = None) -> np.ndarray:
    """Gram of { e^{lambda_k (t-T)} } on [0, T], closed form; with ``other``
    = {mu_j}, the cross-Gram int_0^T e^{(lambda_k + mu_j)(t-T)} dt."""
    lam = np.asarray(lambdas_full, dtype=float)
    mu = lam if other is None else np.asarray(other, dtype=float)
    L = lam[:, None] + mu[None, :]
    out = np.empty_like(L)
    zero = L == 0.0
    out[zero] = T
    nz = ~zero
    out[nz] = (1.0 - np.exp(-L[nz] * T)) / L[nz]
    return out


def _largest_admissible_n(lambdas: np.ndarray, T: float) -> int:
    """Largest N whose (N+1)-point Gram stays under the condition gate."""
    best = 0
    for n in range(1, len(lambdas) + 1):
        lams_full = np.concatenate([[0.0], lambdas[:n]])
        if np.linalg.cond(exponential_gram(lams_full, T)) <= CONDITION_LIMIT:
            best = n
        else:
            break
    return best


def _solve_spd(G: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Equilibrated Cholesky solve with one extended-precision refinement
    step; SVD fallback (cutoff 1e-14 * sigma_max) if factorization fails."""
    d = 1.0 / np.sqrt(np.diag(G))
    Gs = G * d[:, None] * d[None, :]
    Bs = B * d[:, None]
    try:
        L = np.linalg.cholesky(Gs)
        Y = np.linalg.solve(L, Bs)
        X = np.linalg.solve(L.T, Y)
        # one refinement step, residual accumulated in 80-bit
        R = (Bs.astype(_LD) - Gs.astype(_LD) @ X.astype(_LD)).astype(float)
        X = X + np.linalg.solve(L.T, np.linalg.solve(L, R))
    except np.linalg.LinAlgError:
        U, s, Vt = np.linalg.svd(Gs)
        keep = s > 1e-14 * s[0]
        X = Vt[keep].T @ ((U[:, keep].T @ Bs) / s[keep, None])
    return X * d[:, None]


def _quadrature_gram(lambdas_full: np.ndarray, T: float,
                     panels: int = 32, nodes: int = 32) -> np.ndarray:
    """Independent quadrature of the exponential Gram, 80-bit accumulation.

    M[j][k] ~ int_0^T e^{-(lambda_j + lambda_k) s} ds, computed from point
    values so it shares nothing with the closed-form assembly.
    """
    s, w = panel_rule(0.0, T, panels, nodes)
    E = np.exp(-np.asarray(lambdas_full, dtype=_LD)[:, None] * s.astype(_LD))
    return (E * w.astype(_LD)) @ E.T


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
    lambdas: np.ndarray          # lambda_1..lambda_N
    lambdas_full: np.ndarray     # 0, lambda_1..lambda_N
    coeffs_reflected: np.ndarray  # shape (N+1, N)
    gram_condition: float
    residual: np.ndarray         # shape (N, N+1)
    tol: float
    gram: np.ndarray = field(repr=False, compare=False)

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

    def sigma_tilde_norm(self, n: int) -> float:
        """||tilde_sigma_n||_{L2} = ||sigma_n|| e^{lambda_n T} = sqrt(a[n][n])."""
        a_nn = self.coeffs_reflected[n, n - 1]
        if a_nn < 0.0:
            raise AccuracyError(f"computed ||sigma_{n}||^2 is negative: {a_nn}")
        return float(np.sqrt(a_nn))

    def log_sigma_norm(self, n: int) -> float:
        """log ||sigma_n||_{L2(0,T)} without underflow."""
        return float(np.log(self.sigma_tilde_norm(n)) - self.lambdas[n - 1] * self.T)

    def sigma_norm(self, n: int) -> float:
        """||sigma_n||; underflows to 0.0 when the true value is < ~1e-308."""
        return float(np.exp(self.log_sigma_norm(n)))

    def span_coefficients(self, n: int) -> np.ndarray:
        """c[n][k] with sigma_n(t) = sum_k c[n][k] e^{lambda_k (t-T)}.

        Subject to harmless underflow for lambda_n T beyond ~709.
        """
        return np.exp(-self.lambdas[n - 1] * self.T) * self.coeffs_reflected[:, n - 1]

    def eval_sigma_reflected(self, n: int, s) -> np.ndarray | float:
        """tilde_sigma_n(s) = sum_k a[n][k] e^{-lambda_k s}."""
        scalar = np.isscalar(s)
        s = np.atleast_1d(np.asarray(s, dtype=float))
        E = np.exp(-self.lambdas_full[None, :] * s[:, None])
        vals = E @ self.coeffs_reflected[:, n - 1]
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

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())


def eval_sigma(fam: BiorthogonalFamily, n: int, t) -> np.ndarray | float:
    """sigma_n(t), every exponential evaluated in damped form e^{...} <= 1.

    Computed as sum_k a[n][k] exp(lambda_k (t - T) - lambda_n T); each
    exponent is <= 0 on [0, T], so no overflow can occur. True values
    below double range underflow to 0.
    """
    if not 1 <= n <= fam.n_modes:
        raise UsageError(f"sigma index {n} outside 1..{fam.n_modes}")
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    scale = fam.lambdas[n - 1] * fam.T
    expo = fam.lambdas_full[None, :] * (t[:, None] - fam.T) - scale
    vals = np.exp(expo) @ fam.coeffs_reflected[:, n - 1]
    return float(vals[0]) if scalar else vals


def build_biortho(lambdas, T: float, tol: float = DEFAULT_TOL) -> BiorthogonalFamily:
    """Construct the minimum-norm biorthogonal family for given exponents.

    Raises ``ConditioningError`` when the Gram condition number exceeds
    1e14 (reporting the largest admissible N for this horizon) and
    ``AccuracyError`` when the independently recomputed residual exceeds
    ``tol`` even after iterative refinement.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or len(lam) < 1:
        raise DomainError("need a nonempty 1-D array of exponents")
    if lam[0] <= 0.0 or np.any(np.diff(lam) <= 0.0):
        raise DomainError("exponents must be positive and strictly increasing")
    if not T > 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    n = len(lam)
    lams_full = np.concatenate([[0.0], lam])
    G = exponential_gram(lams_full, T)
    cond = float(np.linalg.cond(G))
    if cond > CONDITION_LIMIT:
        n_ok = _largest_admissible_n(lam, T)
        raise ConditioningError(
            f"Gram condition {cond:.3e} exceeds {CONDITION_LIMIT:.0e} for "
            f"N={n}, T={T}; largest admissible N for this horizon is {n_ok}",
            condition=cond, largest_admissible_n=n_ok)
    B = np.zeros((n + 1, n))
    B[1:, :] = np.eye(n)
    A = _solve_spd(G, B)

    M = _quadrature_gram(lams_full, T)
    resid = (M @ A.astype(_LD)).astype(float).T - B.T  # (N, N+1)
    if np.max(np.abs(resid)) > tol:
        raise AccuracyError(
            f"biorthogonality residual {np.max(np.abs(resid)):.3e} exceeds "
            f"tol {tol:.1e} after refinement (N={n}, T={T}, cond={cond:.2e})")
    return BiorthogonalFamily(T=float(T), lambdas=lam, lambdas_full=lams_full,
                              coeffs_reflected=A, gram_condition=cond,
                              residual=resid, tol=tol, gram=G)


@dataclass(frozen=True)
class BoundProfile:
    """Least-squares fit of log||sigma_n|| + lambda_n T against sqrt(lambda_n).

    ``margins`` are the per-n fit residuals in log scale;
    ``fit_rel_rms`` is ||residual||_2 / ||data||_2, the relative RMS misfit.
    """

    K: float
    log_B: float
    margins: np.ndarray
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
    return BoundProfile(K=float(slope), log_B=float(intercept),
                        margins=res, fit_rel_rms=rel)
