"""Boundary-control synthesis by the moment method.

The Dirichlet trace G at the degeneracy point must satisfy the moment
equations

    r_n int_0^T G(t) e^{lambda_n t} dt = -mu0_n + muT_n e^{lambda_n T},

so its derivative g = G' is assembled on the biorthogonal family:

    g(t)  = sum_m d_m sigma_m(t),
    d_m   = (lambda_m / r_m) (mu0_m - muT_m e^{lambda_m T}),
    G(t)  = int_0^t g(s) ds.

G(0) = 0 holds by construction and G(T) vanishes up to solver tolerance
because every sigma_m has zero mean. Since each sigma_m is an exponential
sum over exponents {0, lambda_1..lambda_N}, both g and G collapse to the
closed forms

    g(t) = sum_k w_k e^{lambda_k (t-T)},
    G(t) = A + B t + sum_{k>=1} (w_k / lambda_k) e^{lambda_k (t-T)},

with A fixed by G(0) = 0 and B = w_0, and all norms reduce to exponential
integrals evaluated exactly. The H1 cost convention used throughout the
package is ||G||_H1^2 = ||G||_L2^2 + ||G'||_L2^2.

Products muT_m e^{lambda_m T} are formed in log space and rejected (with
the offending mode named) once they leave double range; run a
reachability score on the target before synthesizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv, write_json
from .biortho import BiorthogonalFamily, exponential_gram
from .errors import (AccuracyError, DomainError, TargetStiffnessError, UsageError,
                     _require_int)
from .quadrature import panel_rule
from .spectrum import MomentVector, SpectralBasis, _exponents, make_basis

_OVERFLOW_LOG = np.log(1e300)
_MAX_LOG = np.log(np.finfo(float).max)


@dataclass(frozen=True)
class ControlSignal:
    """Closed-form control: derivative coefficients and exponential sums.

    ``weights[k]`` multiplies e^{lambda_k (t-T)} in g; ``affine`` holds
    (A, B) of the accumulated representation of G. Norms are closed-form;
    ``norm_check_rel`` is the relative deviation of an independent
    quadrature evaluation of the norms.
    """

    T: float
    alpha: float
    d: np.ndarray              # per-mode derivative coefficients, m = 1..N
    lambdas_full: np.ndarray   # 0, lambda_1..lambda_N
    weights: np.ndarray        # coefficients of g over e^{lambda_k (t-T)}
    affine: tuple[float, float]
    norms: dict
    norm_check_rel: float

    @property
    def n_modes(self) -> int:
        return len(self.d)

    def eval_G(self, t) -> np.ndarray | float:
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        vals = self.G_from_exponentials(t, np.exp(np.outer(t - self.T, self.lambdas_full)))
        return float(vals[0]) if scalar else vals

    def G_from_exponentials(self, t: np.ndarray, E: np.ndarray) -> np.ndarray:
        """G at t from E[j, k] = e^{lambda_k (t_j - T)} over ``lambdas_full``."""
        return _accumulated(t, E, self.weights, self.lambdas_full, self.affine)

    @property
    def terminal_value(self) -> float:
        """G(T); below 1e-8 for every synthesized control."""
        return float(self.eval_G(self.T))

    def to_json_dict(self) -> dict:
        return {
            "T": self.T,
            "alpha": self.alpha,
            "d": self.d.tolist(),
            "exponents": self.lambdas_full.tolist(),
            "weights": self.weights.tolist(),
            "norms": dict(self.norms),
            "norm_check_rel": self.norm_check_rel,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def save_csv(self, path, samples: int = 257) -> None:
        """Sampled (t, g, G) table for plotting."""
        _require_int("samples", samples, positive=False)
        t = np.linspace(0.0, self.T, samples)
        E = np.exp(np.outer(t - self.T, self.lambdas_full))
        write_csv(path, ("t", "g", "G"), np.column_stack(
            (t, E @ self.weights, self.G_from_exponentials(t, E))).tolist())


def _accumulated(t, E, weights, lambdas_full, affine) -> np.ndarray:
    """G(t) = A + B t + sum_{k>=1} (w_k / lambda_k) e^{lambda_k (t-T)} from
    E[j, k] = e^{lambda_k (t_j - T)}."""
    a, b = affine
    return a + b * t + E[:, 1:] @ (weights[1:] / lambdas_full[1:])


def _exp_growth_terms(muT: np.ndarray, lambdas: np.ndarray, T: float) -> np.ndarray:
    """muT_m e^{lambda_m T} in log space, rejecting overflow by mode."""
    out = np.zeros_like(muT)
    for i, (mu, lam) in enumerate(zip(muT, lambdas)):
        if mu == 0.0:
            continue
        lg = np.log(abs(mu)) + lam * T
        if lg > _OVERFLOW_LOG:
            raise TargetStiffnessError(
                f"target coefficient {i + 1} requires muT*e^(lambda*T) ~ "
                f"e^{lg:.1f}, beyond double range; the target is too stiff "
                f"for this horizon (score reachability before synthesis)",
                mode=i + 1)
        out[i] = np.sign(mu) * np.exp(lg)
    return out


def _affine_moments(a, b, T, lam, i1):
    """int_0^T (a + b t) e^{lambda (t-T)} dt from i1 = int_0^T e^{lambda (t-T)} dt,
    with int_0^T t e^{lambda (t-T)} dt = T/lambda - i1/lambda."""
    return a * i1 + b * (T / lam - i1 / lam)


def _closed_norms(weights: np.ndarray, fam: BiorthogonalFamily):
    """(||g||_L2, ||G||_L2, (A, B)) from exponential integrals on ``fam.gram``."""
    G0, T = fam.gram, fam.T
    ng2 = float(weights @ G0 @ weights)
    lam = fam.lambdas_full[1:]
    q = weights[1:] / lam
    a = -float(np.dot(q, np.exp(-lam * T)))
    b = float(weights[0])
    nG2 = a * a * T + a * b * T * T + b * b * T**3 / 3.0
    nG2 += 2.0 * float(np.dot(q, _affine_moments(a, b, T, lam, G0[0, 1:])))
    nG2 += float(q @ G0[1:, 1:] @ q)
    return np.sqrt(max(ng2, 0.0)), np.sqrt(max(nG2, 0.0)), (a, b)


def synthesize(basis: SpectralBasis, fam: BiorthogonalFamily,
               mu0: MomentVector, muT: MomentVector) -> ControlSignal:
    """Build the moment-method control driving mu0 to muT over [0, T].

    All inputs must share the mode count and exponent set. Raises
    ``TargetStiffnessError`` when a target coefficient amplified by
    e^{lambda T} overflows, and ``AccuracyError`` if the closed-form norms
    disagree with quadrature beyond 1e-6 relative.
    """
    n = basis.n_modes
    if fam.n_modes != n or len(mu0) != n or len(muT) != n:
        raise UsageError(
            f"size mismatch: basis N={n}, family N={fam.n_modes}, "
            f"mu0 N={len(mu0)}, muT N={len(muT)}")
    if mu0.alpha != basis.alpha or muT.alpha != basis.alpha:
        raise UsageError("moment vectors were projected on a different alpha")
    lam = basis.eigenvalues
    if not (np.abs(lam - fam.lambdas) <= 1e-12 * np.abs(fam.lambdas)).all():
        raise UsageError("family exponents do not match basis eigenvalues")

    r = basis.neumann_traces
    T = fam.T
    grown = _exp_growth_terms(muT.coefficients, lam, T)
    d = lam / r * (mu0.coefficients - grown)
    # collapse onto the exponential span; e^{-lambda_m T} may underflow,
    # in which case mode m truly contributes < 1e-308 to every weight
    with np.errstate(under="ignore"):
        w = fam.coeffs_reflected @ (d * np.exp(-lam * T))

    ng, nG, affine = _closed_norms(w, fam)
    norms = {"g_l2": ng, "G_l2": nG,
             "G_h1": float(np.sqrt(ng * ng + nG * nG))}
    check = _norm_quadrature_check(w, fam.lambdas_full, affine, T, norms)
    if check > 1e-6:
        raise AccuracyError(
            f"closed-form norms disagree with quadrature by {check:.3e} "
            f"relative (> 1e-6)")
    return ControlSignal(T=T, alpha=basis.alpha, d=d,
                         lambdas_full=fam.lambdas_full, weights=w,
                         affine=affine, norms=norms, norm_check_rel=check)


def _norm_quadrature_check(weights, lambdas_full, affine, T, norms) -> float:
    """Relative deviation of quadrature norms from the closed forms."""
    scale = max(norms["g_l2"], norms["G_l2"])
    if scale == 0.0:
        return 0.0
    t, w = panel_rule(0.0, T, 8, 64)
    E = np.exp(lambdas_full[None, :] * (t[:, None] - T))
    g = E @ weights
    G = _accumulated(t, E, weights, lambdas_full, affine)
    ng = np.sqrt(np.dot(w, g**2))
    nG = np.sqrt(np.dot(w, G**2))
    return float(max(abs(ng - norms["g_l2"]), abs(nG - norms["G_l2"])) / scale)


def moment_residual(basis: SpectralBasis, signal: ControlSignal,
                    mu0: MomentVector, muT: MomentVector,
                    n_extra: int = 0) -> np.ndarray:
    """Damped moment residuals for modes 1..N+n_extra.

    Entry n is

        r_n int_0^T G(t) e^{lambda_n (t-T)} dt + mu0_n e^{-lambda_n T} - muT_n,

    i.e. the moment equation multiplied through by e^{-lambda_n T}: the
    scale on which a defect actually perturbs the terminal state. Modes
    beyond N (moment entries taken as 0) quantify truncation leakage.
    ``n_extra`` must be a nonnegative int (``UsageError`` otherwise).
    """
    _require_int("n_extra", n_extra, positive=False, error=UsageError)
    if n_extra < 0:
        raise UsageError("n_extra must be nonnegative")
    n = signal.n_modes
    ext = basis if n_extra == 0 else make_basis(basis.alpha, n + n_extra)
    lam_ext = ext.eigenvalues
    r_ext = ext.neumann_traces
    mu0_ext = np.zeros(n + n_extra)
    mu0_ext[:n] = mu0.coefficients
    muT_ext = np.zeros(n + n_extra)
    muT_ext[:n] = muT.coefficients

    a, b = signal.affine
    q = signal.weights[1:] / signal.lambdas_full[1:]
    # row n: int_0^T e^{(lambda_n + lambda_k)(t-T)} dt over k = 0..N
    conv = exponential_gram(lam_ext, signal.T, signal.lambdas_full)
    out = np.empty(n + n_extra)
    for i, ln in enumerate(lam_ext):
        integral = _affine_moments(a, b, signal.T, ln, conv[i, 0]) + np.dot(q, conv[i, 1:])
        out[i] = r_ext[i] * integral + mu0_ext[i] * np.exp(-ln * signal.T) - muT_ext[i]
    return out


@dataclass(frozen=True)
class ReachabilityScore:
    """Partial sums of sum_m m^{3/2} |muT_m| e^{K kappa pi m} and a verdict.

    Verdicts: "finitely-supported" (trailing zeros), "geometric-decay-pass"
    (ratio test < 1 on the available tail), "fail". Only the supplied
    terms are classified; no claim is made about the unseen tail.
    """

    partial_sums: np.ndarray
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def reachability_score(muT: MomentVector, alpha: float, K: float) -> ReachabilityScore:
    """Score the target-decay condition with a finite growth constant K > 0
    at an alpha in [0, 1) (``DomainError`` otherwise).

    ``TargetStiffnessError`` names the first mode whose term or partial
    sum lies beyond double range.
    """
    if not 0.0 < K < np.inf:
        raise UsageError(f"K must be finite and positive, got {K}")
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    _, kappa = _exponents(alpha)
    mu = np.abs(muT.coefficients)
    m = np.arange(1, len(mu) + 1, dtype=float)
    growth = K * kappa * np.pi * m
    with np.errstate(over="ignore", invalid="ignore"):
        terms = m**1.5 * mu * np.exp(growth)
        terms[mu == 0.0] = 0.0   # a zero coefficient adds exactly 0, never 0 * inf
        for i in np.flatnonzero(np.isinf(terms)):
            # e^growth or the product overflowed: redo the term in log space
            lg = 1.5 * np.log(m[i]) + np.log(mu[i]) + growth[i]
            if not lg < _MAX_LOG:
                raise TargetStiffnessError(
                    f"reachability term {i + 1} ~ e^{lg:.1f} at K = {K:.4g} is "
                    f"beyond double range", mode=i + 1)
            terms[i] = np.exp(lg)
        sums = np.cumsum(terms)
    if np.isinf(sums).any():
        i = int(np.argmax(np.isinf(sums)))
        raise TargetStiffnessError(
            f"reachability partial sum {i + 1} at K = {K:.4g} is beyond double "
            f"range", mode=i + 1)
    nz = np.nonzero(mu)[0]
    if len(nz) == 0 or nz[-1] < len(mu) - 1:
        verdict = "finitely-supported"
    else:
        tail = terms[max(len(terms) // 2 - 1, 0):]
        if np.any(tail == 0.0):
            # zeros inside the examined tail leave the decay rate
            # unestablishable from the supplied data
            verdict = "fail"
        else:
            with np.errstate(over="ignore"):   # an infinite ratio fails
                ratios = tail[1:] / tail[:-1]
            verdict = "geometric-decay-pass" if np.all(ratios < 1.0) else "fail"
    return ReachabilityScore(partial_sums=sums, verdict=verdict)
