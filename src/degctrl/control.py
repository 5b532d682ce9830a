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
from .errors import AccuracyError, TargetStiffnessError, UsageError
from .quadrature import panel_rule
from .spectrum import MomentVector, SpectralBasis, make_basis

_OVERFLOW_LOG = np.log(1e300)


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
    basis_id: str

    @property
    def n_modes(self) -> int:
        return len(self.d)

    def eval_g(self, t) -> np.ndarray | float:
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        E = np.exp(self.lambdas_full[None, :] * (t[:, None] - self.T))
        vals = E @ self.weights
        return float(vals[0]) if scalar else vals

    def eval_G(self, t) -> np.ndarray | float:
        scalar = np.isscalar(t)
        t = np.atleast_1d(np.asarray(t, dtype=float))
        a, b = self.affine
        lam = self.lambdas_full[1:]
        q = self.weights[1:] / lam
        E = np.exp(lam[None, :] * (t[:, None] - self.T))
        vals = a + b * t + E @ q
        return float(vals[0]) if scalar else vals

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
        t = np.linspace(0.0, self.T, samples)
        write_csv(path, ("t", "g", "G"), zip(t, self.eval_g(t), self.eval_G(t)))


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


def _closed_norms(weights: np.ndarray, lambdas_full: np.ndarray, T: float):
    """(||g||_L2, ||G||_L2, (A, B)) from exponential integrals."""
    G0 = exponential_gram(lambdas_full, T)
    ng2 = float(weights @ G0 @ weights)
    lam = lambdas_full[1:]
    q = weights[1:] / lam
    a = -float(np.dot(q, np.exp(-lam * T)))
    b = float(weights[0])
    i1 = G0[0, 1:]   # int_0^T e^{lambda_k (t-T)} dt
    it = T / lam - i1 / lam
    nG2 = a * a * T + a * b * T * T + b * b * T**3 / 3.0
    nG2 += 2.0 * float(np.dot(q, a * i1 + b * it))
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
    if not np.allclose(basis.eigenvalues, fam.lambdas, rtol=1e-12, atol=0.0):
        raise UsageError("family exponents do not match basis eigenvalues")

    lam = basis.eigenvalues
    r = basis.neumann_traces
    T = fam.T
    grown = _exp_growth_terms(muT.coefficients, lam, T)
    d = lam / r * (mu0.coefficients - grown)
    # collapse onto the exponential span; e^{-lambda_m T} may underflow,
    # in which case mode m truly contributes < 1e-308 to every weight
    with np.errstate(under="ignore"):
        w = fam.coeffs_reflected @ (d * np.exp(-lam * T))

    ng, nG, affine = _closed_norms(w, fam.lambdas_full, T)
    norms = {"g_l2": ng, "G_l2": nG,
             "G_h1": float(np.sqrt(ng * ng + nG * nG))}
    check = _norm_quadrature_check(w, fam.lambdas_full, affine, T, norms)
    if check > 1e-6:
        raise AccuracyError(
            f"closed-form norms disagree with quadrature by {check:.3e} "
            f"relative (> 1e-6)")
    return ControlSignal(T=T, alpha=basis.alpha, d=d,
                         lambdas_full=fam.lambdas_full, weights=w,
                         affine=affine, norms=norms, norm_check_rel=check,
                         basis_id=basis.basis_id)


def _norm_quadrature_check(weights, lambdas_full, affine, T, norms) -> float:
    """Relative deviation of quadrature norms from the closed forms."""
    scale = max(norms["g_l2"], norms["G_l2"])
    if scale == 0.0:
        return 0.0
    t, w = panel_rule(0.0, T, 8, 64)
    E = np.exp(lambdas_full[None, :] * (t[:, None] - T))
    g = E @ weights
    a, b = affine
    G = a + b * t + E[:, 1:] @ (weights[1:] / lambdas_full[1:])
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
    """
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
        i1 = conv[i, 0]
        it = signal.T / ln - i1 / ln
        integral = a * i1 + b * it + np.dot(q, conv[i, 1:])
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
    terms: np.ndarray
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"


def reachability_score(muT: MomentVector, alpha: float, K: float) -> ReachabilityScore:
    """Score the target-decay condition with growth constant K > 0."""
    if not K > 0.0:
        raise UsageError(f"K must be positive, got {K}")
    kappa = (2.0 - alpha) / 2.0
    mu = np.abs(muT.coefficients)
    m = np.arange(1, len(mu) + 1, dtype=float)
    terms = m**1.5 * mu * np.exp(K * kappa * np.pi * m)
    sums = np.cumsum(terms)
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
            ratios = tail[1:] / tail[:-1]
            verdict = "geometric-decay-pass" if np.all(ratios < 1.0) else "fail"
    return ReachabilityScore(partial_sums=sums, terms=terms, verdict=verdict)
