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

from dataclasses import dataclass, replace

import numpy as np

from ._fmt import write_csv, write_json
from .biortho import BiorthogonalFamily, _affine_moments, exponential_gram
from .errors import (AccuracyError, DomainError, TargetStiffnessError, UsageError,
                     _require_int, _require_real)
from .quadrature import graded_rule
from .spectrum import MomentVector, SpectralBasis, _exponents, _require_alpha, make_basis

_OVERFLOW_LOG = np.log(1e300)
_MAX_LOG = np.log(np.finfo(float).max)


@dataclass(frozen=True)
class ControlSignal:
    """Closed-form control: derivative coefficients and exponential sums.

    ``weights[k]`` multiplies e^{lambda_k (t-T)} in g; ``affine`` holds
    (A, B) of the accumulated representation of G. Norms are closed-form;
    ``norm_check_rel`` is the relative deviation of the norms by
    quadrature on ``quadrature.graded_rule``.
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
        vals = self.G_from_exponentials(t, self.exponentials(t))
        return float(vals[0]) if scalar else vals

    def exponentials(self, t: np.ndarray) -> np.ndarray:
        """E[j, k] = e^{lambda_k (t_j - T)} over ``lambdas_full``, at most 1 on [0, T]."""
        return np.exp(np.outer(t - self.T, self.lambdas_full))

    def G_from_exponentials(self, t: np.ndarray, E: np.ndarray) -> np.ndarray:
        """G(t) = A + B t + sum_{k>=1} (w_k/lambda_k) E[:, k], E = ``exponentials(t)``."""
        a, b = self.affine
        return a + b * t + E[:, 1:] @ (self.weights[1:] / self.lambdas_full[1:])

    def moments(self, lam: np.ndarray) -> np.ndarray:
        """int_0^T G(t) e^{lambda (t-T)} dt, in closed form, for each of the
        increasing positive exponents ``lam``."""
        conv = exponential_gram(lam, self.T, self.lambdas_full)
        q = self.weights[1:] / self.lambdas_full[1:]
        tail = np.array([np.dot(q, row) for row in conv[:, 1:]])
        return _affine_moments(*self.affine, self.T, lam, conv[:, 0]) + tail

    def duhamel_sums(self, E: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Duhamel sums S[j, n] = sum_k w_k E[j, k] / (lam_n + lambda_k) of ``simulate``."""
        return E @ (self.weights[:, None] / (self.lambdas_full[:, None] + lam))

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
        """Sampled (t, g, G) table for plotting at a nonnegative int of ``samples``."""
        _require_int("samples", samples, positive=False)
        if samples < 0:
            raise DomainError(f"samples must be nonnegative, got {samples}")
        t = np.linspace(0.0, self.T, samples)
        E = self.exponentials(t)
        write_csv(path, ("t", "g", "G"), np.column_stack(
            (t, E @ self.weights, self.G_from_exponentials(t, E))).tolist())


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

    grown = _exp_growth_terms(muT.coefficients, lam, fam.T)
    d = lam / basis.neumann_traces * (mu0.coefficients - grown)
    w = fam.collapse(d)
    ng, nG, affine = fam.closed_norms(w)
    norms = {"g_l2": ng, "G_l2": nG, "G_h1": float(np.sqrt(ng * ng + nG * nG))}
    signal = ControlSignal(T=fam.T, alpha=basis.alpha, d=d, lambdas_full=fam.lambdas_full,
                           weights=w, affine=affine, norms=norms, norm_check_rel=np.nan)
    check = _norm_quadrature_check(signal)
    if check > 1e-6:
        raise AccuracyError(
            f"closed-form norms disagree with quadrature by {check:.3e} "
            f"relative (> 1e-6)")
    return replace(signal, norm_check_rel=check)


def _norm_quadrature_check(signal: ControlSignal) -> float:
    """Relative deviation of the signal's quadrature norms from its closed forms."""
    norms = signal.norms
    scale = max(norms["g_l2"], norms["G_l2"])
    if scale == 0.0:
        return 0.0
    t, w = graded_rule(signal.T)
    E = signal.exponentials(t)
    ng = np.sqrt(np.dot(w, (E @ signal.weights)**2))
    nG = np.sqrt(np.dot(w, signal.G_from_exponentials(t, E)**2))
    return float(max(abs(ng - norms["g_l2"]), abs(nG - norms["G_l2"])) / scale)


def moment_residual(basis: SpectralBasis, signal: ControlSignal,
                    mu0: MomentVector, muT: MomentVector,
                    n_extra: int = 0) -> np.ndarray:
    """Damped moment residuals for modes 1..N+n_extra.

    Entry n is

        r_n int_0^T G(t) e^{lambda_n (t-T)} dt + mu0_n e^{-lambda_n T} - muT_n,

    i.e. the moment equation multiplied through by e^{-lambda_n T}: the
    scale on which a defect actually perturbs the terminal state. Modes
    beyond N (moment entries taken as 0) quantify truncation leakage. A
    negative or non-int ``n_extra`` or unequal mode counts raise ``UsageError``.
    """
    _require_int("n_extra", n_extra, positive=False, error=UsageError)
    if n_extra < 0:
        raise UsageError("n_extra must be nonnegative")
    if not basis.n_modes == signal.n_modes == len(mu0) == len(muT):
        raise UsageError("basis, control, mu0 and muT must share the mode count")
    ext = basis if n_extra == 0 else make_basis(basis.alpha, signal.n_modes + n_extra)
    lam = ext.eigenvalues
    mu0_ext, muT_ext = (np.append(v.coefficients, np.zeros(n_extra)) for v in (mu0, muT))
    return (ext.neumann_traces * signal.moments(lam) + mu0_ext * np.exp(-lam * signal.T)
            - muT_ext)


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
    (``UsageError`` otherwise) at an alpha in [0, 1) (``DomainError``
    otherwise), each taken through ``float`` (``DomainError`` without one).

    ``TargetStiffnessError`` names the first mode whose term or partial
    sum lies beyond double range.
    """
    K = _require_real("K", K)
    if not 0.0 < K < np.inf:
        raise UsageError(f"K must be finite and positive, got {K}")
    _, kappa = _exponents(_require_alpha(alpha))
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
