"""Sturm-Liouville spectral data for y |-> -(x^a y')' on (0,1), Dirichlet.

For a degeneracy exponent a in [0, 1) set

    nu    = (1-a)/(2-a)   in (0, 1/2],
    kappa = (2-a)/2,

and let j_{nu,n} be the positive zeros of J_nu. The eigenpairs are

    lambda_n = kappa^2 j_{nu,n}^2,
    Phi_n(x) = C_n x^{(1-a)/2} J_nu(j_{nu,n} x^kappa),
    C_n      = sqrt(2 kappa) / |J'_nu(j_{nu,n})|,

with ||Phi_n||_{L2(0,1)} = 1. At a = 0 this reduces to the classical
lambda_n = (n pi)^2, Phi_n = sqrt(2) sin(n pi x). Each mode also carries its
generalized Neumann trace at the degeneracy point,

    r_n = lim_{x->0} x^a Phi_n'(x)
        = (1-a) sqrt(2 kappa) / (2^nu Gamma(nu+1)) * j^nu / |J'_nu(j)| > 0,

which is the coupling constant between a Dirichlet boundary control at x = 0
and mode n, and satisfies r_n ~ rho * j^{nu + 1/2} for large n.

All integrals against eigenfunctions substitute y = x^kappa, which turns
Phi_m Phi_n dx into the entire integrand y J_nu(j_m y) J_nu(j_n y) dy and
removes the x^{(1-a)/2} endpoint behaviour.

The square-root eigenvalue ladder is uniformly separated over a in [0, 1):
sqrt(lambda_1) >= 3 pi / 8 and consecutive gaps are >= 7 pi / 16. Both
facts are rechecked numerically on every constructed basis and derived
afresh by ``SpectralBasis.gap``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import bessel
from .errors import DomainError, QuadratureError, UsageError, _require_int, _require_real
from .quadrature import panel_rule

GAP_FIRST = 3.0 * np.pi / 8.0
GAP_CONSECUTIVE = 7.0 * np.pi / 16.0
_GAP_SLACK = 1e-12

DEFAULT_PANELS = 8
DEFAULT_NODES = 64


@dataclass(frozen=True)
class Mode:
    """One eigenmode: zero, eigenvalue, normalization, Neumann trace."""

    index: int
    zero: float
    eigenvalue: float
    norm_const: float
    neumann_trace: float


#: one panel count's rule in y = x^kappa, read-only: nodes y, weights w,
#: x = y^{1/kappa}, common = w y^{1/(2-a)} / kappa, and table[n-1] = J_nu(j_n y)
_Rule = namedtuple("_Rule", "y w x common table")


@dataclass(frozen=True)
class SpectralBasis:
    """First N Dirichlet eigenmodes of -(x^a y')'; ``tables`` keeps its rules.

    ``zeros``, ``eigenvalues``, ``norm_consts`` and ``neumann_traces`` hold
    the modes' fields in order; each read is a writable copy of columns
    gathered once, when the basis is built.
    """

    alpha: float
    nu: float
    kappa: float
    modes: tuple[Mode, ...]
    p0: float                 # p(0) = int_0^1 s^{-a} ds = 1/(1-a)
    _rules: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    #: read-only rows zero, eigenvalue, norm_const, neumann_trace over the modes
    _columns: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        modes = self.modes
        cols = np.array([[m.zero for m in modes], [m.eigenvalue for m in modes],
                         [m.norm_const for m in modes], [m.neumann_trace for m in modes]],
                        dtype=float)
        cols.flags.writeable = False
        object.__setattr__(self, "_columns", cols)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def zeros(self) -> np.ndarray:
        return self._columns[0].copy()

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._columns[1].copy()

    @property
    def norm_consts(self) -> np.ndarray:
        return self._columns[2].copy()

    @property
    def neumann_traces(self) -> np.ndarray:
        return self._columns[3].copy()

    @property
    def gap(self) -> dict:
        """The uniform gap certificate, a fresh dict on every read."""
        sq = self.kappa * self._columns[0]
        gaps = np.diff(sq)
        return {"sqrt_lambda_1": float(sq[0]), "first_bound": GAP_FIRST,
                "min_gap": float(np.min(gaps)) if len(gaps) else float("inf"),
                "gap_bound": GAP_CONSECUTIVE}

    @property
    def basis_id(self) -> str:
        return f"alpha={self.alpha!r};N={self.n_modes}"

    def tables(self, *panel_counts: int) -> list[_Rule]:
        """Each panel count's rule in y = x^kappa and its J_nu table, where

            int_0^1 f(x) Phi_n(x) dx
                = (C_n / kappa) int_0^1 f(y^{1/kappa}) J_nu(j_n y) y^{1/(2-a)} dy.

        Each rule is evaluated once per basis; the counts not yet held come
        from one ``bessel_j_many`` call over their joined nodes. Each value
        depends only on its own argument, so each table has the bits of a
        call of its own. Filling is idempotent, so callers need no lock.
        """
        for panels in panel_counts:
            _require_int("panels", panels)
        missing = [p for p in panel_counts if p not in self._rules]
        if missing:
            rules = [panel_rule(0.0, 1.0, p, DEFAULT_NODES) for p in missing]
            joined = bessel.bessel_j_many(
                self.nu, self.zeros[:, None] * np.concatenate([y for y, _ in rules]))
            splits = np.cumsum([len(y) for y, _ in rules[:-1]])
            for p, (y, w), part in zip(missing, rules, np.split(joined, splits, axis=1)):
                rule = _Rule(y, w, y ** (1.0 / self.kappa),
                             w * y ** (1.0 / (2.0 - self.alpha)) / self.kappa, part.copy())
                for arr in rule:
                    arr.flags.writeable = False
                self._rules[p] = rule
        return [self._rules[p] for p in panel_counts]

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "nu": self.nu,
            "kappa": self.kappa,
            "p0": self.p0,
            "modes": [
                {
                    "n": m.index,
                    "zero": m.zero,
                    "eigenvalue": m.eigenvalue,
                    "norm_const": m.norm_const,
                    "neumann_trace": m.neumann_trace,
                }
                for m in self.modes
            ],
        }


@dataclass(frozen=True)
class MomentVector:
    """Fourier-Bessel coefficients of a state against a SpectralBasis."""

    alpha: float
    coefficients: np.ndarray
    basis_id: str

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if not np.all(np.isfinite(c)):
            raise UsageError("moment coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return len(self.coefficients)


def _mode(basis: SpectralBasis, n: int) -> Mode:
    """Mode n (1-based); ``DomainError`` unless n is an int, ``UsageError``
    unless 1 <= n <= N."""
    _require_int("mode index", n, positive=False)
    if not 1 <= n <= basis.n_modes:
        raise UsageError(f"mode index {n} outside 1..{basis.n_modes}")
    return basis.modes[n - 1]


def unit_moment(basis: SpectralBasis, n: int) -> MomentVector:
    """Moment vector of the basis vector e_n (1-based)."""
    _mode(basis, n)
    c = np.zeros(basis.n_modes)
    c[n - 1] = 1.0
    return MomentVector(alpha=basis.alpha, coefficients=c, basis_id=basis.basis_id)


def _trace_prefactor(alpha: float, nu: float, kappa: float) -> float:
    """(1-a) sqrt(2 kappa) / (2^nu Gamma(nu+1)), so that r_n = this * j^nu / |J'_nu(j)|."""
    return (1.0 - alpha) * np.sqrt(2.0 * kappa) / (2.0**nu * math.gamma(nu + 1.0))


def _exponents(alpha: float) -> tuple[float, float]:
    """nu = (1-a)/(2-a) and kappa = (2-a)/2, as in the module docstring."""
    return (1.0 - alpha) / (2.0 - alpha), (2.0 - alpha) / 2.0


def _require_alpha(alpha) -> float:
    """Alpha as a float in [0, 1), the domain of every basis; ``DomainError``
    otherwise, also for a value without a float (see ``_require_real``)."""
    alpha = _require_real("alpha", alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    return alpha


def make_basis(alpha: float, n_modes: int) -> SpectralBasis:
    """Build the first ``n_modes`` eigenmodes for a given alpha in [0, 1).

    Every call builds its own basis. A mode does not depend on the basis
    size: the first n modes of a larger basis equal a build of n.
    """
    alpha = _require_alpha(alpha)
    _require_int("n_modes", n_modes)
    nu, kappa = _exponents(alpha)
    trace_pref = _trace_prefactor(alpha, nu, kappa)
    root = np.sqrt(2.0 * kappa)
    modes = []
    for n in range(1, n_modes + 1):
        rec = bessel.bessel_zero(nu, n)
        j = rec.zero
        jp = abs(rec.derivative)
        modes.append(Mode(
            index=n,
            zero=j,
            eigenvalue=kappa**2 * j**2,
            norm_const=root / jp,
            neumann_trace=trace_pref * j**nu / jp,
        ))
    basis = SpectralBasis(alpha=alpha, nu=nu, kappa=kappa, modes=tuple(modes),
                          p0=1.0 / (1.0 - alpha))
    gap = basis.gap
    if (gap["sqrt_lambda_1"] < GAP_FIRST - _GAP_SLACK
            or gap["min_gap"] < GAP_CONSECUTIVE - _GAP_SLACK):
        raise DomainError(f"uniform gap certificate violated: {gap}")
    return basis


def eval_eigenfunction(basis: SpectralBasis, n: int, x) -> float | np.ndarray:
    """Phi_n(x) = C_n x^{(1-a)/2} J_nu(j_n x^kappa) on [0, 1]."""
    mode = _mode(basis, n)
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise DomainError("eigenfunctions are defined on [0, 1]")
    vals = np.zeros_like(x)
    pos = x > 0.0
    if np.any(pos):
        xp = x[pos]
        vals[pos] = (mode.norm_const * xp ** ((1.0 - basis.alpha) / 2.0)
                     * bessel.bessel_j_many(basis.nu, mode.zero * xp**basis.kappa))
    return float(vals[0]) if scalar else vals


def _phi_scalar_precise(basis: SpectralBasis, mode: Mode, x: float) -> float:
    """Scalar Phi_n(x), x > 0, through the certified series evaluator."""
    ev = bessel.bessel_j(basis.nu, mode.zero * x**basis.kappa)
    return mode.norm_const * x ** ((1.0 - basis.alpha) / 2.0) * ev.value


def project(basis: SpectralBasis, f, panels: int = DEFAULT_PANELS,
            tol: float = 1e-8) -> MomentVector:
    """Fourier-Bessel coefficients mu_n = int_0^1 f Phi_n dx.

    ``f`` must accept an ndarray of points in [0, 1]. The quadrature error
    is estimated by doubling the panel count; estimates above ``tol``
    raise ``QuadratureError`` rather than passing silently. ``panels``
    must be a positive int; both rules come from ``basis.tables``. ``tol``
    must be finite and positive (``DomainError`` otherwise): no estimate
    exceeds a NaN or infinite one, which would switch the check off.
    """
    tol = _require_real("tol", tol, positive=True)
    coarse, fine = (basis.norm_consts * (rule.table @ (np.asarray(f(rule.x), dtype=float)
                                                       * rule.common))
                    for rule in basis.tables(panels, 2 * panels))
    err = float(np.max(np.abs(fine - coarse)))
    if err > tol:
        raise QuadratureError(
            f"projection quadrature did not converge: estimated error "
            f"{err:.3e} > tol {tol:.1e} (panels={panels}, nodes={DEFAULT_NODES})")
    return MomentVector(alpha=basis.alpha, coefficients=fine,
                        basis_id=basis.basis_id)


def neumann_trace_numeric(basis: SpectralBasis, n: int, x_small: float) -> float:
    """Finite-difference estimate of x^a Phi_n'(x) at x = x_small.

    Converges to ``Mode.neumann_trace`` as x_small -> 0; the deviation
    decays like x^{2-a} (the next term of the ascending expansion), which
    in particular is O(x^{1-a}).
    """
    mode = _mode(basis, n)
    if not 0.0 < x_small <= 1e-3:
        raise DomainError("x_small must lie in (0, 1e-3]")
    h = x_small * 1e-4
    up = _phi_scalar_precise(basis, mode, x_small + h)
    dn = _phi_scalar_precise(basis, mode, x_small - h)
    return x_small**basis.alpha * (up - dn) / (2.0 * h)


def trace_asymptotic_prefactor(basis: SpectralBasis) -> float:
    """rho with r_n ~ rho * j_n^{nu + 1/2} as n grows."""
    return _trace_prefactor(basis.alpha, basis.nu, basis.kappa) * np.sqrt(np.pi / 2.0)


def source_coefficient(basis: SpectralBasis, n: int) -> float:
    """int_0^1 (p(x)/p(0)) Phi_n dx = r_n / lambda_n, p(x)/p(0) = 1 - x^{1-a}."""
    mode = _mode(basis, n)
    return mode.neumann_trace / mode.eigenvalue


def source_coefficient_quadrature(basis: SpectralBasis, n: int) -> float:
    """Independent quadrature of int (1 - x^{1-a}) Phi_n dx.

    In the substituted variable the weight is 1 - y^{2 nu}.
    """
    mode = _mode(basis, n)
    rule = basis.tables(DEFAULT_PANELS)[0]
    integrand = (1.0 - rule.y ** (2.0 * basis.nu)) * rule.table[n - 1]
    return mode.norm_const * float(np.dot(rule.common, integrand))


def gram_matrix(basis: SpectralBasis) -> np.ndarray:
    """Quadrature Gram of the eigenfunctions; identity up to quadrature error.

    With two eigenfunctions in the integrand the substituted weight is
    exactly y: Phi_m Phi_n dx = (C_m C_n / kappa) y J(j_m y) J(j_n y) dy.
    """
    rule = basis.tables(DEFAULT_PANELS)[0]
    vals = basis.norm_consts[:, None] * rule.table
    return (vals * (rule.w * rule.y / basis.kappa)) @ vals.T


@dataclass(frozen=True)
class LimitBasis:
    """Limit family Phi_n(x) = J_0(j_{0,n} sqrt(x)) / |J'_0(j_{0,n})|.

    Obtained from the alpha < 1 eigenfunctions by letting alpha -> 1; an
    orthonormal basis of L2(0,1). Neumann traces vanish in this limit, so
    no control synthesis is attached to it.
    """

    zeros: np.ndarray
    jprime: np.ndarray   # |J'_0(j_{0,n})|

    def project(self, f) -> np.ndarray:
        """<f, Phi_n> = (1/|J'_0(j_n)|) int_0^1 2 y f(y^2) J_0(j_n y) dy."""
        y, w = panel_rule(0.0, 1.0, DEFAULT_PANELS, DEFAULT_NODES)
        fy = np.asarray(f(y**2), dtype=float) * 2.0 * y * w
        return (bessel.bessel_j_many(0.0, self.zeros[:, None] * y) @ fy) / self.jprime


def make_limit_basis(n_modes: int) -> LimitBasis:
    """Build the alpha = 1 limit family from the zeros of J_0."""
    _require_int("n_modes", n_modes)
    recs = [bessel.bessel_zero(0.0, n) for n in range(1, n_modes + 1)]
    return LimitBasis(zeros=np.array([r.zero for r in recs]),
                      jprime=np.array([abs(r.derivative) for r in recs]))
