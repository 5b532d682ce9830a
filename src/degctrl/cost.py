"""Null-controllability cost across the degeneracy parameter.

Upper estimates: the full pipeline (spectral basis -> biorthogonal family
-> ``null_control``: moment-method control with zero target, moment
replay, exact evolution) is run and ||G||_H1 reported, but only after the
run's own oracles pass: moment residuals below tolerance, |G(T)| < 1e-8,
controlled-mode terminal residuals < 1e-5 and closed-form vs integrator
deviation < 1e-6. This bounds from above the cost of bringing modes 1..N
to rest. The control also drives the modes above N, which no oracle
reads, so it is not yet a bound on the cost of the full null control;
nor is the moment-method control claimed optimal.

Certified lower bounds: from the moment identity
r_n int_0^T G e^{lambda_n t} dt = -mu0_n, Cauchy-Schwarz gives, for EVERY
admissible control,

    ||G||_L2 >= |mu0_n| / (r_n ||e^{lambda_n t}||_{L2(0,T)})
             = |mu0_n| e^{-lambda_n T} sqrt(2 lambda_n)
               / (r_n sqrt(1 - e^{-2 lambda_n T})),

computed in the damped form shown (no e^{+lambda T} is ever materialized)
with 1 - e^{-2 lambda_n T} as -expm1(-2 lambda_n T), which does not cancel
as lambda_n T -> 0,
and ||G||_H1 >= ||G||_L2. The bound needs no Gram system, so it stays
available arbitrarily close to alpha = 1. Near that end (alpha > 0.9),
``cost_lower`` given u0's alpha = 1 limit-basis coefficients maximizes over
the modes whose coefficient is stable, matching the continuity argument that
drives the blow-up constant; otherwise, and in ``cost_sweep``, over all modes.

Scaled products (1-alpha) * upper and (1-alpha) * lower trace the
two-sided 1/(1-alpha) blow-up law; ``cost_sweep`` reports both bands.

``verify`` checks every stage of that chain. Its limits live here, but for
the zero and gap slacks of ``bessel`` and ``spectrum``.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import bessel
from ._fmt import write_csv
from .biortho import (BiorthogonalFamily, build_biortho, eval_sigma,
                      exponential_gram)
from .control import moment_residual, synthesize
from .errors import AccuracyError, UsageError, _require_int, _require_real
from .quadrature import graded_rule
from .simulate import evolve
from .spectrum import (_GAP_SLACK, MomentVector, SpectralBasis, _require_alpha,
                       _source_rows, gram_matrix, make_basis,
                       neumann_trace_numeric, project, unit_moment)

_MIN_RETRY_N = 4
TERMINAL_TOL = 1e-5
BOUNDARY_TOL = 1e-8
ORACLE_TOL = 1e-6
ZERO_MEAN_TOL = 1e-8
_LIMIT_COEFF_FLOOR = 1e-8


def _parse_u0(u0, n_modes: int):
    """``(n, None, {})`` for ``mode:<n>``, 1 <= n <= ``n_modes``, else
    ``(None, f, kwargs)``: a profile f(x) on [0, 1] and the extra arguments
    its projection on a SpectralBasis needs."""
    if callable(u0):
        return None, u0, {}
    if not isinstance(u0, str):
        raise UsageError(f"cannot interpret u0 of type {type(u0).__name__}")
    kind, _, arg = u0.partition(":")
    if kind == "mode":
        try:
            n = int(arg)
        except ValueError:
            raise UsageError(f"mode index must be an integer, got {arg!r}") from None
        if not 1 <= n <= n_modes:
            raise UsageError(f"mode index {n} outside 1..{n_modes}")
        return n, None, {}
    if kind == "poly":
        if arg.replace(" ", "") != "x(1-x)":
            raise UsageError(f"unknown polynomial profile {arg!r}; "
                             "only x(1-x) is built in")
        return None, lambda x: x * (1.0 - x), {}
    if kind == "csv":
        try:
            with warnings.catch_warnings():   # an empty file is named below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(arg, delimiter=",", ndmin=2)
        except ValueError as err:
            raise UsageError(f"cannot read csv profile {arg}: {err}") from None
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise UsageError(f"csv profile {arg} needs rows of x,value")
        xs, vals = data[:, 0], data[:, 1]
        # np.interp needs increasing x and raises nothing for another order
        if not np.all(np.diff(xs) > 0.0):
            raise UsageError(f"csv profile {arg} needs strictly increasing x")
        # sampled data is piecewise linear; its kinks dominate the
        # quadrature error long before the interpolation error matters,
        # so the projection tolerance follows the data resolution
        return None, lambda x: np.interp(x, xs, vals), {"panels": 16, "tol": 1e-6}
    raise UsageError(f"unknown u0 descriptor {u0!r}")


def _moments(parsed, basis: SpectralBasis) -> MomentVector:
    n, f, kwargs = parsed
    return unit_moment(basis, n) if f is None else project(basis, f, **kwargs)


def resolve_u0(u0, basis: SpectralBasis) -> MomentVector:
    """Turn a u0 description into a MomentVector against ``basis``.

    Accepted forms: a callable f(x) on [0,1] (projected) or a descriptor
    string:

    * ``mode:<n>``   -- n-th basis vector;
    * ``poly:x(1-x)`` -- the built-in bump profile x(1-x);
    * ``csv:<path>`` -- two-column CSV (x, value), linearly interpolated
      and projected.

    Malformed descriptors raise ``UsageError``.
    """
    return _moments(_parse_u0(u0, basis.n_modes), basis)


def null_control(basis: SpectralBasis, fam: BiorthogonalFamily,
                 mu0: MomentVector, tol: float,
                 grid_size: int = 512):
    """Steer mu0 to rest: synthesize the control, replay its moments and
    evolve the controlled modes.

    Returns ``(signal, residuals, trajectory, checks)``. ``checks`` holds
    the four oracles as ``(name, value, limit)``, each passing when
    value <= limit: moment residuals (limit ``tol``), |G(T)|, terminal
    residual and closed-form vs integrator deviation. ``tol`` must be a
    finite positive real (``DomainError`` otherwise).
    """
    tol = _require_real("tol", tol, positive=True)
    signal, res, checks = _synthesis_step(basis, fam, mu0, tol)
    traj = evolve(basis, mu0, signal, grid_size=grid_size)
    checks += (
        ("terminal_state", float(np.max(np.abs(traj.terminal))), TERMINAL_TOL),
        ("propagation_oracle", traj.oracle_deviation, ORACLE_TOL),
    )
    return signal, res, traj, checks


def _failures(checks) -> list[str]:
    """``"{name} {value:.2e} > {limit:.0e}"`` for each ``(name, value, limit)``
    check but those with value <= limit (so NaN fails): a run passes if none."""
    return [f"{name} {value:.2e} > {limit:.0e}"
            for name, value, limit in checks if not value <= limit]


def _family_checks(fam: BiorthogonalFamily, tol: float):
    """The family's residual (limit ``tol``) and max |int sigma_n| as checks."""
    return (("biorthogonality", fam.residual_max, tol),
            ("zero_mean", float(np.max(np.abs(fam.zero_mean_values))), ZERO_MEAN_TOL))


def _synthesis_step(basis: SpectralBasis, fam: BiorthogonalFamily,
                    mu0: MomentVector, tol: float, muT: MomentVector | None = None):
    """Steer mu0 to ``muT`` (rest when None) and replay the moments:
    ``(signal, residuals, checks)``, ``checks`` holding the moment residuals
    (limit ``tol``) and |G(T)| as ``(name, value, limit)``, each passing
    when value <= limit, so never on NaN."""
    if muT is None:
        muT = MomentVector(alpha=basis.alpha, coefficients=np.zeros(basis.n_modes),
                           basis_id=basis.basis_id)
    signal = synthesize(basis, fam, mu0, muT)
    res = moment_residual(basis, signal, mu0, muT)
    return signal, res, (("moment_residuals", float(np.max(np.abs(res))), tol),
                         ("boundary_return", abs(signal.terminal_value), BOUNDARY_TOL))


def verify(basis: SpectralBasis, fam: BiorthogonalFamily, mu0: MomentVector,
           tol: float, seed: int = 0, grid_size: int = 512) -> list[dict]:
    """Invariant battery over every stage of the pipeline: one
    ``{name, passed, metric}`` entry per check, in ``verify.json`` order.
    ``seed`` draws the min-norm perturbations; mu0 is steered to rest
    for the four ``null_control`` oracles, with ``tol`` checked as there."""
    tol = _require_real("tol", tol, positive=True)
    _require_int("seed", seed, positive=False, error=UsageError)
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    n = basis.n_modes
    T = fam.T
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, passed, metric):
        checks.append({"name": name, "passed": bool(passed), "metric": metric})

    gap = basis.gap
    record("gap_certificate",
           gap["sqrt_lambda_1"] >= gap["first_bound"] - _GAP_SLACK
           and gap["min_gap"] >= gap["gap_bound"] - _GAP_SLACK, gap["min_gap"])

    resid = max(abs(bessel.bessel_j(basis.nu, m.zero).value) for m in basis.modes)
    slack = bessel._BRACKET_SLACK
    brackets = all(lo - slack <= m.zero <= hi + slack for m in basis.modes
                   for lo, hi in [bessel.lorch_muldoon_bracket(basis.nu, m.index)])
    record("zero_certification", resid < bessel.ZERO_TOL and brackets, resid)

    gram_dev = float(np.max(np.abs(gram_matrix(basis) - np.eye(n))))
    record("orthonormality", gram_dev < 1e-8, gram_dev)

    src_dev = float(np.max(np.abs(_source_rows(basis)
                                  - basis.neumann_traces / basis.eigenvalues)))
    record("source_coefficient", src_dev < 1e-8, src_dev)

    trace_devs = [abs(neumann_trace_numeric(basis, 1, xs) - basis.modes[0].neumann_trace)
                  for xs in (1e-3, 1e-4, 1e-5)]
    record("neumann_trace_convergence",
           trace_devs[2] < trace_devs[1] < trace_devs[0], trace_devs[2])

    def record_checks(checks):
        for check in checks:
            record(check[0], not _failures([check]), check[1])

    record_checks(_family_checks(fam, tol))

    # min-norm: constraint-respecting perturbations cannot shrink the norm
    mids = 0.5 * (fam.lambdas[:-1] + fam.lambdas[1:])
    extra = np.concatenate([mids, [fam.lambdas[-1] * 1.5]])
    A = exponential_gram(fam.lambdas_full, T, extra)
    Gp = exponential_gram(extra, T)
    ok_min = True
    worst = 0.0
    for idx in (1, max(1, fam.n_modes // 2)):
        a_vec = fam.coeffs_reflected[:, idx - 1]
        base = fam.sigma_tilde_norm(idx) ** 2
        for _ in range(4):
            q = rng.standard_normal(len(extra))
            q -= np.linalg.lstsq(A, A @ q, rcond=None)[0]
            grown = base + 2.0 * a_vec @ (A @ q) + q @ Gp @ q
            worst = max(worst, (base - grown) / base)
            ok_min &= grown >= base * (1.0 - 1e-8)
    record("min_norm_optimality", ok_min, worst)

    record_checks(null_control(basis, fam, mu0, tol, grid_size=grid_size)[3])

    # replay int sigma_m e^{lambda_m t} dt = 1 by quadrature, damped split
    t, w = graded_rule(T)
    replay = 0.0
    for m in range(1, min(n, 4) + 1):
        lam_m = fam.lambdas[m - 1]
        damped = np.dot(w, eval_sigma(fam, m, t) * np.exp(lam_m * (t - T)))
        replay = max(replay, abs(damped * np.exp(lam_m * T) - 1.0))
    record("sigma_replay", replay <= tol, float(replay))
    return checks


def _check_state(u0: MomentVector, alpha: float) -> None:
    if u0.alpha != alpha:
        raise UsageError(f"u0 was projected at alpha {u0.alpha}, not {alpha}")


@dataclass(frozen=True)
class CostUpper:
    """Upper cost estimate with the mode count actually used; ``diagnostics``
    maps each ``null_control`` check name to the reading that gated it, and
    ``gram_condition`` to the family's."""

    value: float
    n_used: int
    diagnostics: dict


def cost_upper(alpha: float, u0: MomentVector, T: float, n_modes: int,
               tol: float = 1e-6) -> CostUpper:
    """||G_alpha||_H1 of the verified moment-method null control.

    A mode count N is used only if its biorthogonal family certifies and
    its ``null_control`` run raises no ``AccuracyError`` and passes all
    four oracles; any failure backs off to N - 1 (u0 coefficients
    truncated accordingly), down to 4. The count used is reported. When no
    count passes, one ``AccuracyError`` lists every N tried with its
    reason. ``tol`` must be a finite positive real (``DomainError`` otherwise).
    """
    return _upper(alpha, u0, T, n_modes, _require_real("tol", tol, positive=True))


def _upper(alpha, u0, T, n_modes, tol, basis=None) -> CostUpper:
    """``cost_upper`` on ``basis``, built here when None; the back-off takes its prefixes."""
    alpha = _require_alpha(alpha)
    _check_state(u0, alpha)
    _require_int("n_modes", n_modes, positive=False)
    if n_modes < _MIN_RETRY_N:
        raise UsageError(f"cost_upper needs at least {_MIN_RETRY_N} modes, "
                         f"got {n_modes}")
    if len(u0) < n_modes:
        raise UsageError(f"u0 carries {len(u0)} coefficients, need {n_modes}")
    basis = make_basis(alpha, n_modes) if basis is None else basis
    trail = []
    for n in range(n_modes, _MIN_RETRY_N - 1, -1):
        basis = replace(basis, modes=basis.modes[:n]) if n < basis.n_modes else basis
        mu0 = MomentVector(alpha=alpha, coefficients=u0.coefficients[:n],
                           basis_id=basis.basis_id)
        try:
            fam = build_biortho(basis.eigenvalues, T, tol=tol)
            signal, _, _, checks = null_control(basis, fam, mu0, tol)
        except AccuracyError as err:
            trail.append(f"N={n}: {err}")
            continue
        if failures := _failures(checks):
            trail.append(f"N={n}: null-control oracles failed: " + "; ".join(failures))
            continue
        diag = {name: value for name, value, _ in checks}
        diag["gram_condition"] = fam.gram_condition
        return CostUpper(value=signal.norms["G_h1"], n_used=n, diagnostics=diag)
    raise AccuracyError(
        f"no mode count in [{_MIN_RETRY_N}, {n_modes}] passes for "
        f"alpha={alpha}, T={T}: " + " | ".join(trail))


def cost_lower(alpha: float, u0: MomentVector, T: float,
               limit_coeffs: np.ndarray | None = None) -> float:
    """Certified lower bound on the H1 null-control cost for u0.

    Valid for every admissible control. ``limit_coeffs``, when supplied
    and alpha > 0.9, restricts the maximized modes to those with a stable
    coefficient against the limit basis. ``T`` is taken through ``float``.
    """
    return _lower(alpha, u0, T, limit_coeffs)


def _lower(alpha, u0, T, limit_coeffs, basis=None) -> float:
    """``cost_lower``, on ``basis`` when one with a mode per coefficient is given."""
    alpha = _require_alpha(alpha)
    horizon = _require_real("horizon", T, positive=True)
    _check_state(u0, alpha)
    basis = make_basis(alpha, len(u0)) if basis is None else basis
    lam = basis.eigenvalues
    r = basis.neumann_traces
    mu = np.abs(u0.coefficients)
    # once 2 lambda_N T leaves double range, e^{-lambda T} = 0 is the value
    quiet = 2.0 * float(lam[-1]) * horizon == math.inf
    with np.errstate(over="ignore") if quiet else contextlib.nullcontext():
        bounds = mu * np.exp(-lam * horizon) * np.sqrt(2.0 * lam) / (
            r * np.sqrt(-np.expm1(-2.0 * lam * horizon)))
    if alpha > 0.9 and limit_coeffs is not None:
        lc = np.abs(limit_coeffs[:len(bounds)])
        stable = lc >= _LIMIT_COEFF_FLOOR * max(np.max(lc), _LIMIT_COEFF_FLOOR)
        if np.any(stable):
            return float(np.max(bounds[stable]))
    return float(np.max(bounds))


@dataclass(frozen=True)
class CostPoint:
    alpha: float
    upper: float | None
    lower: float
    n_used: int | None
    ok: bool
    message: str

    @property
    def product_upper(self) -> float | None:
        return None if self.upper is None else (1.0 - self.alpha) * self.upper

    @property
    def product_lower(self) -> float:
        return (1.0 - self.alpha) * self.lower


@dataclass(frozen=True)
class CostReport:
    """Per-alpha cost estimates with the (1-alpha)-scaled profile."""

    points: tuple[CostPoint, ...]
    u0_descr: str
    T: float
    n_modes: int

    @property
    def certified(self) -> bool:
        """Every point holds a certified upper estimate at or above its lower bound."""
        return all(p.ok and p.lower <= p.upper for p in self.points)

    @property
    def product_upper_ratio(self) -> float:
        vals = [p.product_upper for p in self.points if p.ok and p.product_upper]
        if len(vals) < 2:
            return 1.0
        return float(max(vals) / min(vals))

    def to_rows(self) -> list[dict]:
        return [
            {
                "alpha": p.alpha,
                "upper": p.upper,
                "lower": p.lower,
                "product_upper": p.product_upper,
                "product_lower": p.product_lower,
                "N_used": p.n_used,
                "ok": p.ok,
                "message": p.message,
            }
            for p in self.points
        ]

    def to_json_dict(self) -> dict:
        return {
            "u0": self.u0_descr,
            "T": self.T,
            "N": self.n_modes,
            "normalized": True,
            "product_upper_ratio": self.product_upper_ratio,
            "rows": self.to_rows(),
        }

    def save_csv(self, path, header_comment: str | None = None) -> None:
        cols = ["alpha", "upper", "lower", "product_upper", "product_lower", "N_used"]
        write_csv(path, cols, ([row[c] for c in cols] for row in self.to_rows()),
                  header_comment)


def cost_sweep(alphas, u0, T: float, n_modes: int,
               tol: float = 1e-6) -> CostReport:
    """Run upper and lower cost estimates over an alpha grid.

    ``u0`` may be anything ``resolve_u0`` accepts; it is projected afresh
    at each alpha and scaled to unit l2 norm there, so points measure cost
    per unit of initial data. Per-alpha failures are recorded and the
    sweep continues. ``tol`` is taken as ``cost_upper`` takes it.
    """
    alphas = [_require_alpha(alpha) for alpha in alphas]
    tol = _require_real("tol", tol, positive=True)
    _require_int("n_modes", n_modes, positive=False)
    parsed = _parse_u0(u0, n_modes)
    points = []
    for alpha in alphas:
        basis = make_basis(alpha, n_modes)
        mu0 = _moments(parsed, basis)
        nrm = float(np.linalg.norm(mu0.coefficients))
        if nrm == 0.0:
            raise UsageError("u0 projects to the zero vector; cannot normalize")
        mu0 = MomentVector(alpha=alpha, coefficients=mu0.coefficients / nrm,
                           basis_id=basis.basis_id)
        lower = _lower(alpha, mu0, T, None, basis)
        try:
            up = _upper(alpha, mu0, T, n_modes, tol, basis)
            points.append(CostPoint(alpha=alpha, upper=up.value, lower=lower,
                                    n_used=up.n_used, ok=True, message=""))
        except AccuracyError as err:
            points.append(CostPoint(alpha=alpha, upper=None, lower=lower,
                                    n_used=None, ok=False, message=str(err)))
    descr = u0 if isinstance(u0, str) else getattr(u0, "__name__", "callable")
    return CostReport(points=tuple(points), u0_descr=descr, T=float(T),
                      n_modes=n_modes)
