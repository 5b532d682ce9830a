"""Null-controllability cost across the degeneracy parameter.

Upper estimates: the full pipeline (spectral basis -> biorthogonal family
-> ``null_control``: moment-method control with zero target, moment
replay, exact evolution) is run and ||G||_H1 reported, but only after the
run's own oracles pass: moment residuals below tolerance, |G(T)| < 1e-8,
controlled-mode terminal residuals < 1e-5 and closed-form vs integrator
deviation < 1e-6. This bounds the true cost from
above; the moment-method control is not claimed optimal.

Certified lower bounds: from the moment identity
r_n int_0^T G e^{lambda_n t} dt = -mu0_n, Cauchy-Schwarz gives, for EVERY
admissible control,

    ||G||_L2 >= |mu0_n| / (r_n ||e^{lambda_n t}||_{L2(0,T)})
             = |mu0_n| e^{-lambda_n T} sqrt(2 lambda_n)
               / (r_n sqrt(1 - e^{-2 lambda_n T})),

computed in the damped form shown (no e^{+lambda T} is ever materialized),
and ||G||_H1 >= ||G||_L2. The bound needs no Gram system, so it stays
available arbitrarily close to alpha = 1. Near that end (alpha > 0.9) the
maximizing mode is restricted to modes whose coefficient against the
alpha = 1 limit basis is stable, matching the continuity argument that
drives the blow-up constant; elsewhere the bound maximizes over all modes.

Scaled products (1-alpha) * upper and (1-alpha) * lower trace the
two-sided 1/(1-alpha) blow-up law; ``cost_sweep`` reports both bands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv, write_json
from .biortho import BiorthogonalFamily, build_biortho
from .control import moment_residual, synthesize
from .errors import AccuracyError, ConditioningError, DomainError, UsageError
from .simulate import ORACLE_TOL, evolve
from .spectrum import (MomentVector, SpectralBasis, make_basis,
                       make_limit_basis, project, unit_moment)

_MIN_RETRY_N = 4
TERMINAL_TOL = 1e-5
BOUNDARY_TOL = 1e-8
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
            data = np.loadtxt(arg, delimiter=",", ndmin=2)
        except ValueError as err:
            raise UsageError(f"cannot read csv profile {arg}: {err}") from None
        if data.shape[0] < 1 or data.shape[1] < 2:
            raise UsageError(f"csv profile {arg} needs rows of x,value")
        xs, vals = data[:, 0], data[:, 1]
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

    Accepted forms: a MomentVector (checked against the basis), a callable
    f(x) on [0,1] (projected), or a descriptor string:

    * ``mode:<n>``   -- n-th basis vector;
    * ``poly:x(1-x)`` -- the built-in bump profile x(1-x);
    * ``csv:<path>`` -- two-column CSV (x, value), linearly interpolated
      and projected.

    Malformed descriptors raise ``UsageError``.
    """
    if isinstance(u0, MomentVector):
        if u0.alpha != basis.alpha or len(u0) != basis.n_modes:
            raise UsageError("moment vector does not match the basis "
                             f"(alpha {u0.alpha} vs {basis.alpha}, "
                             f"N {len(u0)} vs {basis.n_modes})")
        return u0
    return _moments(_parse_u0(u0, basis.n_modes), basis)


def null_control(basis: SpectralBasis, fam: BiorthogonalFamily,
                 mu0: MomentVector, tol: float,
                 grid_size: int = 512):
    """Steer mu0 to rest: synthesize the control, replay its moments and
    evolve the controlled modes.

    Returns ``(signal, residuals, trajectory, checks)``. ``checks`` holds
    the four oracles as ``(name, value, limit)``, each passing when
    value <= limit: moment residuals (limit ``tol``), |G(T)|, terminal
    residual and closed-form vs integrator deviation.
    """
    muT = MomentVector(alpha=basis.alpha, coefficients=np.zeros(basis.n_modes),
                       basis_id=basis.basis_id)
    signal = synthesize(basis, fam, mu0, muT)
    res = moment_residual(basis, signal, mu0, muT)
    traj = evolve(basis, mu0, signal, grid_size=grid_size)
    checks = (
        ("moment_residuals", float(np.max(np.abs(res))), tol),
        ("boundary_return", abs(signal.terminal_value), BOUNDARY_TOL),
        ("terminal_state", float(np.max(np.abs(traj.terminal))), TERMINAL_TOL),
        ("propagation_oracle", traj.oracle_deviation, ORACLE_TOL),
    )
    return signal, res, traj, checks


def _check_state(u0: MomentVector, alpha: float) -> None:
    if u0.alpha != alpha:
        raise UsageError(f"u0 was projected at alpha {u0.alpha}, not {alpha}")


@dataclass(frozen=True)
class CostUpper:
    """Upper cost estimate with the mode count actually used and the
    oracle readings that gated it."""

    value: float
    n_used: int
    diagnostics: dict


def cost_upper(alpha: float, u0: MomentVector, T: float, n_modes: int,
               tol: float = 1e-6) -> CostUpper:
    """||G_alpha||_H1 of the verified moment-method null control.

    On Gram conditioning failure the mode count backs off one at a time
    (u0 coefficients truncated accordingly) down to 4; the count actually
    used is reported. Conditioning-induced accuracy failures of the family
    construction (residual floor above tolerance at high condition
    numbers) back off the same way.
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    _check_state(u0, alpha)
    if len(u0) < n_modes:
        raise UsageError(f"u0 carries {len(u0)} coefficients, need {n_modes}")
    last_err = None
    for n in range(n_modes, _MIN_RETRY_N - 1, -1):
        basis = make_basis(alpha, n)
        mu0 = MomentVector(alpha=alpha, coefficients=u0.coefficients[:n],
                           basis_id=basis.basis_id)
        try:
            fam = build_biortho(basis.eigenvalues, T, tol=tol)
        except (ConditioningError, AccuracyError) as err:
            last_err = err
            continue
        signal, _, _, checks = null_control(basis, fam, mu0, tol)
        failures = [f"{name} {value:.2e} > {limit:.0e}"
                    for name, value, limit in checks if not value <= limit]
        if failures:
            raise AccuracyError("null-control oracles failed: " + "; ".join(failures))
        diag = dict(zip(("moment_residual_max", "boundary_terminal",
                         "terminal_residual_max", "oracle_deviation"),
                        (value for _, value, _ in checks)),
                    gram_condition=fam.gram_condition)
        return CostUpper(value=signal.norms["G_h1"], n_used=n, diagnostics=diag)
    raise ConditioningError(
        f"no admissible mode count in [{_MIN_RETRY_N}, {n_modes}] for "
        f"alpha={alpha}, T={T}: {last_err}",
        largest_admissible_n=getattr(last_err, "largest_admissible_n", None))


def cost_lower(alpha: float, u0: MomentVector, T: float,
               limit_coeffs: np.ndarray | None = None) -> float:
    """Certified lower bound on the H1 null-control cost for u0.

    Valid for every admissible control. ``limit_coeffs``, when supplied
    and alpha > 0.9, restricts the maximized modes to those with a stable
    coefficient against the limit basis.
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must lie in [0, 1), got {alpha}")
    if not T > 0.0:
        raise DomainError(f"horizon must be positive, got {T}")
    _check_state(u0, alpha)
    basis = make_basis(alpha, len(u0))
    lam = basis.eigenvalues
    r = basis.neumann_traces
    mu = np.abs(u0.coefficients)
    bounds = mu * np.exp(-lam * T) * np.sqrt(2.0 * lam) / (
        r * np.sqrt(1.0 - np.exp(-2.0 * lam * T)))
    if alpha > 0.9 and limit_coeffs is not None:
        lc = np.abs(limit_coeffs[:len(bounds)])
        stable = lc >= _LIMIT_COEFF_FLOOR * max(np.max(lc), _LIMIT_COEFF_FLOOR)
        if np.any(stable):
            return float(np.max(bounds[stable]))
    return float(np.max(bounds)) if len(bounds) else 0.0


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
    normalized: bool

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
            "normalized": self.normalized,
            "product_upper_ratio": self.product_upper_ratio,
            "rows": self.to_rows(),
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def save_csv(self, path, header_comment: str | None = None) -> None:
        cols = ["alpha", "upper", "lower", "product_upper", "product_lower", "N_used"]
        write_csv(path, cols, ([row[c] for c in cols] for row in self.to_rows()),
                  header_comment)


#: canonical unit test set standing in for the sup over all unit u0
GLOBAL_TEST_SET = ("mode:1", "mode:2", "poly:x(1-x)")


def cost_global(alpha: float, T: float, n_modes: int, tol: float = 1e-6) -> float:
    """Estimate of the global cost sup_{||u0||=1} C(alpha, u0).

    A true operator-norm computation is out of scope; the supremum is
    lower-approximated by the maximum over the fixed test set
    ``GLOBAL_TEST_SET`` of unit initial states.
    """
    best = 0.0
    basis = make_basis(alpha, n_modes)
    for descr in GLOBAL_TEST_SET:
        mu = resolve_u0(descr, basis)
        c = mu.coefficients / np.linalg.norm(mu.coefficients)
        mu = MomentVector(alpha=alpha, coefficients=c, basis_id=basis.basis_id)
        best = max(best, cost_upper(alpha, mu, T, n_modes, tol=tol).value)
    return best


def cost_sweep(alphas, u0, T: float, n_modes: int,
               normalize: bool = True, tol: float = 1e-6) -> CostReport:
    """Run upper and lower cost estimates over an alpha grid.

    ``u0`` may be anything ``resolve_u0`` accepts except a raw
    MomentVector (the coefficients must be re-projected per alpha). With
    ``normalize`` the moment vector is scaled to unit l2 norm at each
    alpha, so points measure cost per unit of initial data. Per-alpha
    failures are recorded and the sweep continues.
    """
    if isinstance(u0, MomentVector):
        raise UsageError("cost_sweep needs a function-like u0 (callable or "
                         "descriptor); moment vectors are alpha-specific")
    parsed = _parse_u0(u0, n_modes)
    n, f, _ = parsed
    limit_coeffs = (np.eye(n_modes)[n - 1] if f is None
                    else make_limit_basis(n_modes).project(f))
    points = []
    for alpha in alphas:
        alpha = float(alpha)
        basis = make_basis(alpha, n_modes)
        mu0 = _moments(parsed, basis)
        if normalize:
            nrm = float(np.linalg.norm(mu0.coefficients))
            if nrm == 0.0:
                raise UsageError("u0 projects to the zero vector; cannot normalize")
            mu0 = MomentVector(alpha=alpha, coefficients=mu0.coefficients / nrm,
                               basis_id=basis.basis_id)
        lower = cost_lower(alpha, mu0, T, limit_coeffs=limit_coeffs)
        try:
            up = cost_upper(alpha, mu0, T, n_modes, tol=tol)
            points.append(CostPoint(alpha=alpha, upper=up.value, lower=lower,
                                    n_used=up.n_used, ok=True, message=""))
        except (ConditioningError, AccuracyError) as err:
            points.append(CostPoint(alpha=alpha, upper=None, lower=lower,
                                    n_used=None, ok=False, message=str(err)))
    descr = u0 if isinstance(u0, str) else getattr(u0, "__name__", "callable")
    return CostReport(points=tuple(points), u0_descr=descr, T=float(T),
                      n_modes=n_modes, normalized=normalize)
