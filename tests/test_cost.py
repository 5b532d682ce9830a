import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from degctrl import bessel, cost
from degctrl.biortho import build_biortho, eval_sigma
from degctrl.control import reachability_score
from degctrl.cost import (BOUNDARY_TOL, ORACLE_TOL, TERMINAL_TOL, CostPoint,
                          CostReport, cost_lower, cost_sweep, cost_upper,
                          null_control, resolve_u0, verify)
from degctrl.errors import AccuracyError, DomainError, UsageError
from degctrl.quadrature import panel_rule
from degctrl.spectrum import (LimitBasis, MomentVector, make_basis,
                              make_limit_basis, project, unit_moment)


class TestCostUpper:
    def test_zero_initial_state(self):
        basis = make_basis(0.3, 6)
        zero = MomentVector(alpha=0.3, coefficients=np.zeros(6),
                            basis_id=basis.basis_id)
        assert cost_upper(0.3, zero, 1.0, 6).value == 0.0

    def test_single_mode_closed_form(self):
        # ||G||_H1 for u0 = e_1 at alpha = 0 equals the H1 norm of
        # (pi/sqrt(2)) * int sigma_1, rebuilt here by direct quadrature
        basis = make_basis(0.0, 6)
        fam = build_biortho(basis.eigenvalues, 1.0)
        d1 = math.pi / math.sqrt(2.0)
        t, w = panel_rule(0.0, 1.0, 32, 32)
        g = d1 * eval_sigma(fam, 1, t)
        # G by cumulative quadrature: integrate sigma_1 up to each node
        G = np.array([d1 * np.dot(w[:k], eval_sigma(fam, 1, t[:k]))
                      for k in range(len(t) + 1)])[1:]
        h1 = math.sqrt(np.dot(w, g**2) + np.dot(w, G**2))
        up = cost_upper(0.0, unit_moment(basis, 1), 1.0, 6)
        assert up.value == pytest.approx(h1, rel=1e-3)
        assert up.n_used == 6

    def test_homogeneous_scaling(self):
        basis = make_basis(0.5, 6)
        mu = project(basis, lambda x: x * (1.0 - x))
        mu2 = MomentVector(alpha=0.5, coefficients=2.0 * mu.coefficients,
                           basis_id=basis.basis_id)
        assert cost_upper(0.5, mu2, 1.0, 6).value == pytest.approx(
            2.0 * cost_upper(0.5, mu, 1.0, 6).value, rel=1e-13)

    def test_backoff_reports_n_used(self):
        # N = 14, 13 exceed the conditioning gate at T = 1 and N = 12 sits
        # at the residual floor of double-stored coefficients (~2e-6,
        # platform-dependent on which side of tol it lands); the run must
        # back off below 13 and say so
        basis = make_basis(0.0, 14)
        mu = unit_moment(basis, 1)
        up = cost_upper(0.0, mu, 1.0, 14)
        assert up.n_used in (11, 12)
        assert up.diagnostics["gram_condition"] < 1e14
        assert up.diagnostics["moment_residuals"] < 1e-6

    def test_backoff_walks_past_oracle_failures(self):
        # at T = 0.02 the boundary return of N = 8..5 fails its limit while
        # every family certifies; N = 4 passes all four checks
        up = cost_upper(0.0, unit_moment(make_basis(0.0, 8), 1), 0.02, 8)
        assert up.n_used == 4
        d = up.diagnostics
        assert d["moment_residuals"] <= 1e-6
        assert d["boundary_return"] <= BOUNDARY_TOL
        assert d["terminal_state"] <= TERMINAL_TOL
        assert d["propagation_oracle"] <= ORACLE_TOL

    def test_backoff_walks_past_synthesis_accuracy_errors(self):
        # at N = 8 synthesize's closed-form norms miss their quadrature
        # check; the run backs off instead of giving up
        basis = make_basis(0.3, 8)
        up = cost_upper(0.3, resolve_u0("poly:x(1-x)", basis), 0.05, 8)
        assert up.n_used < 8
        assert up.diagnostics["boundary_return"] <= BOUNDARY_TOL

    def test_exhausted_backoff_lists_every_n_tried(self):
        with pytest.raises(AccuracyError) as err:
            cost_upper(0.9, unit_moment(make_basis(0.9, 8), 1), 0.02, 8)
        for n in range(8, 3, -1):
            assert f"N={n}:" in str(err.value)

    def test_mode_count_below_minimum(self):
        basis = make_basis(0.5, 2)
        with pytest.raises(UsageError, match="at least 4 modes"):
            cost_upper(0.5, unit_moment(basis, 1), 1.0, 2)


class TestCostLower:
    def test_zero_initial_state(self):
        basis = make_basis(0.5, 6)
        zero = MomentVector(alpha=0.5, coefficients=np.zeros(6),
                            basis_id=basis.basis_id)
        assert cost_lower(0.5, zero, 1.0) == 0.0

    def test_laplace_single_mode_closed_form(self):
        # e^{-pi^2} (1 - e^{-2 pi^2})^{-1/2}
        basis = make_basis(0.0, 4)
        lo = cost_lower(0.0, unit_moment(basis, 1), 1.0)
        expect = math.exp(-math.pi**2) / math.sqrt(1.0 - math.exp(-2.0 * math.pi**2))
        assert lo == pytest.approx(expect, rel=1e-12)

    def test_monotone_in_support(self):
        basis = make_basis(0.5, 8)
        mu = project(basis, lambda x: x * (1.0 - x))
        c = mu.coefficients
        partial = MomentVector(alpha=0.5, coefficients=c[:4], basis_id="x")
        full = MomentVector(alpha=0.5, coefficients=c, basis_id="y")
        assert cost_lower(0.5, full, 1.0) >= cost_lower(0.5, partial, 1.0)

    def test_available_near_alpha_one(self):
        # no Gram system on the lower path
        basis = make_basis(0.99, 6)
        mu = project(basis, lambda x: x * (1.0 - x))
        val = cost_lower(0.99, mu, 1.0)
        assert np.isfinite(val) and val > 0.0

    @pytest.mark.parametrize("T", [math.inf, 0.0, math.nan])
    def test_horizon_must_be_finite_and_positive(self, T):
        with pytest.raises(DomainError, match="horizon must be finite and positive"):
            cost_lower(0.5, unit_moment(make_basis(0.5, 4), 1), T)

    @pytest.mark.parametrize("T", [1e-20, 1e-15, 1e-10, 1.0])
    def test_small_horizons_stay_below_exact_bound(self, T):
        # 1 - e^{-2 lambda T} cancels as lambda T -> 0: at alpha 0.5 the
        # bound read 0.22% above its exact value at T = 1e-15, and at
        # T = 1e-20 zero coefficients gave 0/0. The float64 formula rounds
        # about nine times by at most half an ulp each: hence 8 ulps of margin.
        for alpha in (0.0, 0.5, 0.9):
            basis = make_basis(alpha, 4)
            states = (unit_moment(basis, 1),
                      MomentVector(alpha=alpha, coefficients=np.array([0.3, -0.5, 0.7, 0.1]),
                                   basis_id=basis.basis_id))
            for mu0 in states:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    lo = cost_lower(alpha, mu0, T)
                with mp.workdps(40):
                    exact = max(
                        abs(mp.mpf(c)) * mp.exp(-mp.mpf(lam) * T) * mp.sqrt(2 * mp.mpf(lam))
                        / (mp.mpf(r) * mp.sqrt(-mp.expm1(-2 * mp.mpf(lam) * T)))
                        for c, lam, r in zip(mu0.coefficients.tolist(),
                                             basis.eigenvalues.tolist(),
                                             basis.neumann_traces.tolist()))
                    assert math.isfinite(lo)
                    assert lo <= exact * (1 + 8 * np.finfo(float).eps), (alpha, T, mu0)

    def test_horizon_near_float_max_warns_nothing(self):
        # 2 lambda T overflows; e^{-lambda T} = 0 is the value, and so is the bound
        mu0 = unit_moment(make_basis(0.5, 6), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cost_lower(0.5, mu0, 1e308) == 0.0

    def test_scaled_lower_bound_stabilizes(self):
        # (1-a) * lower approaches a positive limit as a -> 1
        vals = []
        lb = make_limit_basis(8)
        lc = lb.project(lambda x: x * (1.0 - x))
        for alpha in (0.9, 0.95, 0.99):
            basis = make_basis(alpha, 8)
            mu = project(basis, lambda x: x * (1.0 - x))
            mu = MomentVector(alpha=alpha,
                              coefficients=mu.coefficients / np.linalg.norm(mu.coefficients),
                              basis_id=basis.basis_id)
            vals.append((1.0 - alpha) * cost_lower(alpha, mu, 1.0, limit_coeffs=lc))
        assert min(vals) > 0.0
        assert max(vals) / min(vals) <= 2.0


class TestCostSweep:
    def test_certification_and_blowup_trend(self):
        report = cost_sweep([0.5, 0.7, 0.8, 0.9], "poly:x(1-x)", 1.0, 8)
        uppers = []
        for p in report.points:
            assert p.ok
            assert p.lower <= p.upper
            uppers.append(p.upper)
        # 1/(1-a) dominates on this range: upper nondecreasing
        assert all(b >= a for a, b in zip(uppers, uppers[1:]))

    def test_single_point_grid(self):
        report = cost_sweep([0.0], "mode:1", 1.0, 6)
        assert len(report.points) == 1
        assert report.product_upper_ratio == 1.0

    def test_rejects_moment_vector(self):
        basis = make_basis(0.5, 4)
        with pytest.raises(UsageError):
            cost_sweep([0.5], unit_moment(basis, 1), 1.0, 4)

    def test_exports(self, tmp_path):
        report = cost_sweep([0.0, 0.5], "mode:1", 1.0, 6)
        cpath = tmp_path / "sweep.csv"
        report.save_csv(cpath, header_comment='{"u0": "mode:1"}')
        lines = cpath.read_text().strip().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "alpha,upper,lower,product_upper,product_lower,N_used"
        assert len(lines) == 4
        import json
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["N"] == 6
        assert data["normalized"] is True
        assert len(data["rows"]) == 2


    def test_one_basis_per_alpha(self, monkeypatch):
        # cost_sweep, cost_lower and every cost_upper back-off step share
        # one build of the basis: 12 zeros per alpha, not 47
        calls = []
        zero = bessel.bessel_zero
        monkeypatch.setattr(bessel, "bessel_zero",
                            lambda *a: calls.append(a) or zero(*a))
        cost_sweep([0.1, 0.3, 0.5, 0.7, 0.9], "mode:1", 1.0, 12)
        assert len(calls) == 60


    def test_profile_lower_is_cost_lower_without_limit_coeffs(self, monkeypatch):
        def unread(self, f):
            raise AssertionError("cost_sweep projected u0 on the limit basis")

        monkeypatch.setattr(LimitBasis, "project", unread)
        alphas = [0.92, 0.97, 0.99]
        report = cost_sweep(alphas, "poly:x(1-x)", 1.0, 8)
        for alpha, point in zip(alphas, report.points):
            mu0 = resolve_u0("poly:x(1-x)", make_basis(alpha, 8))
            unit = MomentVector(alpha=alpha, basis_id=mu0.basis_id, coefficients=(
                mu0.coefficients / float(np.linalg.norm(mu0.coefficients))))
            assert point.lower == cost_lower(alpha, unit, 1.0)

    def test_certified_needs_every_point_ok_and_ordered(self):
        def report(*points):
            return CostReport(points=tuple(CostPoint(alpha=0.5, upper=up, lower=low,
                                                     n_used=None, ok=ok, message="")
                                           for up, low, ok in points),
                              u0_descr="mode:1", T=1.0, n_modes=6)

        assert report((2.0, 1.0, True), (3.0, 3.0, True)).certified
        assert not report((2.0, 1.0, True), (None, 1.0, False)).certified
        assert not report((2.0, 1.0, True), (1.0, 2.0, True)).certified


class TestOneBasisPerCall:
    @staticmethod
    def count_zeros(monkeypatch):
        calls = []
        zero = bessel.bessel_zero
        monkeypatch.setattr(bessel, "bessel_zero", lambda *a: calls.append(a) or zero(*a))
        return calls

    def test_cost_upper_backs_off_on_prefixes_of_one_basis(self, monkeypatch):
        mu0 = unit_moment(make_basis(0.0, 8), 1)
        calls = self.count_zeros(monkeypatch)
        # T = 0.02 walks N = 8 down to 4
        assert cost_upper(0.0, mu0, 0.02, 8).n_used == 4
        assert len(calls) == 8

    def test_cost_lower_builds_one_basis(self, monkeypatch):
        mu0 = unit_moment(make_basis(0.5, 6), 1)
        calls = self.count_zeros(monkeypatch)
        cost_lower(0.5, mu0, 1.0)
        assert len(calls) == 6


class TestRealHorizon:
    """The horizon goes through float at entry: a Fraction or an int gives
    the float's result, and one beyond double range is a DomainError."""

    def test_fraction_and_int_horizons(self):
        mu0 = unit_moment(make_basis(0.5, 6), 1)
        assert cost_lower(0.5, mu0, Fraction(1, 2)) == cost_lower(0.5, mu0, 0.5)
        assert cost_lower(0.5, mu0, 1) == cost_lower(0.5, mu0, 1.0)
        up, ref = cost_upper(0.5, mu0, Fraction(1, 2), 6), cost_upper(0.5, mu0, 0.5, 6)
        assert (up.value, up.n_used) == (ref.value, ref.n_used)

    def test_horizon_beyond_double_range(self):
        mu0 = unit_moment(make_basis(0.5, 6), 1)
        for call in (lambda: cost_lower(0.5, mu0, 10**400),
                     lambda: cost_upper(0.5, mu0, 10**400, 6)):
            with pytest.raises(DomainError, match="horizon must be a real number"):
                call()

    def test_messages_name_the_given_value(self):
        mu0 = unit_moment(make_basis(0.5, 4), 1)
        with pytest.raises(DomainError, match="finite and positive, got 0$"):
            cost_lower(0.5, mu0, 0)
        with pytest.raises(DomainError, match="must be positive, got -1/2$"):
            cost_upper(0.5, mu0, Fraction(-1, 2), 4)


class TestRealTol:
    """tol goes through float at entry, as the horizon does: a string or a
    Fraction gives the float's result, and a tol that is not a finite
    positive real is a DomainError before any basis is built."""

    def test_string_and_fraction_tols(self):
        basis = make_basis(0.0, 8)
        mu0 = unit_moment(basis, 1)
        # T = 0.02 backs off past oracle failures, whose trail formats tol
        ref = cost_upper(0.0, mu0, 0.02, 8)
        for tol in ("1e-6", Fraction(1, 10**6)):
            up = cost_upper(0.0, mu0, 0.02, 8, tol=tol)
            assert (up.value, up.n_used, up.diagnostics) == (ref.value, ref.n_used,
                                                             ref.diagnostics)
        assert cost_sweep([0.5], "mode:1", 1.0, 8, tol="1e-6") == cost_sweep(
            [0.5], "mode:1", 1.0, 8)
        fam = build_biortho(basis.eigenvalues, 1.0)
        assert verify(basis, fam, mu0, "1e-6") == verify(basis, fam, mu0, 1e-6)
        *_, checks = null_control(basis, fam, mu0, "1e-6")
        assert checks[0] == ("moment_residuals", checks[0][1], 1e-6)
        assert type(checks[0][2]) is float

    def test_bad_tol_before_any_basis(self, monkeypatch):
        basis = make_basis(0.5, 6)
        fam = build_biortho(basis.eigenvalues, 1.0)
        mu0 = unit_moment(basis, 1)
        calls = TestOneBasisPerCall.count_zeros(monkeypatch)
        for tol in (0.0, -1e-6, math.nan, math.inf, "x", None, 10**400):
            for call in (lambda: cost_upper(0.5, mu0, 1.0, 6, tol=tol),
                         lambda: cost_sweep([0.5], "mode:1", 1.0, 6, tol=tol),
                         lambda: null_control(basis, fam, mu0, tol),
                         lambda: verify(basis, fam, mu0, tol)):
                with pytest.raises(DomainError, match="^tol must be"):
                    call()
        assert calls == []


class TestDiagnostics:
    def test_keys_are_the_check_names(self):
        # the names verify.json and the back-off trail give the four oracles
        up = cost_upper(0.5, unit_moment(make_basis(0.5, 6), 1), 1.0, 6)
        assert list(up.diagnostics) == ["moment_residuals", "boundary_return",
                                        "terminal_state", "propagation_oracle",
                                        "gram_condition"]


class TestPinnedLimits:
    """The rule that applies a limit and two of null_control's limits,
    written out here, so that moving one fails a test."""

    @staticmethod
    def limits():
        basis = make_basis(0.5, 6)
        fam = build_biortho(basis.eigenvalues, 1.0)
        checks = null_control(basis, fam, unit_moment(basis, 1), 1e-6)[3]
        assert not cost._failures(checks)
        return {name: limit for name, _, limit in checks}

    def test_failures_fail_a_nan_reading(self):
        assert cost._failures([("oracle", math.nan, 1.0)]) == ["oracle nan > 1e+00"]
        assert cost._failures([("oracle", 1.0, 1.0)]) == []

    def test_terminal_state_limit(self):
        assert self.limits()["terminal_state"] == 1e-5

    def test_boundary_return_limit(self):
        assert self.limits()["boundary_return"] == 1e-8


class TestResolveU0:
    def test_mode_descriptor(self):
        basis = make_basis(0.5, 5)
        mu = resolve_u0("mode:3", basis)
        assert mu.coefficients[2] == 1.0

    def test_poly_descriptor(self):
        basis = make_basis(0.0, 4)
        mu = resolve_u0("poly:x(1-x)", basis)
        direct = project(basis, lambda x: x * (1.0 - x))
        assert np.allclose(mu.coefficients, direct.coefficients)

    def test_csv_descriptor(self, tmp_path):
        path = tmp_path / "u0.csv"
        xs = np.linspace(0.0, 1.0, 201)
        np.savetxt(path, np.column_stack([xs, xs * (1.0 - xs)]), delimiter=",")
        basis = make_basis(0.0, 4)
        mu = resolve_u0(f"csv:{path}", basis)
        direct = project(basis, lambda x: x * (1.0 - x))
        assert np.max(np.abs(mu.coefficients - direct.coefficients)) < 1e-3

    @pytest.mark.parametrize("xs", [np.linspace(1.0, 0.0, 41), [0.0, 0.5, 0.5, 1.0]],
                             ids=["decreasing", "repeated"])
    def test_csv_x_must_increase(self, xs, tmp_path):
        # np.interp on x listed from 1 down to 0 projected x(1-x) to zero
        xs = np.asarray(xs)
        path = tmp_path / "u0.csv"
        np.savetxt(path, np.column_stack([xs, xs * (1.0 - xs)]), delimiter=",")
        with pytest.raises(UsageError, match=re.escape(
                f"csv profile {path} needs strictly increasing x")):
            resolve_u0(f"csv:{path}", make_basis(0.5, 6))

    def test_empty_csv_is_named_without_a_warning(self, tmp_path):
        path = tmp_path / "u0.csv"
        path.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="needs rows of x,value"):
                resolve_u0(f"csv:{path}", make_basis(0.5, 6))

    def test_unknown_descriptor(self):
        basis = make_basis(0.5, 3)
        with pytest.raises(UsageError):
            resolve_u0("fourier:1", basis)
        with pytest.raises(UsageError):
            resolve_u0("poly:x^2", basis)


class TestRealAlpha:
    """Every entry point takes alpha through ``spectrum._require_alpha``: a
    string of a number gives the float's result, a value without a float
    is a DomainError."""

    NAMES = ("make_basis", "cost_upper", "cost_lower", "cost_sweep",
             "reachability_score")

    @staticmethod
    def call(name, alpha):
        mu0 = unit_moment(make_basis(0.5, 6), 1)
        return {
            "make_basis": lambda: make_basis(alpha, 6),
            "cost_upper": lambda: cost_upper(alpha, mu0, 1.0, 6).value,
            "cost_lower": lambda: cost_lower(alpha, mu0, 1.0),
            "cost_sweep": lambda: cost_sweep([alpha], "mode:1", 1.0, 6).to_rows(),
            "reachability_score":
                lambda: reachability_score(mu0, alpha, 1.0).partial_sums.tolist(),
        }[name]()

    @pytest.mark.parametrize("alpha", ["x", None])
    @pytest.mark.parametrize("name", NAMES)
    def test_non_real_alpha_is_a_domain_error(self, name, alpha):
        with pytest.raises(DomainError, match="alpha must be a real number"):
            self.call(name, alpha)

    @pytest.mark.parametrize("name", NAMES)
    def test_string_alpha_gives_the_floats_result(self, name):
        assert self.call(name, "0.5") == self.call(name, 0.5)

    def test_sweep_checks_its_grid_before_any_basis(self, monkeypatch):
        built, build = [], cost.make_basis
        monkeypatch.setattr(cost, "make_basis", lambda *a: built.append(a) or build(*a))
        with pytest.raises(DomainError, match=r"alpha must lie in \[0, 1\), got 1.0"):
            cost_sweep([0.5, 0.9, 1.0], "mode:1", 1.0, 12)
        assert built == []


class TestStateAlphaMismatch:
    @pytest.mark.parametrize("bound", ["upper", "lower"])
    def test_state_projected_at_other_alpha_is_rejected(self, bound):
        mu0 = unit_moment(make_basis(0.3, 6), 1)
        with pytest.raises(UsageError, match="alpha"):
            if bound == "upper":
                cost_upper(0.5, mu0, 1.0, 6)
            else:
                cost_lower(0.5, mu0, 1.0)
