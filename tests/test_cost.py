import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from degctrl import bessel
from degctrl.biortho import build_biortho, eval_sigma
from degctrl.cost import (BOUNDARY_TOL, ORACLE_TOL, TERMINAL_TOL, cost_lower,
                          cost_sweep, cost_upper, resolve_u0)
from degctrl.errors import AccuracyError, DomainError, UsageError
from degctrl.quadrature import panel_rule
from degctrl.spectrum import (MomentVector, make_basis, make_limit_basis,
                              project, unit_moment)


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
        make_basis(0.99, 1)
        calls = []
        zero = bessel.bessel_zero
        monkeypatch.setattr(bessel, "bessel_zero",
                            lambda *a: calls.append(a) or zero(*a))
        cost_sweep([0.1, 0.3, 0.5, 0.7, 0.9], "mode:1", 1.0, 12)
        assert len(calls) == 60


class TestDiagnostics:
    def test_keys_are_the_check_names(self):
        # the names verify.json and the back-off trail give the four oracles
        up = cost_upper(0.5, unit_moment(make_basis(0.5, 6), 1), 1.0, 6)
        assert list(up.diagnostics) == ["moment_residuals", "boundary_return",
                                        "terminal_state", "propagation_oracle",
                                        "gram_condition"]


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

    def test_unknown_descriptor(self):
        basis = make_basis(0.5, 3)
        with pytest.raises(UsageError):
            resolve_u0("fourier:1", basis)
        with pytest.raises(UsageError):
            resolve_u0("poly:x^2", basis)


class TestStateAlphaMismatch:
    @pytest.mark.parametrize("bound", ["upper", "lower"])
    def test_state_projected_at_other_alpha_is_rejected(self, bound):
        mu0 = unit_moment(make_basis(0.3, 6), 1)
        with pytest.raises(UsageError, match="alpha"):
            if bound == "upper":
                cost_upper(0.5, mu0, 1.0, 6)
            else:
                cost_lower(0.5, mu0, 1.0)
