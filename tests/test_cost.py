import math

import numpy as np
import pytest

from degctrl import bessel
from degctrl.biortho import build_biortho, eval_sigma
from degctrl.cost import (cost_global, cost_lower, cost_sweep, cost_upper,
                          resolve_u0)
from degctrl.errors import UsageError
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
        assert up.diagnostics["moment_residual_max"] < 1e-6


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
        jpath = tmp_path / "sweep.json"
        report.save_json(jpath)
        import json
        data = json.loads(jpath.read_text())
        assert data["N"] == 6
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


class TestCostGlobal:
    def test_dominates_each_test_profile(self):
        val = cost_global(0.5, 1.0, 6)
        basis = make_basis(0.5, 6)
        mu = unit_moment(basis, 1)
        assert val >= cost_upper(0.5, mu, 1.0, 6).value
        assert np.isfinite(val) and val > 0.0


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
