import json
import math

import numpy as np
import pytest

from degctrl import bessel
from degctrl.bessel import bessel_j, bessel_j_prime
from degctrl.errors import DomainError, UsageError
from degctrl.quadrature import panel_rule
from degctrl.spectrum import (DEFAULT_NODES, DEFAULT_PANELS, GAP_CONSECUTIVE,
                              GAP_FIRST, eval_eigenfunction,
                              gram_matrix, make_basis, make_limit_basis,
                              neumann_trace_numeric, project,
                              source_coefficient,
                              source_coefficient_quadrature,
                              trace_asymptotic_prefactor, unit_moment)

ALPHA_GRID = [0.0, 0.3, 0.5, 0.7, 0.9]


class TestMakeBasis:
    def test_laplacian_eigenvalues(self):
        basis = make_basis(0.0, 3)
        expect = (np.arange(1, 4) * np.pi) ** 2
        assert np.allclose(basis.eigenvalues, expect, rtol=1e-13)

    def test_first_trace_alpha_zero(self):
        # d/dx sqrt(2) sin(pi x) at 0 = sqrt(2) pi
        basis = make_basis(0.0, 1)
        assert basis.modes[0].neumann_trace == pytest.approx(
            math.sqrt(2.0) * math.pi, rel=1e-13)

    def test_eigenvalue_from_certified_zero(self):
        # j_{1/3,1} from the series-oracle bisection
        basis = make_basis(0.5, 1)
        assert basis.modes[0].eigenvalue == pytest.approx(
            0.75**2 * 2.9025862484169525**2, rel=1e-12)

    def test_traces_positive_and_lambda_increasing(self):
        for alpha in ALPHA_GRID:
            basis = make_basis(alpha, 8)
            assert np.all(basis.neumann_traces > 0.0)
            assert np.all(np.diff(basis.eigenvalues) > 0.0)

    def test_gap_certificate(self):
        for alpha in ALPHA_GRID + [0.99]:
            basis = make_basis(alpha, 12)
            sq = np.sqrt(basis.eigenvalues)
            assert sq[0] >= GAP_FIRST - 1e-12
            assert np.min(np.diff(sq)) >= GAP_CONSECUTIVE - 1e-12
            assert basis.gap["min_gap"] >= GAP_CONSECUTIVE - 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            make_basis(1.0, 3)
        with pytest.raises(DomainError):
            make_basis(-0.1, 3)
        with pytest.raises(DomainError):
            make_basis(0.5, 0)

    def test_json_roundtrip(self):
        basis = make_basis(0.5, 4)
        data = json.loads(json.dumps(basis.to_json_dict()))
        assert data["alpha"] == 0.5
        assert data["nu"] == pytest.approx(1.0 / 3.0)
        assert len(data["modes"]) == 4
        assert data["modes"][2]["eigenvalue"] == pytest.approx(
            basis.modes[2].eigenvalue)


class TestEigenfunctions:
    def test_alpha_zero_is_sine(self):
        basis = make_basis(0.0, 3)
        assert eval_eigenfunction(basis, 2, 0.25) == pytest.approx(
            math.sqrt(2.0), abs=1e-12)
        xs = np.linspace(0.0, 1.0, 101)
        for n in (1, 2, 3):
            expect = math.sqrt(2.0) * np.sin(n * np.pi * xs)
            assert np.max(np.abs(eval_eigenfunction(basis, n, xs) - expect)) < 1e-10

    def test_dirichlet_endpoints(self):
        for alpha in (0.0, 0.5, 0.9):
            basis = make_basis(alpha, 4)
            for n in range(1, 5):
                assert eval_eigenfunction(basis, n, 0.0) == 0.0
                assert abs(eval_eigenfunction(basis, n, 1.0)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, [0.5, np.nan], -0.1, 1.1])
    def test_outside_unit_interval(self, bad):
        with pytest.raises(DomainError):
            eval_eigenfunction(make_basis(0.5, 4), 1, bad)

    def test_frozen_value_alpha_half(self):
        # series-oracle evaluation of C x^{1/4} J_{1/3}(j x^{3/4}) at x = 1/2
        basis = make_basis(0.5, 1)
        assert eval_eigenfunction(basis, 1, 0.5) == pytest.approx(
            1.2247397520322659, abs=1e-12)

    def test_eigen_residual(self):
        # -(x^a Phi')' = lambda Phi, outer derivative by Richardson FD of
        # the analytic chain-rule first derivative
        for alpha in (0.0, 0.5, 0.8):
            basis = make_basis(alpha, 8)

            def flux(n, x):
                # x^a Phi_n'(x) via d/dx [C x^{(1-a)/2} J_nu(j x^kappa)]
                m = basis.modes[n - 1]
                j, nu, ka = m.zero, basis.nu, basis.kappa
                jarg = j * x**ka
                jv = bessel_j(nu, jarg).value
                jp = bessel_j_prime(nu, jarg)
                half = (1.0 - alpha) / 2.0
                return x**alpha * m.norm_const * (
                    half * x ** (half - 1.0) * jv
                    + x**half * jp * j * ka * x ** (ka - 1.0))

            for n in (1, 4, 8):
                lam = basis.modes[n - 1].eigenvalue
                for x in (0.05, 0.37, 0.95):
                    h = 1e-4 * x
                    d_h = (flux(n, x + h) - flux(n, x - h)) / (2 * h)
                    d_h2 = (flux(n, x + h / 2) - flux(n, x - h / 2)) / h
                    deriv = (4.0 * d_h2 - d_h) / 3.0
                    resid = abs(-deriv - lam * eval_eigenfunction(basis, n, x))
                    assert resid < 1e-6 * lam


class TestProjection:
    def test_orthonormality_of_projection(self):
        basis = make_basis(0.0, 4)
        mu = project(basis, lambda x: eval_eigenfunction(basis, 2, x))
        expect = np.zeros(4)
        expect[1] = 1.0
        assert np.max(np.abs(mu.coefficients - expect)) < 1e-10

    def test_zero_function(self):
        basis = make_basis(0.7, 5)
        mu = project(basis, lambda x: np.zeros_like(x))
        assert np.all(mu.coefficients == 0.0)

    def test_bump_profile_closed_form(self):
        # int x(1-x) sqrt(2) sin(n pi x) dx = 2 sqrt(2) (1 - (-1)^n) / (n pi)^3,
        # confirmed against independent mpmath quadrature
        basis = make_basis(0.0, 6)
        mu = project(basis, lambda x: x * (1.0 - x))
        n = np.arange(1, 7)
        expect = 2.0 * math.sqrt(2.0) * (1.0 - (-1.0) ** n) / (n * np.pi) ** 3
        assert np.max(np.abs(mu.coefficients - expect)) < 1e-13

    def test_parseval_partial_sum(self):
        for alpha in (0.0, 0.5, 0.9):
            basis = make_basis(alpha, 8)
            f = lambda x: x * (1.0 - x)
            mu = project(basis, f)
            x, w = panel_rule(0.0, 1.0, 8, 64)
            norm2 = np.dot(w, f(x) ** 2)
            assert np.sum(mu.coefficients**2) <= norm2 * (1.0 + 1e-6)

    def test_table_matches_per_mode_quadrature(self):
        # project evaluates all modes in one table; the same rule summed
        # mode by mode must give the same coefficients
        f = lambda x: x * (1.0 - x)
        for alpha in (0.0, 0.5, 0.9):
            basis = make_basis(alpha, 8)
            y, w = panel_rule(0.0, 1.0, 2 * DEFAULT_PANELS, DEFAULT_NODES)
            fx = (f(y ** (1.0 / basis.kappa)) * w
                  * y ** (1.0 / (2.0 - alpha)) / basis.kappa)
            expect = [m.norm_const
                      * np.dot(fx, bessel.bessel_j_many(basis.nu, m.zero * y))
                      for m in basis.modes]
            assert np.max(np.abs(project(basis, f).coefficients - expect)) <= 1e-15

    def test_gram_identity(self):
        for alpha in ALPHA_GRID:
            dev = np.max(np.abs(gram_matrix(make_basis(alpha, 8)) - np.eye(8)))
            assert dev < 1e-8


class TestNeumannTrace:
    def test_alpha_zero_limit(self):
        basis = make_basis(0.0, 2)
        est = neumann_trace_numeric(basis, 1, 1e-5)
        assert est == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-8)

    def test_convergence_trend_alpha_half(self):
        # deviation decays like x^{2-a}, well within the O(x^{1-a}) claim
        basis = make_basis(0.5, 2)
        r = basis.modes[0].neumann_trace
        devs = [abs(neumann_trace_numeric(basis, 1, xs) - r)
                for xs in (1e-3, 1e-4, 1e-5)]
        assert devs[1] < devs[0] * 10.0 ** -(1.0 - 0.5)
        assert devs[2] < devs[1] * 10.0 ** -(1.0 - 0.5)

    def test_asymptotic_ratio(self):
        for alpha in (0.0, 0.5, 0.9):
            basis = make_basis(alpha, 12)
            rho = trace_asymptotic_prefactor(basis)
            j = basis.zeros
            ratio = basis.neumann_traces / (rho * j ** (basis.nu + 0.5))
            assert abs(ratio[-1] - 1.0) < 0.1
            # the trend tightens with n
            assert abs(ratio[-1] - 1.0) <= abs(ratio[0] - 1.0)


class TestSourceCoefficient:
    def test_alpha_zero_closed_forms(self):
        basis = make_basis(0.0, 2)
        assert source_coefficient(basis, 1) == pytest.approx(
            math.sqrt(2.0) / math.pi, rel=1e-13)
        assert source_coefficient(basis, 2) == pytest.approx(
            math.sqrt(2.0) / (2.0 * math.pi), rel=1e-13)

    def test_quadrature_identity(self):
        for alpha in ALPHA_GRID:
            basis = make_basis(alpha, 8)
            for n in range(1, 9):
                assert abs(source_coefficient_quadrature(basis, n)
                           - source_coefficient(basis, n)) < 1e-8

    def test_positive(self):
        basis = make_basis(0.8, 6)
        assert all(source_coefficient(basis, n) > 0.0 for n in range(1, 7))


class TestLimitBasis:
    def test_gram_is_identity(self):
        lb = make_limit_basis(8)
        assert np.max(np.abs(lb.gram() - np.eye(8))) < 1e-8

    def test_projection_of_own_mode(self):
        lb = make_limit_basis(8)
        coeffs = lb.project(lambda x: lb.eval(2, x))
        expect = np.zeros(8)
        expect[1] = 1.0
        assert np.max(np.abs(coeffs - expect)) < 1e-10

    def test_alpha_to_one_continuity(self):
        # zeros j_{nu_a,n} -> j_{0,n} and projections converge with
        # monotonically shrinking differences along alpha -> 1
        lb = make_limit_basis(4)
        f = lambda x: x * (1.0 - x)
        target = lb.project(f)
        prev_zero_gap = np.inf
        prev_proj_gap = np.inf
        for alpha in (0.9, 0.99, 0.999):
            basis = make_basis(alpha, 4)
            zero_gap = np.max(np.abs(basis.zeros - lb.zeros))
            proj_gap = np.max(np.abs(project(basis, f).coefficients - target))
            assert zero_gap < prev_zero_gap
            assert proj_gap < prev_proj_gap
            prev_zero_gap, prev_proj_gap = zero_gap, proj_gap
        assert prev_proj_gap < 2e-4

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_eval_mode_index_out_of_range(self, n):
        # a bare zeros[n - 1] would wrap round to the last modes
        with pytest.raises(UsageError):
            make_limit_basis(3).eval(n, 0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, [0.5, -0.1]])
    def test_eval_outside_unit_interval(self, bad):
        # rejected before sqrt can warn about a negative argument
        with pytest.raises(DomainError):
            make_limit_basis(3).eval(1, bad)


class TestMomentVector:
    def test_unit_moment(self):
        basis = make_basis(0.5, 5)
        mu = unit_moment(basis, 3)
        assert mu.coefficients[2] == 1.0
        assert np.sum(np.abs(mu.coefficients)) == 1.0

    def test_rejects_nonfinite(self):
        basis = make_basis(0.5, 2)
        with pytest.raises(UsageError):
            unit_moment(basis, 1).__class__(
                alpha=0.5, coefficients=np.array([np.nan, 1.0]),
                basis_id=basis.basis_id)

    @pytest.mark.parametrize("n", [0, -1, 6])
    def test_unit_moment_range(self, n):
        with pytest.raises(UsageError, match="outside 1..5"):
            unit_moment(make_basis(0.5, 5), n)


class TestBasisReuse:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_prefix_equals_fresh_build(self, n, monkeypatch):
        make_basis(0.1, 1)   # displace any kept basis of alpha 0.7
        fresh = make_basis(0.7, n)
        make_basis(0.7, 12)
        calls = []
        zero = bessel.bessel_zero
        monkeypatch.setattr(bessel, "bessel_zero",
                            lambda *a: calls.append(a) or zero(*a))
        reused = make_basis(0.7, n)
        assert calls == []
        assert reused == fresh
        assert reused.gap == fresh.gap
        assert reused.basis_id == fresh.basis_id == f"alpha=0.7;N={n}"

    def test_signed_zero_alphas_stay_apart(self):
        assert make_basis(-0.0, 4).basis_id == "alpha=-0.0;N=4"
        assert make_basis(0.0, 4).basis_id == "alpha=0.0;N=4"
