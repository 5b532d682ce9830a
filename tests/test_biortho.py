import json

import numpy as np
import pytest

from degctrl.biortho import (_solve_spd, bound_profile, build_biortho,
                             eval_sigma, exponential_gram)
from degctrl.errors import (AccuracyError, ConditioningError, DomainError,
                            UsageError)
from degctrl.quadrature import panel_rule
from degctrl.spectrum import make_basis

LAPLACE_LAMBDAS = (np.arange(1, 9) * np.pi) ** 2


def quad_integral(fn, T, panels=24, nodes=32):
    t, w = panel_rule(0.0, T, panels, nodes)
    return float(np.dot(w, fn(t)))


class TestGram:
    def test_single_mode_closed_form(self):
        lam = np.pi**2
        fam = build_biortho(np.array([lam]), 1.0)
        expect = np.array([
            [1.0, (1.0 - np.exp(-lam)) / lam],
            [(1.0 - np.exp(-lam)) / lam, (1.0 - np.exp(-2.0 * lam)) / (2.0 * lam)],
        ])
        assert np.allclose(fam.gram, expect, rtol=0.0, atol=1e-16)

    def test_gram_entry_at_zero_sum(self):
        G = exponential_gram(np.array([0.0, 2.0]), 0.7)
        assert G[0, 0] == 0.7

    def test_cross_gram_matches_quadrature(self):
        lam, mu, T = np.array([0.0, 2.0, 5.0]), np.array([0.0, 3.5]), 1.3
        cross = exponential_gram(lam, T, mu)
        assert cross.shape == (3, 2) and cross[0, 0] == T
        for k, lk in enumerate(lam):
            for j, mj in enumerate(mu):
                ref = quad_integral(lambda t: np.exp((lk + mj) * (t - T)), T)
                assert abs(cross[k, j] - ref) < 1e-14


class TestBuild:
    def test_residuals_below_tol(self):
        for alpha in (0.0, 0.3, 0.5, 0.7, 0.9):
            fam = build_biortho(make_basis(alpha, 10).eigenvalues, 1.0)
            assert fam.residual_max < 1e-6

    def test_zero_mean(self):
        for alpha in (0.0, 0.5, 0.9):
            fam = build_biortho(make_basis(alpha, 10).eigenvalues, 1.0)
            assert np.max(np.abs(fam.zero_mean_values)) < 1e-8

    def test_biorthogonality_by_independent_quadrature(self):
        # all pairs in the reflected (terminal-state) scale; additionally
        # the undamped integrals int sigma_n e^{lambda_m t} dt wherever the
        # functional is finite-precision representable (m <= n), where the
        # e^{(lambda_m - lambda_n) T} amplification is <= 1
        fam = build_biortho(make_basis(0.5, 8).eigenvalues, 1.0)
        T = fam.T
        for n in range(1, 9):
            for m in range(0, 9):
                lam_m = fam.lambdas_full[m]
                val = quad_integral(
                    lambda t: fam.eval_sigma_reflected(n, t) * np.exp(-lam_m * t), T)
                expect = 1.0 if m == n else 0.0
                assert abs(val - expect) < 1e-6
            for m in range(1, n + 1):
                lam_m = fam.lambdas[m - 1]
                damped = quad_integral(
                    lambda t: eval_sigma(fam, n, t) * np.exp(lam_m * (t - T)), T)
                val = damped * np.exp(lam_m * T)
                expect = 1.0 if m == n else 0.0
                assert abs(val - expect) < 1e-6

    def test_norm_identity(self):
        # ||sigma_n||^2 by quadrature equals a_nn e^{-2 lambda_n T}
        fam = build_biortho(make_basis(0.0, 5).eigenvalues, 1.0)
        for n in (1, 3):
            direct = quad_integral(lambda t: eval_sigma(fam, n, t) ** 2, fam.T)
            assert direct == pytest.approx(fam.sigma_norm(n) ** 2, rel=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_biortho(np.array([2.0, 1.0]), 1.0)
        with pytest.raises(DomainError):
            build_biortho(np.array([-1.0, 2.0]), 1.0)
        with pytest.raises(DomainError):
            build_biortho(np.array([1.0, 2.0]), 0.0)

    def test_conditioning_error_names_admissible_n(self):
        lam = make_basis(0.0, 16).eigenvalues
        with pytest.raises(ConditioningError) as err:
            build_biortho(lam, 1.0)
        assert err.value.largest_admissible_n == 12
        assert err.value.condition > 1e14

    def test_accuracy_error_on_unreachable_tol(self):
        with pytest.raises(AccuracyError):
            build_biortho(LAPLACE_LAMBDAS, 1.0, tol=1e-18)

    def test_svd_fallback_on_singular_matrix(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[1.0], [1.0]])
        x = _solve_spd(G, b)
        assert np.allclose(G @ x, b, atol=1e-12)

    def test_json_export(self, tmp_path):
        fam = build_biortho(LAPLACE_LAMBDAS[:4], 1.0)
        path = tmp_path / "biortho.json"
        fam.save_json(path)
        data = json.loads(path.read_text())
        assert data["T"] == 1.0
        assert len(data["exponents"]) == 5
        assert data["residual_max"] < 1e-6


class TestEvalSigma:
    def test_value_at_horizon_is_coefficient_sum(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:4], 1.0)
        for n in (1, 2):
            assert eval_sigma(fam, n, fam.T) == pytest.approx(
                float(np.sum(fam.span_coefficients(n))), rel=1e-12)

    def test_diagonal_replay(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:6], 1.0)
        for n in (1, 4):
            lam_n = fam.lambdas[n - 1]
            damped = quad_integral(
                lambda t: eval_sigma(fam, n, t) * np.exp(lam_n * (t - fam.T)), fam.T)
            assert damped * np.exp(lam_n * fam.T) == pytest.approx(1.0, abs=1e-6)

    def test_zero_mean_replay(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:6], 1.0)
        for n in range(1, 7):
            assert abs(quad_integral(lambda t: eval_sigma(fam, n, t), fam.T)) < 1e-8

    def test_index_validation(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:3], 1.0)
        with pytest.raises(UsageError):
            eval_sigma(fam, 4, 0.5)


class TestMinNorm:
    def test_constraint_preserving_perturbations_grow_norm(self, rng):
        # perturb tilde_sigma_n inside a larger exponential span, project
        # onto the null space of the constraint map, compare norms
        fam = build_biortho(LAPLACE_LAMBDAS[:6], 1.0)
        T = fam.T
        mids = 0.5 * (fam.lambdas[:-1] + fam.lambdas[1:])
        extra = np.concatenate([mids, [1.5 * fam.lambdas[-1]]])
        cross = np.stack([(1.0 - np.exp(-(lm + extra) * T)) / (lm + extra)
                          for lm in fam.lambdas_full])
        pert_gram = np.stack([(1.0 - np.exp(-(mi + extra) * T)) / (mi + extra)
                              for mi in extra])
        for n in (1, 3, 6):
            a = fam.coeffs_reflected[:, n - 1]
            base = fam.sigma_tilde_norm(n) ** 2
            for _ in range(8):
                q = rng.standard_normal(len(extra))
                q -= np.linalg.lstsq(cross, cross @ q, rcond=None)[0]
                perturbed = base + 2.0 * a @ (cross @ q) + q @ pert_gram @ q
                assert perturbed >= base * (1.0 - 1e-8)


class TestGapSensitivity:
    def test_condition_numbers_within_decade(self):
        conds = [build_biortho(make_basis(a, 8).eigenvalues, 1.0).gram_condition
                 for a in (0.0, 0.5, 0.9)]
        assert max(conds) / min(conds) < 10.0


class TestBoundProfile:
    def test_growth_and_fit(self):
        fam = build_biortho(LAPLACE_LAMBDAS, 1.0)
        norms_scaled = [fam.sigma_tilde_norm(n) for n in range(1, 9)]
        # ||sigma_n|| e^{lambda_n T} grows through the bulk; the last one or
        # two modes dip from finite-family edge effects
        assert all(b > a for a, b in zip(norms_scaled[:5], norms_scaled[1:6]))
        prof = bound_profile(fam)
        assert prof.K > 0.0
        assert np.isfinite(prof.B)
        assert prof.fit_rel_rms < 0.2

    def test_minimal_fit(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:3], 1.0)
        prof = bound_profile(fam)
        assert np.isfinite(prof.K) and np.isfinite(prof.log_B)

    def test_k_stable_across_horizons(self):
        k_half = bound_profile(build_biortho(LAPLACE_LAMBDAS, 0.5)).K
        k_one = bound_profile(build_biortho(LAPLACE_LAMBDAS, 1.0)).K
        assert k_half == pytest.approx(k_one, rel=0.25)

    def test_too_few_modes(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:2], 1.0)
        with pytest.raises(UsageError):
            bound_profile(fam)
