import json
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from degctrl import biortho
from degctrl.biortho import (DEFAULT_TOL, _solve_spd, bound_profile,
                             build_biortho, eval_sigma, exponential_gram)
from degctrl.errors import (AccuracyError, ConditioningError, DomainError,
                            UsageError)
from degctrl.quadrature import panel_rule
from degctrl.spectrum import make_basis

from conftest import family_bits

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

    def test_prefix_grams_are_leading_blocks(self):
        # the Gram of a prefix is the full Gram's leading block bit for bit
        lams_full = np.concatenate([[0.0], make_basis(0.5, 16).eigenvalues])
        G = exponential_gram(lams_full, 0.7)
        for n in range(1, 17):
            prefix = exponential_gram(lams_full[:n + 1], 0.7)
            assert np.array_equal(prefix, G[:n + 1, :n + 1])


class TestBuild:
    def test_residuals_below_tol(self):
        for alpha in (0.0, 0.3, 0.5, 0.7, 0.9):
            fam = build_biortho(make_basis(alpha, 10).eigenvalues, 1.0)
            assert fam.residual_max < 1e-6

    def test_zero_mean(self):
        for alpha in (0.0, 0.5, 0.9):
            fam = build_biortho(make_basis(alpha, 10).eigenvalues, 1.0)
            assert np.max(np.abs(fam.zero_mean_values)) < 1e-8

    def test_caller_exponents_are_not_kept(self):
        # a family built from a float64 array must not alias it: writing
        # the caller's array afterwards moves neither lambdas nor zero means
        lam = make_basis(0.5, 6).eigenvalues.copy()
        fam = build_biortho(lam, 1.0)
        zero_means = fam.zero_mean_values.copy()
        lam[0] = 99.0
        assert fam.lambdas[0] == fam.lambdas_full[1]
        assert np.array_equal(fam.zero_mean_values, zero_means)

    def test_family_arrays_are_read_only(self):
        # a frozen family's certificate must keep covering its coefficients
        fam = build_biortho(make_basis(0.5, 6).eigenvalues, 1.0)
        for arr in (fam.lambdas, fam.lambdas_full, fam.coeffs_reflected,
                    fam.residual, fam.gram):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 99.0

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
            norm = fam.sigma_tilde_norm(n) * np.exp(-fam.lambdas[n - 1] * fam.T)
            assert direct == pytest.approx(norm ** 2, rel=1e-8)

    def test_validation(self):
        with pytest.raises(DomainError):
            build_biortho(np.array([2.0, 1.0]), 1.0)
        with pytest.raises(DomainError):
            build_biortho(np.array([-1.0, 2.0]), 1.0)
        with pytest.raises(DomainError):
            build_biortho(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            build_biortho(np.array([1.0, 2.0]), np.inf)
        for tol in (np.nan, -1.0, 0.0, np.inf):
            with pytest.raises(DomainError):
                build_biortho(np.array([1.0, 2.0]), 1.0, tol=tol)

    @pytest.mark.parametrize("lam", [[1.0, np.nan, 3.0], [1.0, np.inf],
                                     [np.nan, 2.0], [np.inf]],
                             ids=["nan_inside", "inf_last", "nan_first", "inf_only"])
    def test_nonfinite_exponents(self, lam):
        with pytest.raises(DomainError, match="exponents must be finite"):
            build_biortho(np.array(lam), 1.0)

    def test_conditioning_error_names_admissible_n(self):
        lam = make_basis(0.0, 16).eigenvalues
        with pytest.raises(ConditioningError) as err:
            build_biortho(lam, 1.0)
        assert err.value.condition > 1e14

    def test_conditioning_error_is_an_accuracy_error(self):
        assert issubclass(ConditioningError, AccuracyError)

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0])
    def test_condition_gate_rejects_only_uncertifiable_families(self, T):
        # the gate is an early reject: each family it rejects fails the
        # certificate too, recomputed here past the gate
        rejected = 0
        for alpha in (0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99):
            lam = make_basis(alpha, 16).eigenvalues
            for n in range(8, 17):
                try:
                    build_biortho(lam[:n], T)
                    continue
                except ConditioningError:
                    rejected += 1
                except AccuracyError:
                    continue
                lams_full = np.concatenate([[0.0], lam[:n]])
                B = np.eye(n + 1, n, k=-1)
                A = _solve_spd(exponential_gram(lams_full, T), B)
                resid = long_double_residual(lams_full, T, A)
                assert np.max(np.abs(resid)) > DEFAULT_TOL, (alpha, n)
        assert rejected > 0

    def test_accuracy_error_on_unreachable_tol(self):
        with pytest.raises(AccuracyError):
            build_biortho(LAPLACE_LAMBDAS, 1.0, tol=1e-18)

    def test_singular_gram_raises_accuracy_error(self):
        G = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([[1.0], [1.0]])
        with pytest.raises(AccuracyError, match="not positive definite"):
            _solve_spd(G, b)

    def test_json_export(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:4], 1.0)
        data = json.loads(json.dumps(fam.to_json_dict()))
        assert data["T"] == 1.0
        assert len(data["exponents"]) == 5
        assert data["residual_max"] < 1e-6


def masked_exponential_gram(lambdas_full, T):
    """exponential_gram as a masked gather and scatter of its nonzero sums."""
    L = lambdas_full[:, None] + lambdas_full[None, :]
    out = np.full_like(L, T)
    nz = L != 0.0
    out[nz] = (1.0 - np.exp(-L[nz] * T)) / L[nz]
    return out


def long_double_residual(lams_full, T, A):
    """The reflected residual G A - B with G the masked closed form, both in
    long double, as a float (N, N+1) array."""
    n = len(lams_full) - 1
    M = masked_exponential_gram(np.asarray(lams_full, dtype=np.longdouble), T)
    return (M @ A.astype(np.longdouble)).astype(float).T - np.eye(n + 1, n, k=-1).T


def matmul_solve_spd(G, B):
    """_solve_spd with its long-double refinement residual formed by ``@``."""
    d = 1.0 / np.sqrt(np.diag(G))
    Gs = G * d[:, None] * d[None, :]
    Bs = B * d[:, None]
    L = np.linalg.cholesky(Gs)
    X = np.linalg.solve(L.T, np.linalg.solve(L, Bs))
    R = (Bs.astype(np.longdouble)
         - Gs.astype(np.longdouble) @ X.astype(np.longdouble)).astype(float)
    X = X + np.linalg.solve(L.T, np.linalg.solve(L, R))
    return X * d[:, None]


def certificate_grid():
    """(alpha, N, exponents 0, lambda_1..lambda_N) on 12 alphas and N = 8..16."""
    for alpha in np.linspace(0.0, 0.99, 12):
        lam = make_basis(float(alpha), 16).eigenvalues
        for n in range(8, 17):
            yield float(alpha), n, np.concatenate([[0.0], lam[:n]])


class TestCertificateBits:
    """Every number of the certificate path equals its plain numpy form:
    the Gram condition np.linalg.cond, the products ``@`` in long double."""

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_gram_condition_is_numpy_cond(self, T):
        gated = certified = 0
        for alpha, n, lams_full in certificate_grid():
            cond = float(np.linalg.cond(masked_exponential_gram(lams_full, T)))
            try:
                fam = build_biortho(lams_full[1:], T)
            except ConditioningError as err:
                gated += 1
                assert err.condition.hex() == cond.hex(), (alpha, n)
                continue
            except AccuracyError:
                continue
            certified += 1
            assert fam.gram_condition.hex() == cond.hex(), (alpha, n)
        assert gated and certified

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_family_and_residual_are_matmul_forms(self, T):
        # the Gram, the coefficients and the reflected residual byte for
        # byte, and the residual a rejecting certificate reports
        rejected = certified = 0
        for alpha, n, lams_full in certificate_grid():
            G = masked_exponential_gram(lams_full, T)
            if np.linalg.cond(G) > biortho.CONDITION_LIMIT:
                continue
            B = np.eye(n + 1, n, k=-1)
            A = matmul_solve_spd(G, B)
            resid = long_double_residual(lams_full, T, A)
            try:
                fam = build_biortho(lams_full[1:], T)
            except AccuracyError as err:
                rejected += 1
                worst = np.max(np.abs(resid))
                assert worst > DEFAULT_TOL, (alpha, n)
                assert str(err).startswith(f"biorthogonality residual {worst:.3e} "), (alpha, n)
                continue
            certified += 1
            for got, ref in ((fam.gram, G), (fam.coeffs_reflected, A), (fam.residual, resid)):
                assert got.tobytes() == ref.tobytes(), (alpha, n)
        assert rejected and certified


def mpmath_residual(fam):
    """max |G A - B| with G the closed form -expm1(-(lambda_j + lambda_k) T)
    / (lambda_j + lambda_k) and every sum at 60 digits, from the family's
    exponents and coefficients taken exactly."""
    with mp.workdps(60):
        lam = [mp.mpf(float(v)) for v in fam.lambdas_full]
        T = mp.mpf(fam.T)
        G = mp.matrix([[T if lj + lk == 0 else -mp.expm1(-(lj + lk) * T) / (lj + lk)
                        for lk in lam] for lj in lam])
        R = G * mp.matrix(fam.coeffs_reflected.tolist())
        n = fam.n_modes
        return float(max(abs(R[k, m] - (1 if k == m + 1 else 0))
                         for k in range(n + 1) for m in range(n)))


class TestClosedFormCertificate:
    """The certificate reads the residual against the exact Gram, so it
    bounds the family's own error at every horizon."""

    def test_certifies_n11_at_t4(self):
        fam = build_biortho(make_basis(0.0, 11).eigenvalues, 4.0)
        assert fam.residual_max < 2e-7   # 1.80e-7 at 60 digits

    @pytest.mark.parametrize("n", [8, 11, 12])
    @pytest.mark.parametrize("T", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_residual_matches_60_digits(self, alpha, T, n):
        # tol = 1 admits the N = 12 families the default tol rejects
        fam = build_biortho(make_basis(alpha, n).eigenvalues, T, tol=1.0)
        ref = mpmath_residual(fam)
        assert abs(fam.residual_max - ref) <= 1e-3 * ref, (fam.residual_max, ref)

    def test_rejects_what_exceeds_tol_at_t2(self):
        # a uniform 32 x 32 Gauss rule on [0, T] reads 9.98e-7 and admits it
        lam = make_basis(0.42912980485663865, 12).eigenvalues
        with pytest.raises(AccuracyError, match=r"residual 1\.054e-06 exceeds"):
            build_biortho(lam, 2.0)

    @pytest.mark.parametrize("T", [0.1, 1.0, 4.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.9])
    def test_long_double_gram_matches_quadrature(self, alpha, T):
        # the formula itself, against int_0^T e^{-(lambda_j + lambda_k) s} ds
        # by mpmath's tanh-sinh quadrature at 30 digits
        lams_full = np.concatenate([[0.0], make_basis(alpha, 12).eigenvalues])
        G = exponential_gram(lams_full.astype(np.longdouble), T)
        assert G.dtype == np.longdouble
        with mp.workdps(30):
            for j in range(0, 13, 3):
                for k in range(j, 13, 2):
                    c = mp.mpf(float(lams_full[j])) + mp.mpf(float(lams_full[k]))
                    # split off the boundary layer at s = 1/c
                    points = [0, T] if c * T <= 1 else [0, 1 / c, T]
                    ref = mp.quad(lambda s: mp.exp(-c * s), points)
                    assert abs(mp.mpf(str(G[j, k])) - ref) <= 1e-17 * ref, (j, k)


def count_solves(monkeypatch):
    """Count the Cholesky solves of later builds."""
    calls = []

    def counting(G, B):
        calls.append(len(G))
        return _solve_spd(G, B)

    monkeypatch.setattr(biortho, "_solve_spd", counting)
    return calls


class TestKeptFamily:
    """No family is kept between calls: each build solves afresh."""

    def test_identical_call_builds_an_equal_new_family(self, monkeypatch):
        calls = count_solves(monkeypatch)
        lam = make_basis(0.5, 8).eigenvalues
        fam = build_biortho(lam, 1.0)
        again = build_biortho(lam.copy(), 1.0, tol=DEFAULT_TOL)
        assert again is not fam
        assert family_bits(again) == family_bits(fam)
        assert calls == [9, 9]

    @pytest.mark.parametrize("change", ["exponent_bit", "T", "tol"])
    def test_changed_key_rebuilds(self, change, monkeypatch):
        calls = count_solves(monkeypatch)
        lam = make_basis(0.5, 8).eigenvalues
        fam = build_biortho(lam, 1.0)
        args = {"lambdas": lam, "T": 1.0, "tol": DEFAULT_TOL}
        if change == "exponent_bit":
            moved = lam.copy()
            moved[3] = np.nextafter(moved[3], np.inf)
            args["lambdas"] = moved
        else:
            args[change] = {"T": 1.25, "tol": 2e-6}[change]
        other = build_biortho(**args)
        assert other is not fam
        assert calls == [9, 9]
        assert (other.T, other.tol) == (args["T"], args["tol"])
        assert np.array_equal(other.lambdas, args["lambdas"])

    def test_raising_build_is_not_kept(self, monkeypatch):
        calls = count_solves(monkeypatch)
        fam = build_biortho(LAPLACE_LAMBDAS[:4], 1.0)
        for _ in range(2):
            with pytest.raises(AccuracyError):
                build_biortho(LAPLACE_LAMBDAS, 1.0, tol=1e-18)
        again = build_biortho(LAPLACE_LAMBDAS[:4], 1.0)
        assert calls == [5, 9, 9, 5]
        assert family_bits(again) == family_bits(fam)

    def test_kept_arrays_are_read_only(self):
        lam = make_basis(0.3, 6).eigenvalues
        fam = build_biortho(lam, 1.0)
        for arr in (fam.lambdas_full, fam.coeffs_reflected, fam.residual, fam.gram):
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 99.0


class TestRealArguments:
    """T and tol go through float at entry."""

    def test_fraction_and_int_arguments_build_the_float_family(self):
        lam = make_basis(0.5, 6).eigenvalues
        ref = build_biortho(lam, 0.5, tol=1e-6)
        fam = build_biortho(lam, Fraction(1, 2), tol=Fraction(1, 10**6))
        assert type(fam.T) is float and type(fam.tol) is float
        assert family_bits(fam) == family_bits(ref)
        assert family_bits(build_biortho(lam, 1)) == family_bits(build_biortho(lam, 1.0))

    @pytest.mark.parametrize("name", ["T", "tol"])
    def test_beyond_double_range_is_a_domain_error(self, name):
        args = {"T": 1.0, "tol": DEFAULT_TOL, name: 10**400}
        label = {"T": "horizon", "tol": "tol"}[name]
        with pytest.raises(DomainError, match=f"{label} must be a real number"):
            build_biortho(LAPLACE_LAMBDAS[:4], **args)

    @pytest.mark.parametrize("name", ["T", "tol"])
    def test_no_float_is_a_domain_error(self, name):
        args = {"T": 1.0, "tol": DEFAULT_TOL, name: 1j}
        with pytest.raises(DomainError, match="must be a real number, got 1j"):
            build_biortho(LAPLACE_LAMBDAS[:4], **args)


def _outcome(lams, T):
    """A family's bits, or the class and message of its rejection."""
    try:
        fam = build_biortho(lams, T)
    except AccuracyError as err:
        return type(err).__name__, str(err)
    return (fam.T, fam.coeffs_reflected.tobytes(), fam.residual.tobytes(),
            fam.gram.tobytes(), fam.gram_condition.hex())


class TestPerHorizonConstants:
    """The shift matrix is computed once per N; a ladder that returns to an
    earlier T must not see another T's bits."""

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_ladders_equal_cold_builds(self, alpha):
        lam = make_basis(alpha, 16).eigenvalues
        ladder = range(8, 17)
        cold = {}
        for T in (0.5, 2.0):
            for n in ladder:
                biortho._shift.cache_clear()
                cold[n, T] = _outcome(lam[:n], T)
        kinds = {type(v[0]) for v in cold.values()}
        assert kinds == {str, float}   # the ladder both rejects and certifies
        for T in (0.5, 2.0, 0.5):
            for given in (T, np.float64(T), np.array(T)):
                for n in ladder:
                    assert _outcome(lam[:n], given) == cold[n, T], (n, repr(given))


class TestHorizonNearFloatMax:
    def test_no_overflow_warning(self):
        lams_full = np.concatenate([[0.0], make_basis(0.5, 6).eigenvalues])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = exponential_gram(lams_full, 1e308)
            with pytest.raises(ConditioningError):
                build_biortho(lams_full[1:], 1e308)
        L = lams_full[:, None] + lams_full[None, :]
        # e^{-(lambda_j + lambda_k) T} = 0: every entry but T itself is 1/L
        assert G[0, 0] == 1e308
        assert np.array_equal(G.ravel()[1:], 1.0 / L.ravel()[1:])


class TestEvalSigma:
    def test_value_at_horizon_is_coefficient_sum(self):
        fam = build_biortho(LAPLACE_LAMBDAS[:4], 1.0)
        for n in (1, 2):
            # sigma_n(T) = sum_k c[n][k], span coefficients e^{-lambda_n T} a[n][k]
            coeff_sum = (np.exp(-fam.lambdas[n - 1] * fam.T)
                         * np.sum(fam.coeffs_reflected[:, n - 1]))
            assert eval_sigma(fam, n, fam.T) == pytest.approx(float(coeff_sum), rel=1e-12)

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

    @pytest.mark.parametrize("n", [0, -1, 7])
    def test_index_validation_of_methods(self, n):
        # N = 6: n = 0 and n = -1 would index columns from the end, n = 7 past it
        fam = build_biortho(make_basis(0.5, 6).eigenvalues, 1.0)
        with pytest.raises(UsageError):
            fam.sigma_tilde_norm(n)
        with pytest.raises(UsageError):
            fam.eval_sigma_reflected(n, 0.5)
        with pytest.raises(UsageError):
            eval_sigma(fam, n, 0.5)


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
