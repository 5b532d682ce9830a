import hashlib
import math
import warnings

import numpy as np
import pytest

from degctrl.biortho import build_biortho, eval_sigma
from degctrl.control import (moment_residual, reachability_score, synthesize)
from degctrl.cost import resolve_u0
from degctrl.errors import DomainError, TargetStiffnessError, UsageError
from degctrl.quadrature import panel_rule
from degctrl.simulate import evolve
from degctrl.spectrum import MomentVector, make_basis, project, unit_moment

from conftest import eval_g


def zero_target(basis):
    return MomentVector(alpha=basis.alpha, coefficients=np.zeros(basis.n_modes),
                        basis_id=basis.basis_id)


@pytest.fixture(scope="module")
def laplace_setup():
    basis = make_basis(0.0, 6)
    fam = build_biortho(basis.eigenvalues, 1.0)
    return basis, fam


class TestSynthesize:
    def test_single_mode_coefficients(self, laplace_setup):
        # d_1 = lambda_1 / r_1 = pi^2 / (sqrt(2) pi) = pi / sqrt(2)
        basis, fam = laplace_setup
        sig = synthesize(basis, fam, unit_moment(basis, 1), zero_target(basis))
        assert sig.d[0] == pytest.approx(math.pi / math.sqrt(2.0), rel=1e-13)
        assert np.all(sig.d[1:] == 0.0)

    def test_zero_data_zero_control(self, laplace_setup):
        basis, fam = laplace_setup
        sig = synthesize(basis, fam, zero_target(basis), zero_target(basis))
        assert sig.norms["g_l2"] == 0.0
        assert sig.norms["G_l2"] == 0.0
        assert sig.norms["G_h1"] == 0.0

    def test_endpoints(self):
        for alpha in (0.0, 0.5, 0.8):
            basis = make_basis(alpha, 8)
            fam = build_biortho(basis.eigenvalues, 1.0)
            mu0 = project(basis, lambda x: x * (1.0 - x))
            sig = synthesize(basis, fam, mu0, zero_target(basis))
            assert sig.eval_G(0.0) == 0.0
            assert abs(sig.terminal_value) < 1e-8

    def test_moment_replay_undamped(self, laplace_setup):
        # r_1 int G e^{lambda_1 t} dt = -mu0_1 quadratured in undamped form.
        # Only the lowest active mode admits this check in double precision:
        # against mode m the integral amplifies family residuals by
        # e^{(lambda_m - lambda_n) T} over every active sigma_n, so higher
        # modes are covered by the damped replay in test_moment_residual.
        basis, fam = laplace_setup
        mu0 = unit_moment(basis, 1)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        t, w = panel_rule(0.0, 1.0, 24, 32)
        lam = basis.eigenvalues[0]
        val = basis.neumann_traces[0] * np.dot(w, sig.eval_G(t) * np.exp(lam * t))
        assert val == pytest.approx(-1.0, abs=1e-6)

    def test_linearity(self, laplace_setup):
        basis, fam = laplace_setup
        mu0 = project(basis, lambda x: x * (1.0 - x))
        muT = zero_target(basis)
        sig1 = synthesize(basis, fam, mu0, muT)
        # power-of-two scale commutes exactly with every float multiply
        mu0_scaled = MomentVector(alpha=0.0, coefficients=2.0 * mu0.coefficients,
                                  basis_id=basis.basis_id)
        sig2 = synthesize(basis, fam, mu0_scaled, muT)
        assert np.array_equal(sig2.d, 2.0 * sig1.d)
        assert np.array_equal(sig2.weights, 2.0 * sig1.weights)
        assert sig2.norms["G_h1"] == pytest.approx(2.0 * sig1.norms["G_h1"], rel=1e-14)
        # general scalars agree to rounding
        mu0_gen = MomentVector(alpha=0.0, coefficients=3.5 * mu0.coefficients,
                               basis_id=basis.basis_id)
        sig3 = synthesize(basis, fam, mu0_gen, muT)
        assert np.allclose(sig3.d, 3.5 * sig1.d, rtol=1e-14, atol=1e-300)

    def test_norm_quadrature_consistency(self, laplace_setup):
        basis, fam = laplace_setup
        mu0 = unit_moment(basis, 1)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        assert sig.norm_check_rel < 1e-6
        t, w = panel_rule(0.0, 1.0, 16, 48)
        ng = math.sqrt(np.dot(w, eval_g(sig, t) ** 2))
        nG = math.sqrt(np.dot(w, sig.eval_G(t) ** 2))
        assert ng == pytest.approx(sig.norms["g_l2"], rel=1e-6)
        assert nG == pytest.approx(sig.norms["G_l2"], rel=1e-6)
        assert sig.norms["G_h1"] == pytest.approx(math.hypot(ng, nG), rel=1e-6)

    def test_norm_check_at_long_horizon(self):
        # N = 12 at T = 2: a uniform rule of 8 panels of 64 nodes reads a
        # norm deviation of 1.7e-5 relative here; the graded rule 2.5e-9
        basis = make_basis(0.05, 12)
        fam = build_biortho(basis.eigenvalues, 2.0)
        sig = synthesize(basis, fam, unit_moment(basis, 1), zero_target(basis))
        assert sig.norm_check_rel < 1e-6

    def test_g_is_sigma_combination(self, laplace_setup):
        basis, fam = laplace_setup
        mu0 = project(basis, lambda x: x * (1.0 - x))
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        ts = np.linspace(0.0, 1.0, 7)
        direct = sum(sig.d[m - 1] * eval_sigma(fam, m, ts) for m in range(1, 7))
        assert np.allclose(eval_g(sig, ts), direct, atol=1e-12)

    def test_target_stiffness_error(self):
        basis = make_basis(0.0, 10)
        fam = build_biortho(basis.eigenvalues, 1.0)
        with pytest.raises(TargetStiffnessError) as err:
            synthesize(basis, fam, unit_moment(basis, 1), unit_moment(basis, 10))
        assert err.value.mode == 10

    def test_mismatched_inputs(self, laplace_setup):
        basis, fam = laplace_setup
        other = make_basis(0.0, 4)
        with pytest.raises(UsageError):
            synthesize(basis, fam, unit_moment(other, 1), zero_target(basis))
        wrong_alpha = MomentVector(alpha=0.3, coefficients=np.zeros(6),
                                   basis_id="x")
        with pytest.raises(UsageError):
            synthesize(basis, fam, wrong_alpha, zero_target(basis))

    def test_family_of_other_exponents(self, laplace_setup):
        basis, _ = laplace_setup
        fam = build_biortho(make_basis(0.5, 6).eigenvalues, 1.0)
        with pytest.raises(UsageError, match="exponents do not match"):
            synthesize(basis, fam, unit_moment(basis, 1), zero_target(basis))


class TestMomentResidual:
    def test_controlled_modes_below_tol(self):
        rng = np.random.default_rng(7)
        for alpha in (0.0, 0.5, 0.8):
            basis = make_basis(alpha, 8)
            fam = build_biortho(basis.eigenvalues, 1.0)
            c = rng.standard_normal(8)
            mu0 = MomentVector(alpha=alpha, coefficients=c / np.linalg.norm(c),
                               basis_id=basis.basis_id)
            sig = synthesize(basis, fam, mu0, zero_target(basis))
            res = moment_residual(basis, sig, mu0, zero_target(basis))
            assert np.max(np.abs(res)) < 1e-6

    def test_leakage_decreases_with_n(self):
        # same u0 profile, N = 6 vs N = 10; tail modes N+1..N+5
        leaks = {}
        for n in (6, 10):
            basis = make_basis(0.5, n)
            fam = build_biortho(basis.eigenvalues, 1.0)
            mu0 = project(basis, lambda x: x * (1.0 - x))
            sig = synthesize(basis, fam, mu0, zero_target(basis))
            res = moment_residual(basis, sig, mu0, zero_target(basis), n_extra=5)
            leaks[n] = np.max(np.abs(res[n:]))
        assert leaks[10] < leaks[6]

    def test_free_decay_residual(self, laplace_setup):
        basis, fam = laplace_setup
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        res = moment_residual(basis, sig, unit_moment(basis, 1), zero)
        assert res[0] == pytest.approx(math.exp(-math.pi**2), rel=1e-12)

    def test_moments_match_quadrature(self, laplace_setup):
        # three exponents beyond the family's; 64 panels keep lambda h near 12
        basis, fam = laplace_setup
        sig = synthesize(basis, fam, project(basis, lambda x: x * (1.0 - x)),
                         zero_target(basis))
        lam = make_basis(0.0, 9).eigenvalues
        t, w = panel_rule(0.0, 1.0, 64, 32)
        quad = [np.dot(w, sig.eval_G(t) * np.exp(lk * (t - 1.0))) for lk in lam]
        assert np.allclose(sig.moments(lam), quad, rtol=1e-12, atol=1e-16)

    def test_mode_count_mismatch(self, laplace_setup):
        basis, fam = laplace_setup
        zero = zero_target(basis)
        sig = synthesize(basis, fam, unit_moment(basis, 1), zero)
        wide = make_basis(0.0, 8)
        for args in ((wide, sig, unit_moment(wide, 1), zero_target(wide)),
                     (basis, sig, unit_moment(wide, 1), zero)):
            with pytest.raises(UsageError, match="share the mode count"):
                moment_residual(*args)

    def test_negative_extra_modes(self, laplace_setup):
        basis, fam = laplace_setup
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        with pytest.raises(UsageError, match="n_extra must be nonnegative"):
            moment_residual(basis, sig, zero, zero, n_extra=-1)


class TestReachability:
    def test_zero_target(self, laplace_setup):
        basis, _ = laplace_setup
        score = reachability_score(zero_target(basis), 0.0, K=1.0)
        assert score.verdict == "finitely-supported"
        assert np.all(score.partial_sums == 0.0)

    def test_single_mode_target(self, laplace_setup):
        basis, _ = laplace_setup
        score = reachability_score(unit_moment(basis, 2), 0.0, K=1.0)
        assert score.verdict == "finitely-supported"
        kappa = 1.0
        assert score.partial_sums[-1] == pytest.approx(
            2.0**1.5 * math.exp(2.0 * 1.0 * kappa * math.pi), rel=1e-12)

    def test_geometric_decay_passes(self, laplace_setup):
        basis, _ = laplace_setup
        k = 0.8
        kappa = 1.0
        coeffs = np.exp(-2.0 * k * kappa * np.pi * np.arange(1, 7))
        mu = MomentVector(alpha=0.0, coefficients=coeffs, basis_id=basis.basis_id)
        assert reachability_score(mu, 0.0, K=k).verdict == "geometric-decay-pass"

    def test_equal_tail_terms_fail(self):
        # tail terms equal to the bit: every ratio reads exactly 1.0, which
        # is no decay; each coefficient is nudged by ulps until its term,
        # computed as reachability_score computes it, matches term 3's
        m = np.arange(1, 7, dtype=float)
        terms = lambda mu: m**1.5 * mu * np.exp(0.3 * 0.75 * np.pi * m)   # K 0.3, kappa 0.75
        mu = 1.0 / (m**1.5 * np.exp(0.3 * 0.75 * np.pi * m))
        for i in range(3, 6):
            for _ in range(8):
                t = terms(mu)
                if t[i] != t[2]:
                    mu[i] = np.nextafter(mu[i], 0.0 if t[i] > t[2] else 1.0)
        assert np.all(terms(mu)[2:] == terms(mu)[2])
        target = MomentVector(alpha=0.5, coefficients=mu, basis_id="alpha=0.5;N=6")
        assert reachability_score(target, 0.5, K=0.3).verdict == "fail"

    def test_flat_target_fails(self, laplace_setup):
        basis, _ = laplace_setup
        mu = MomentVector(alpha=0.0, coefficients=np.ones(6),
                          basis_id=basis.basis_id)
        assert reachability_score(mu, 0.0, K=0.5).verdict == "fail"

    def test_requires_positive_k(self, laplace_setup):
        basis, _ = laplace_setup
        with pytest.raises(UsageError):
            reachability_score(zero_target(basis), 0.0, K=0.0)

    @pytest.mark.parametrize("K", [math.inf, math.nan])
    def test_requires_finite_k(self, laplace_setup, K):
        # an infinite K turns every partial sum past the first into NaN
        basis, _ = laplace_setup
        with pytest.raises(UsageError, match="K must be finite and positive"):
            reachability_score(unit_moment(basis, 2), 0.0, K=K)


    def test_k_goes_through_float(self):
        mu = unit_moment(make_basis(0.5, 6), 2)
        assert (reachability_score(mu, 0.5, K="1").partial_sums.tolist()
                == reachability_score(mu, 0.5, K=1.0).partial_sums.tolist())
        with pytest.raises(DomainError, match="K must be a real number, got 'x'"):
            reachability_score(mu, 0.5, K="x")

    @pytest.mark.parametrize("alpha", [2.0, math.nan, 1.0, -0.5])
    def test_requires_alpha_in_domain(self, alpha):
        # alpha 2 divided by zero in the exponents; NaN scored [0, nan, nan] as a pass
        with pytest.raises(DomainError, match=r"alpha must lie in \[0, 1\)"):
            reachability_score(unit_moment(make_basis(0.5, 6), 2), alpha, K=1.0)


class TestReachabilityRange:
    """Large finite K: a term or partial sum beyond double range is a named
    failure, a zero coefficient adds exactly 0, and nothing warns."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def target(basis, coefficients):
        c = np.zeros(basis.n_modes)
        c[:len(coefficients)] = coefficients
        return MomentVector(alpha=basis.alpha, coefficients=c, basis_id=basis.basis_id)

    def test_overflowing_term_names_mode_and_k(self):
        basis = make_basis(0.5, 6)
        with pytest.raises(TargetStiffnessError, match="term 2 .* K = 1000") as err:
            reachability_score(unit_moment(basis, 2), 0.5, K=1000.0)
        assert err.value.mode == 2

    def test_overflowing_bump_target(self):
        basis = make_basis(0.5, 6)
        with pytest.raises(TargetStiffnessError, match="K = 300"):
            reachability_score(project(basis, lambda x: x * (1.0 - x)), 0.5, K=300.0)

    def test_zero_coefficients_add_exactly_zero(self, laplace_setup):
        # e^{K pi m} overflows from m = 1 on, but 1e-300 e^{K pi} does not
        basis, _ = laplace_setup
        K = 230.0
        score = reachability_score(self.target(basis, [1e-300]), 0.0, K=K)
        assert score.verdict == "finitely-supported"
        assert np.all(score.partial_sums == score.partial_sums[0])
        assert score.partial_sums[0] == pytest.approx(
            math.exp(math.log(1e-300) + K * math.pi), rel=1e-12)

    def test_overflowing_partial_sum_names_mode(self, laplace_setup):
        # two finite terms of about 1e308 each; their sum is not finite
        basis, _ = laplace_setup
        mu = [1e308 / math.exp(math.pi), 1e308 / (2.0**1.5 * math.exp(2.0 * math.pi))]
        with pytest.raises(TargetStiffnessError, match="partial sum 2") as err:
            reachability_score(self.target(basis, mu), 0.0, K=1.0)
        assert err.value.mode == 2

    def test_steep_tail_fails_without_warning(self, laplace_setup):
        # term 4 over term 3 exceeds double range: an infinite ratio fails
        basis, _ = laplace_setup
        mu = MomentVector(alpha=0.0, coefficients=np.array([1, 1, 1e-308, 1, 1, 1.0]),
                          basis_id=basis.basis_id)
        assert reachability_score(mu, 0.0, K=1.0).verdict == "fail"

    def test_finite_scores_keep_their_bits(self):
        basis = make_basis(0.5, 6)
        muT = project(basis, lambda x: x * (1.0 - x))
        m = np.arange(1, 7, dtype=float)
        kappa = 0.75
        terms = m**1.5 * np.abs(muT.coefficients) * np.exp(0.5 * kappa * np.pi * m)
        score = reachability_score(muT, 0.5, K=0.5)
        assert np.array_equal(score.partial_sums, np.cumsum(terms))


class TestExports:
    def test_json_and_csv(self, tmp_path, laplace_setup):
        basis, fam = laplace_setup
        sig = synthesize(basis, fam, unit_moment(basis, 1), zero_target(basis))
        jpath = tmp_path / "control.json"
        sig.save_json(jpath)
        import json
        data = json.loads(jpath.read_text())
        assert data["T"] == 1.0
        assert len(data["d"]) == 6
        cpath = tmp_path / "control.csv"
        sig.save_csv(cpath, samples=11)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "t,g,G"
        assert len(lines) == 12
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0
        assert abs(float(last[2])) < 1e-8


#: (alpha, N, T, u0) of the pinned control chain, each steered to rest
CHAIN_GRID = [(alpha, n, T, u0) for alpha in (0.0, 0.5, 0.9) for n in (6, 11)
              for T in (0.5, 1.0) for u0 in ("mode:1", "poly:x(1-x)")]
#: sha256 of chain_bits over CHAIN_GRID, then the run to mode 2 at alpha 0.5,
#: N = 6, T = 1. Each family of the grid reads a 60-digit residual of at
#: most 2.6e-12 at N = 6 and 1.7e-7 at N = 11 (mpmath, test_biortho.py)
CHAIN_SHA256 = "f5024849adfa75a414c8da195c73695470038a0e5a7cfae7b90677121f76859f"
#: the same without ``norm_check_rel``: the closed forms' bits alone, which a
#: change of the norm check's quadrature rule leaves as they are
CLOSED_FORM_SHA256 = "29d3273be198d47a2b5891c930e0647a8806737fe3cc706ada4440c567fa1088"


def chain_bits(alpha, n, T, u0, target=None, norm_check=True) -> bytes:
    """The bits of synthesize, moment_residual and evolve on one run."""
    basis = make_basis(alpha, n)
    fam = build_biortho(basis.eigenvalues, T)
    mu0 = resolve_u0(u0, basis)
    muT = zero_target(basis) if target is None else unit_moment(basis, target)
    sig = synthesize(basis, fam, mu0, muT)
    traj = evolve(basis, mu0, sig)
    scalars = [*(sig.norms[k] for k in ("g_l2", "G_l2", "G_h1")),
               *[sig.norm_check_rel][:norm_check], *sig.affine, traj.oracle_deviation]
    parts = (sig.weights, np.array(scalars), moment_residual(basis, sig, mu0, muT),
             moment_residual(basis, sig, mu0, muT, n_extra=5), traj.v, traj.G_trace,
             traj.u_coeffs)
    return b"".join(np.ascontiguousarray(p, dtype=float).tobytes() for p in parts)


class TestPinnedBits:
    """The control chain recorded bit for bit; a change that moves one bit
    fails here. It catches, for one, a single rounding moved inside
    ``biortho._affine_moments``: ``b * (T - i1) / lam`` in place of
    ``b * (T / lam - i1 / lam)``."""

    @staticmethod
    def digest(norm_check):
        digest = hashlib.sha256()
        for case in CHAIN_GRID:
            digest.update(chain_bits(*case, norm_check=norm_check))
        digest.update(chain_bits(0.5, 6, 1.0, "mode:1", target=2, norm_check=norm_check))
        return digest.hexdigest()

    def test_chain_digest(self):
        assert self.digest(norm_check=True) == CHAIN_SHA256

    def test_closed_form_digest(self):
        assert self.digest(norm_check=False) == CLOSED_FORM_SHA256
