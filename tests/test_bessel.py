import functools
import math

import numpy as np
import pytest
import scipy.special

from degctrl.bessel import (SERIES_CUTOFF, bessel_j, bessel_j_many,
                            bessel_j_prime, bessel_zero, gamma_fn,
                            lorch_muldoon_bracket)
from degctrl.errors import DomainError

from conftest import bessel_series_oracle, bessel_zero_oracle


@functools.lru_cache(maxsize=None)
def oracle_grid(nu):
    """200 points of [0, SERIES_CUTOFF], with 2 and the cutoff, and oracle values."""
    xs = np.union1d(np.linspace(0.0, SERIES_CUTOFF, 198), [2.0, SERIES_CUTOFF])
    return xs, [bessel_series_oracle(nu, x) for x in xs]


class TestGamma:
    def test_classical_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        # Gamma(3/2) = sqrt(pi)/2 enters the alpha = 0 trace constant
        assert gamma_fn(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)

    def test_relative_error_on_working_range(self):
        xs = np.linspace(0.5, 50.0, 397)
        for x in xs:
            exact = math.gamma(x)
            assert abs(gamma_fn(x) - exact) / exact < 1e-13

    def test_reflection_region(self):
        for x in (0.05, 0.2, 0.49):
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_large_arguments(self):
        # finite up to the float64 overflow at 171.62, inf beyond it
        for x in (150.0, 171.5):
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-12)
        for x in (172.0, 1e6, math.inf):
            assert gamma_fn(x) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-2.5)


class TestBesselJ:
    def test_half_order_zero_at_pi(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x vanishes at pi
        assert abs(bessel_j(0.5, math.pi).value) < 1e-15

    def test_value_at_origin(self):
        assert bessel_j(0.0, 0.0).value == 1.0
        assert bessel_j(0.3, 0.0).value == 0.0

    def test_frozen_series_oracle_value(self):
        # 50-term series oracle at 60 digits: J_{1/3}(1)
        assert bessel_j(1.0 / 3.0, 1.0).value == pytest.approx(
            0.73087640216944805, abs=1e-14)

    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0 / 3.0, 0.45, 0.5, 1.0])
    def test_against_oracle_and_certificate(self, nu):
        for x in [0.05, 0.7, 3.0, 9.5, 12.0, 12.5, 13.0, 20.0, 55.0, 120.0, 200.0]:
            ev = bessel_j(nu, x)
            ref = bessel_series_oracle(nu, x)
            err = abs(ev.value - ref)
            assert err < 1e-11
            # certificate covers truncation; grant rounding headroom
            assert err <= ev.est_error + 5e-13

    def test_est_error_budget(self):
        for nu in (0.0, 0.25, 0.5):
            for x in (0.5, 5.0, 12.61, 40.0, 200.0):
                assert bessel_j(nu, x).est_error <= 1e-11

    def test_method_switchover(self):
        assert bessel_j(0.2, SERIES_CUTOFF - 1e-9).method == "series"
        assert bessel_j(0.2, SERIES_CUTOFF + 1e-9).method == "asymptotic"

    def test_overlap_window_agreement(self):
        # both expansions are trustworthy on [11, 14]; compare via oracle
        for nu in (0.0, 1.0 / 3.0, 0.5):
            for x in np.linspace(11.0, 14.0, 13):
                below = bessel_series_oracle(nu, x)
                assert abs(bessel_j(nu, x).value - below) < 1e-10

    def test_vectorized_matches_scipy(self):
        xs = np.concatenate([np.linspace(1e-3, 12.5, 40),
                             np.linspace(12.7, 200.0, 40)])
        for nu in (0.0, 1.0 / 3.0, 0.5, 1.0, 1.5):
            errs = np.abs(bessel_j_many(nu, xs) - scipy.special.jv(nu, xs))
            assert np.max(errs) < 5e-12

    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0])
    def test_vectorized_matches_series_oracle(self, nu):
        # float64 series plus Miller recurrence; a float64 series alone
        # loses ~1e-12 to cancellation near the switchover
        xs = np.union1d(np.linspace(0.0, SERIES_CUTOFF, 198), [2.0, SERIES_CUTOFF])
        ref = np.array([bessel_series_oracle(nu, x) for x in xs])
        assert np.max(np.abs(bessel_j_many(nu, xs) - ref)) <= 2e-15

    def test_vectorized_table_equals_rows(self):
        # a (modes x nodes) table is evaluated elementwise, row for row
        table = np.outer([2.4, 5.5, 8.65, 11.8, 14.9], np.linspace(0.0, 1.0, 257))
        for nu in (0.0, 1.0 / 3.0, 1.5):
            vals = bessel_j_many(nu, table)
            assert vals.shape == table.shape
            rows = np.vstack([bessel_j_many(nu, row) for row in table])
            assert np.array_equal(vals, rows)

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j(1.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(0.5, -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vectorized_rejects_non_finite(self, bad):
        # NaN fails every comparison, so a bare x < 0 check lets it through
        with pytest.raises(DomainError):
            bessel_j_many(0.5, np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scalar_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            bessel_j(0.5, bad)

    @pytest.mark.parametrize("nu", [0.0, 1.0 / 3.0, 0.5, 1.0])
    def test_scalar_equals_vectorized_on_miller_range(self, nu):
        # both paths run the same float64 Miller recurrence on (2, 12.6]
        xs = np.union1d(np.linspace(2.0, SERIES_CUTOFF, 200)[1:],
                        [2.0 + 1e-12, 2.4048255576957728, 12.6 - 1e-12])
        vec = bessel_j_many(nu, xs)
        for x, v in zip(xs, vec):
            assert bessel_j(nu, x).value == v

    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0 / 3.0, 0.5, 1.0])
    def test_scalar_matches_series_oracle(self, nu):
        xs, ref = oracle_grid(nu)
        errs = [abs(bessel_j(nu, x).value - r) for x, r in zip(xs, ref)]
        assert max(errs) <= 2e-15

    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0 / 3.0, 0.5, 1.0])
    def test_est_error_covers_rounding(self, nu):
        # the certificate alone, without headroom, bounds the actual error
        xs, ref = oracle_grid(nu)
        for x, r in zip(xs, ref):
            ev = bessel_j(nu, x)
            assert abs(ev.value - r) <= ev.est_error <= 1e-13


class TestBesselJPrime:
    def test_half_order_at_pi(self):
        # first recurrence term vanishes at the zero: J'_{1/2}(pi) = -J_{3/2}(pi)
        val = bessel_j_prime(0.5, math.pi)
        assert val == pytest.approx(-0.45015815807855303, abs=1e-14)
        assert val == pytest.approx(-math.sqrt(2.0) / math.pi, abs=1e-14)

    def test_order_zero_recurrence(self):
        j01 = bessel_zero(0.0, 1).zero
        assert bessel_j_prime(0.0, j01) == pytest.approx(
            -scipy.special.jv(1.0, j01), abs=1e-13)

    def test_frozen_fd_oracle(self):
        # centered difference of the 60-digit series oracle at h = 1e-6
        assert bessel_j_prime(1.0 / 3.0, 2.0) == pytest.approx(
            -0.45613891807891438, abs=1e-7)

    def test_matches_centered_difference(self):
        h = 1e-6
        for nu in (0.0, 0.3, 0.5, 1.0):
            for x in (0.8, 4.0, 17.0):
                fd = (bessel_j(nu, x + h).value - bessel_j(nu, x - h).value) / (2 * h)
                assert abs(bessel_j_prime(nu, x) - fd) < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_j_prime(0.5, 0.0)

    def test_rejects_infinite_argument(self):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            bessel_j_prime(0.5, np.inf)


class TestZeros:
    def test_half_order_zeros_are_n_pi(self):
        rec = bessel_zero(0.5, 3)
        assert rec.zero == pytest.approx(3 * math.pi, abs=1e-13)

    def test_first_zero_of_j0(self):
        # bisection on the series oracle to 1e-12: j_{0,1}
        rec = bessel_zero(0.0, 1)
        assert rec.zero == pytest.approx(2.4048255576957728, abs=1e-12)

    def test_bracket_membership(self):
        rec = bessel_zero(1.0 / 3.0, 1)
        lo, hi = lorch_muldoon_bracket(1.0 / 3.0, 1)
        assert lo - 1e-9 <= rec.zero <= hi + 1e-9

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.25, 1.0 / 3.0, 0.45, 0.5])
    def test_certification_batch(self, nu):
        prev = 0.0
        for n in range(1, 13):
            rec = bessel_zero(nu, n)
            assert abs(bessel_j(nu, rec.zero).value) < 1e-12
            lo, hi = rec.bracket
            assert lo - 1e-9 <= rec.zero <= hi + 1e-9
            assert rec.zero > prev
            prev = rec.zero

    def test_against_bisection_oracle(self):
        for nu, n in [(0.1, 2), (0.25, 5), (1.0 / 3.0, 9)]:
            assert bessel_zero(nu, n).zero == pytest.approx(
                bessel_zero_oracle(nu, n), abs=1e-11)

    def test_order_continuity_toward_zero(self):
        # j_{nu,n} -> j_{0,n} monotonically as nu -> 0+
        for n in (1, 4):
            base = bessel_zero(0.0, n).zero
            gaps = [bessel_zero(nu, n).zero - base
                    for nu in (0.25, 0.1, 0.05, 0.01)]
            assert all(g > 0 for g in gaps)
            assert all(a > b for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 0.02

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_zero(0.75, 1)
        with pytest.raises(DomainError):
            bessel_zero(0.3, 0)


def landau_bound(nu, xs):
    """Landau's bounds |J_nu(x)| <= nu^{-1/3} and |J_nu(x)| <= x^{-1/3}."""
    return np.minimum(nu ** (-1.0 / 3.0), xs ** (-1.0 / 3.0))


class TestLandau:
    def test_half_order_samples(self):
        xs = np.array([1.0, 10.0, 100.0])
        assert np.all(np.abs(bessel_j_many(0.5, xs)) <= landau_bound(0.5, xs))

    def test_zero_of_j1(self):
        j11 = np.array([3.8317059702075123])  # first zero of J_1 (series oracle bisection)
        vals = np.abs(bessel_j_many(1.0, j11))
        assert np.all(vals <= landau_bound(1.0, j11))
        assert vals[0] < 1e-12

    def test_log_spaced_sweep(self):
        xs = np.logspace(np.log10(0.1), np.log10(200.0), 100)
        nu = 1.0 / 3.0
        assert np.all(np.abs(bessel_j_many(nu, xs)) <= landau_bound(nu, xs))
