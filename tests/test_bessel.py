import functools
import hashlib
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from degctrl import bessel
from degctrl.bessel import (SERIES_CUTOFF, bessel_j, bessel_j_many,
                            bessel_j_prime, bessel_zero,
                            lorch_muldoon_bracket)
from degctrl.errors import ConvergenceError, DomainError
from degctrl.spectrum import make_basis

from conftest import bessel_series_oracle, bessel_zero_oracle


@functools.lru_cache(maxsize=None)
def oracle_grid(nu):
    """200 points of [0, SERIES_CUTOFF], with 2 and the cutoff, and oracle values."""
    xs = np.union1d(np.linspace(0.0, SERIES_CUTOFF, 198), [2.0, SERIES_CUTOFF])
    return xs, [bessel_series_oracle(nu, x) for x in xs]


def hankel_per_term_oracle(nu, x):
    """The Hankel branch of bessel_j_many as a per-term loop with a sign
    factor and a masked copy per term, the form it had before it ran in
    place; x > SERIES_CUTOFF elementwise, any shape."""
    xh = np.asarray(x, dtype=float).ravel()
    pref = np.sqrt(2.0 / (np.pi * xh))
    omega = xh - nu * np.pi / 2.0 - np.pi / 4.0
    p_sum = np.ones_like(xh)
    q_sum = np.zeros_like(xh)
    u_prev = np.ones_like(xh)
    alive = np.ones(xh.shape, dtype=bool)
    mu = 4.0 * nu * nu
    for m in range(1, 40):
        u = u_prev * (mu - float((2 * m - 1) ** 2)) / (8.0 * m * xh)
        alive &= np.abs(u) < np.abs(u_prev)
        if not np.any(alive):
            break
        contrib = np.where(alive, u, 0.0)
        if m % 2 == 0:
            p_sum += (-1.0) ** (m // 2) * contrib
        else:
            q_sum += (-1.0) ** ((m - 1) // 2) * contrib
        u_prev = u
    vals = pref * (p_sum * np.cos(omega) - q_sum * np.sin(omega))
    return vals.reshape(np.shape(x))


def scalar_hankel_per_term(nu, x):
    """_asymptotic_eval as a per-term loop that branches on m % 2, the form
    it had before it took terms in (odd, even) pairs: (value, est_error)."""
    pref = math.sqrt(2.0 / (math.pi * x))
    omega = x - nu * math.pi / 2.0 - math.pi / 4.0
    p_sum, q_sum, u, size = 1.0, 0.0, 1.0, 1.0
    mu = 4.0 * nu * nu
    for m in range(1, 61):
        nxt = u * (mu - float((2 * m - 1) ** 2)) / (8.0 * m * x)
        mag = abs(nxt)
        if mag >= size or mag < 1e-18:
            break
        if m % 2:
            q_sum += nxt
        else:
            nxt = -nxt
            p_sum += nxt
        u, size = nxt, mag
    return pref * (p_sum * math.cos(omega) - q_sum * math.sin(omega)), pref * mag


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

    @pytest.mark.parametrize("nu", [0.0, 0.1, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0])
    def test_hankel_branch_equals_per_term_loop(self, nu):
        # bit for bit, sign bits included: just above the switchover, where
        # elements stop after about 25 terms, up to 200, where all 39 run
        rng = np.random.default_rng([1411, int(1000 * nu)])
        above = np.nextafter(SERIES_CUTOFF, np.inf)
        xs = np.concatenate([above + 1e-12 * np.arange(8),
                             rng.uniform(SERIES_CUTOFF, 20.0, 400),
                             rng.uniform(SERIES_CUTOFF, 200.0, 400),
                             [200.0]])
        for x in (xs, xs[:-1].reshape(8, 101), xs[::-1][:300].reshape(3, 10, 10)):
            vals, ref = bessel_j_many(nu, x), hankel_per_term_oracle(nu, x)
            assert vals.shape == ref.shape
            assert np.array_equal(vals, ref)
            assert np.array_equal(np.signbit(vals), np.signbit(ref))

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.25, 1.0 / 3.0, 0.45, 0.5, 1.0, 1.5])
    def test_scalar_hankel_equals_per_term_loop(self, nu):
        # value and est_error bit for bit, on both stopping tests: near the
        # switchover the terms stop decreasing, near 200 they fall below 1e-18
        rng = np.random.default_rng([1907, int(1000 * nu)])
        above = np.nextafter(SERIES_CUTOFF, np.inf)
        xs = np.concatenate([above + 1e-12 * np.arange(8),
                             rng.uniform(SERIES_CUTOFF, 20.0, 500),
                             rng.uniform(SERIES_CUTOFF, 200.0, 500), [200.0]])
        for x in xs.tolist():
            got = bessel._asymptotic_eval(nu, x)
            ref = scalar_hankel_per_term(nu, x)
            assert [v.hex() for v in got] == [v.hex() for v in ref], x

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

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(nu=st.floats(0.0, 0.5), n=st.integers(1, 40))
    def test_certified_over_documented_domain(self, nu, n):
        rec = bessel_zero(nu, n)
        lo, hi = lorch_muldoon_bracket(nu, n)
        assert rec.bracket == (lo, hi)
        assert lo - 1e-9 <= rec.zero <= hi + 1e-9
        assert abs(bessel_j(nu, rec.zero).value) < 1e-12
        assert abs(scipy.special.jv(nu, rec.zero)) < 5e-12
        # the carried derivative is the recurrence's, bit for bit
        assert rec.derivative == bessel_j_prime(nu, rec.zero)
        assert abs(rec.derivative - scipy.special.jvp(nu, rec.zero)) < 1e-13

    def test_escaped_iterate_raises(self, monkeypatch):
        # a J_{nu+1} that makes J'_nu nearly vanish sends Newton far away
        exact = bessel._eval_any_order

        def flat_derivative(order, x):
            if order < 1.0:
                return exact(order, x)
            nu = order - 1.0
            return ((nu / x) * exact(nu, x)[0] - 1e-9, 0.0, "series")

        monkeypatch.setattr(bessel, "_eval_any_order", flat_derivative)
        with pytest.raises(ConvergenceError, match="escaped the bracket"):
            bessel_zero(0.3, 2)


#: float.hex of zeros j_{nu,n} and J'_nu(j_{nu,n}): Miller's regime for
#: j <= 12.6, Hankel's above
PINNED_ZEROS = [
    (0.0, 1, "0x1.33d152e971b3fp+1", "-0x1.09cdb36551281p-1"),
    (1.0 / 3.0, 2, "0x1.8218871cffcf5p+2", "0x1.4cf394377d0bcp-2"),
    (0.25, 4, "0x1.85cd8cc008962p+3", "0x1.d45634307c732p-3"),
    (0.5, 5, "0x1.f6a7a2955385ep+3", "-0x1.9c4c0200b604fp-3"),
    (0.1, 12, "0x1.28979c711b1fbp+5", "0x1.0c61e60109328p-3"),
    (0.45, 40, "0x1.f657676a520bbp+6", "0x1.23a10bc96e400p-4"),
]

#: float.hex of (C_n, r_n) of make_basis(alpha, N), mode n
PINNED_MODES = [
    (0.5, 16, 1, "0x1.4d89f84cd956fp+1", "0x1.a6e2d90b57e4fp+0"),
    (0.5, 16, 3, "0x1.29604806288c1p+2", "0x1.149f9b509adf4p+2"),
    (0.5, 16, 16, "0x1.5b5765c14c586p+3", "0x1.1c5903fbe719ap+4"),
    (0.9, 8, 2, "0x1.8fa04804bd73fp+1", "0x1.6ff2d2aa02275p-2"),
    (0.0, 12, 12, "0x1.5c3fddc92b2e0p+3", "0x1.aa844a84c1458p+5"),
]

#: float.hex of J_nu(x) in the ascending-series regime x <= 2
PINNED_SERIES = [
    (1.0 / 3.0, 0.75, "0x1.7327396600bb6p-1"),
    (0.0, 2.0, "0x1.ca873fb24cef6p-3"),
    (1.0, 1.25, "0x1.057069774d333p-1"),
]


#: sha256 of the lines "<zero hex> <J' hex>" of j_{nu,n}, nu = 0, 0.01,
#: ..., 0.5 (np.linspace) and n = 1..40, nu outermost
ZERO_TABLE_SHA256 = "ec9abe720866b1473c92427d9cf51f67248021d0f89d63718557eb6915d77bcd"


class TestPinnedBits:
    """Values recorded bit for bit; a change that moves one bit fails here."""

    def test_zero_table_digest(self):
        digest = hashlib.sha256()
        for nu in np.linspace(0.0, 0.5, 51):
            for n in range(1, 41):
                rec = bessel_zero(float(nu), n)
                digest.update(f"{rec.zero.hex()} {rec.derivative.hex()}\n".encode())
        assert digest.hexdigest() == ZERO_TABLE_SHA256

    @pytest.mark.parametrize("nu, n, zero, derivative", PINNED_ZEROS)
    def test_zeros(self, nu, n, zero, derivative):
        rec = bessel_zero(nu, n)
        assert rec.zero.hex() == zero
        assert rec.derivative.hex() == derivative

    @pytest.mark.parametrize("alpha, n_modes, n, norm_const, trace", PINNED_MODES)
    def test_modes(self, alpha, n_modes, n, norm_const, trace):
        mode = make_basis(alpha, n_modes).modes[n - 1]
        assert float(mode.norm_const).hex() == norm_const
        assert float(mode.neumann_trace).hex() == trace

    @pytest.mark.parametrize("nu, x, value", PINNED_SERIES)
    def test_series_values(self, nu, x, value):
        ev = bessel_j(nu, x)
        assert ev.method == "series"
        assert ev.value.hex() == value


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
