import json
import math
import os
import pickle
import sys
import threading
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from degctrl import bessel
from degctrl.bessel import bessel_j, bessel_j_prime
from degctrl.errors import DomainError, QuadratureError, UsageError
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

    def test_gap_is_a_fresh_dict(self):
        make_basis(0.1, 1)   # displace any kept basis of alpha 0.5
        kept = make_basis(0.5, 4)
        kept.gap["min_gap"] = 0.0
        gap = make_basis(0.5, 4).gap
        sq = kept.kappa * kept.zeros
        assert gap["min_gap"] == float(np.min(np.diff(sq))) >= GAP_CONSECUTIVE
        assert gap["sqrt_lambda_1"] == float(sq[0])
        assert pickle.loads(pickle.dumps(kept)).gap == gap

    def test_norm_consts_against_mpmath(self):
        # C_n = sqrt(2 kappa) / |J'_nu(j)| at 40 digits, on the modes below
        # the Hankel switchover: 8.8e-16 with math.gamma, 2.3e-15 with the
        # 9-term Lanczos sum it replaced
        worst = 0.0
        with mp.workdps(40):
            for alpha in np.arange(10) / 10:
                basis = make_basis(float(alpha), 4)
                assert np.all(basis.zeros <= bessel.SERIES_CUTOFF)
                for m in basis.modes:
                    exact = mp.sqrt(2 * mp.mpf(basis.kappa)) / abs(
                        mp.besselj(mp.mpf(basis.nu), mp.mpf(m.zero), 1))
                    worst = max(worst, abs(float(m.norm_const / exact - 1)))
        assert worst < 1.5e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            make_basis(1.0, 3)
        with pytest.raises(DomainError):
            make_basis(-0.1, 3)
        with pytest.raises(DomainError):
            make_basis(0.5, 0)

    @pytest.mark.parametrize("build", [lambda n: make_basis(0.5, n), make_limit_basis],
                             ids=["basis", "limit_basis"])
    @pytest.mark.parametrize("n_modes", [2.5, 0, "3"])
    def test_mode_count_must_be_a_positive_int(self, build, n_modes):
        with pytest.raises(DomainError, match="n_modes must be a positive int"):
            build(n_modes)

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

    @pytest.mark.parametrize("n", [0, -1, 7])
    def test_mode_index_range(self, n):
        # unchecked, n = 0 and -1 would read modes 6 and 5 by negative indexing
        with pytest.raises(UsageError, match="outside 1..6"):
            neumann_trace_numeric(make_basis(0.5, 6), n, 1e-4)

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

    @pytest.mark.parametrize("read", [
        source_coefficient, source_coefficient_quadrature,
        lambda basis, n: eval_eigenfunction(basis, n, 0.5)],
        ids=["closed_form", "quadrature", "eigenfunction"])
    @pytest.mark.parametrize("n", [0, -1, 5])
    def test_mode_index_range(self, read, n):
        with pytest.raises(UsageError, match="outside 1..4"):
            read(make_basis(0.6, 4), n)


def limit_modes(lb, x):
    """Phi_n(x) = J_0(j_{0,n} sqrt(x)) / |J'_0(j_{0,n})|, one row per mode."""
    return bessel.bessel_j_many(0.0, lb.zeros[:, None] * np.sqrt(x)) / lb.jprime[:, None]


class TestLimitBasis:
    def test_gram_is_identity(self):
        lb = make_limit_basis(8)
        # x = y^2 turns int Phi_m Phi_n dx into int 2 y Phi_m Phi_n dy
        y, w = panel_rule(0.0, 1.0, DEFAULT_PANELS, DEFAULT_NODES)
        vals = limit_modes(lb, y**2)
        gram = (vals * (2.0 * y * w)) @ vals.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-8

    def test_projection_of_own_mode(self):
        lb = make_limit_basis(8)
        coeffs = lb.project(lambda x: limit_modes(lb, x)[1])
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
    def test_prefix_equals_fresh_build(self, n):
        # cost_upper's back-off takes prefixes of one basis
        full = make_basis(0.7, 12)
        prefix = replace(full, modes=full.modes[:n])
        fresh = make_basis(0.7, n)
        assert prefix == fresh
        assert prefix.gap == fresh.gap
        assert prefix.basis_id == fresh.basis_id == f"alpha=0.7;N={n}"

    def test_same_size_builds_an_equal_new_basis(self):
        first, again = make_basis(0.45, 8), make_basis(0.45, 8)
        assert again is not first and again == first
        first.tables(DEFAULT_PANELS)   # a table of one is not the other's
        assert again._rules == {}

    def test_signed_zero_alphas_stay_apart(self):
        assert make_basis(-0.0, 4).basis_id == "alpha=-0.0;N=4"
        assert make_basis(0.0, 4).basis_id == "alpha=0.0;N=4"


#: the four per-mode arrays of a basis and the Mode field each one holds
BASIS_ARRAYS = (("zeros", "zero"), ("eigenvalues", "eigenvalue"),
                ("norm_consts", "norm_const"), ("neumann_traces", "neumann_trace"))


class TestBasisArrays:
    @staticmethod
    def _bases(alpha):
        """Fresh builds of N = 1, 8, 16 and the N = 8 and 1 prefixes of the
        N = 16 one, as cost_upper's back-off takes them."""
        out = [make_basis(alpha, n) for n in (1, 8, 16)]
        return out + [replace(out[-1], modes=out[-1].modes[:n]) for n in (8, 1)]

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
    def test_every_read_holds_the_mode_fields(self, alpha):
        for basis in self._bases(alpha):
            for name, fld in BASIS_ARRAYS:
                expect = np.array([getattr(m, fld) for m in basis.modes])
                for _ in range(2):
                    got = getattr(basis, name)
                    assert got.dtype == np.float64 and got.shape == (basis.n_modes,)
                    assert got.tobytes() == expect.tobytes(), (alpha, basis.n_modes, name)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.99])
    def test_a_write_into_a_read_stays_there(self, alpha):
        for basis in self._bases(alpha):
            fields = [(m.zero, m.eigenvalue, m.norm_const, m.neumann_trace)
                      for m in basis.modes]
            for name, _ in BASIS_ARRAYS:
                first = getattr(basis, name)
                before = first.tobytes()
                first[:] = -1.0
                assert getattr(basis, name).tobytes() == before, (alpha, name)
            assert [(m.zero, m.eigenvalue, m.norm_const, m.neumann_trace)
                    for m in basis.modes] == fields


class TestProjectTolerance:
    @staticmethod
    def step(x):
        return np.where(x < 0.3, 0.0, 1.0)

    def test_unresolved_step_raises(self):
        # the jump at 0.3 leaves an estimated error of about 1.2e-3
        with pytest.raises(QuadratureError, match="did not converge: estimated error 1.2"):
            project(make_basis(0.5, 8), self.step)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        basis = make_basis(0.5, 8)
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            project(basis, self.step, tol=tol)


def _count_bessel_j_many(monkeypatch):
    """Record (nu, points) of every bessel_j_many call from here on."""
    calls = []
    many = bessel.bessel_j_many
    monkeypatch.setattr(bessel, "bessel_j_many",
                        lambda nu, x: calls.append((nu, np.size(x))) or many(nu, x))
    return calls


def _source_row_oracle(basis, n):
    """The per-row quadrature source_coefficient_quadrature evaluated
    before the J_nu tables were shared."""
    y, w = panel_rule(0.0, 1.0, DEFAULT_PANELS, DEFAULT_NODES)
    common = w * y ** (1.0 / (2.0 - basis.alpha)) / basis.kappa
    mode = basis.modes[n - 1]
    integrand = (1.0 - y ** (2.0 * basis.nu)) * bessel.bessel_j_many(basis.nu, mode.zero * y)
    return mode.norm_const * float(np.dot(common, integrand))


class TestBesselTable:
    def test_verify_evaluates_one_table(self, monkeypatch):
        from degctrl import build_biortho, verify
        basis = make_basis(0.4137, 8)
        fam = build_biortho(basis.eigenvalues, 1.0)
        calls = _count_bessel_j_many(monkeypatch)
        checks = verify(basis, fam, unit_moment(basis, 1), 1e-6)
        assert all(c["passed"] for c in checks)
        # the Gram and all eight source coefficients read one 8 x 512 table
        assert calls == [(basis.nu, 8 * DEFAULT_PANELS * DEFAULT_NODES)]

    def test_project_evaluates_each_panel_count_once(self, monkeypatch):
        f = lambda x: x * (1.0 - x)
        calls = _count_bessel_j_many(monkeypatch)
        basis = make_basis(0.4139, 8)
        first = project(basis, f)
        # the 8- and 16-panel rules in one call of 8 x (512 + 1024) points
        assert calls == [(basis.nu, 8 * 3 * DEFAULT_PANELS * DEFAULT_NODES)]
        assert np.array_equal(project(basis, f).coefficients, first.coefficients)
        assert len(calls) == 1
        again = project(make_basis(0.4139, 8), f)   # a new basis evaluates its own
        assert np.array_equal(again.coefficients, first.coefficients)
        assert len(calls) == 2

    def test_project_after_verify_evaluates_only_the_fine_rule(self, monkeypatch):
        from degctrl import build_biortho, verify
        basis = make_basis(0.4141, 8)
        fam = build_biortho(basis.eigenvalues, 1.0)
        calls = _count_bessel_j_many(monkeypatch)
        verify(basis, fam, unit_moment(basis, 1), 1e-6)
        project(basis, lambda x: x * (1.0 - x))
        assert calls == [(basis.nu, 8 * DEFAULT_PANELS * DEFAULT_NODES),
                         (basis.nu, 8 * 2 * DEFAULT_PANELS * DEFAULT_NODES)]

    def test_cli_chain_evaluates_two_tables(self, monkeypatch, tmp_path):
        # verify, synthesize and simulate in one process share the CLI
        # chain's basis: verify's 8-panel table, then only the 16-panel one
        from degctrl.cli import _chain, main
        _chain.cache_clear()
        calls = _count_bessel_j_many(monkeypatch)
        for command in ("verify", "synthesize", "simulate"):
            argv = [command, "--alpha", "0.4143", "--modes", "8", "--horizon", "1",
                    "--seed", "7", "--out-dir", str(tmp_path)]
            if command != "verify":
                argv += ["--u0", "poly:x(1-x)"]
            assert main(argv) == 0
        nu = make_basis(0.4143, 8).nu
        assert calls == [(nu, 8 * DEFAULT_PANELS * DEFAULT_NODES),
                         (nu, 8 * 2 * DEFAULT_PANELS * DEFAULT_NODES)]

    @pytest.mark.parametrize("panels", [0, -1, 2.5, "8"])
    def test_project_rejects_panels(self, panels):
        basis = make_basis(0.5, 4)
        with pytest.raises(DomainError, match="panels must be a positive int"):
            project(basis, lambda x: x * (1.0 - x), panels=panels)
        assert basis._rules == {}

    def test_read_only_and_equal_to_direct_call(self):
        basis = make_basis(0.6, 5)
        rule = basis.tables(DEFAULT_PANELS)[0]
        y, w = panel_rule(0.0, 1.0, DEFAULT_PANELS, DEFAULT_NODES)
        direct = bessel.bessel_j_many(basis.nu, basis.zeros[:, None] * y)
        assert rule.table.shape == direct.shape
        assert rule.table.tobytes() == direct.tobytes()
        assert rule.y.tobytes() == y.tobytes() and rule.w.tobytes() == w.tobytes()
        for arr in rule:
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_joined_tables_equal_direct_calls(self):
        basis = make_basis(0.6, 5)
        counts = (DEFAULT_PANELS, 2 * DEFAULT_PANELS)
        for panels, rule in zip(counts, basis.tables(*counts)):
            y, _ = panel_rule(0.0, 1.0, panels, DEFAULT_NODES)
            direct = bessel.bessel_j_many(basis.nu, basis.zeros[:, None] * y)
            assert rule.table.shape == direct.shape
            assert rule.table.tobytes() == direct.tobytes()
            with pytest.raises(ValueError):
                rule.table[0, 0] = 0.0

    def test_unlocked_fill_gives_every_thread_the_same_bits(self):
        # racing threads may evaluate a table twice, never differently
        f = lambda x: x * (1.0 - x)
        reference = project(make_basis(0.4145, 8), f).coefficients
        basis = make_basis(0.4145, 8)
        workers = min(os.cpu_count() or 1, 8) + 2
        barrier = threading.Barrier(workers)
        results = [None] * workers

        def run(i):
            barrier.wait(timeout=30)
            results[i] = project(basis, f).coefficients

        threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(r.tobytes() == reference.tobytes() for r in results)
        assert sorted(basis._rules) == [DEFAULT_PANELS, 2 * DEFAULT_PANELS]

    def test_store_is_left_out_of_comparison_and_repr(self):
        basis = make_basis(0.6, 5)
        fresh = make_basis(0.6, 5)
        basis.tables(DEFAULT_PANELS)
        assert basis == fresh and repr(basis) == repr(fresh)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_source_row_equals_per_row_evaluation(self, alpha):
        basis = make_basis(alpha, 8)
        for n in range(1, 9):
            assert source_coefficient_quadrature(basis, n) == _source_row_oracle(basis, n)
