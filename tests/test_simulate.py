import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest

from degctrl.biortho import build_biortho
from degctrl.control import synthesize
from degctrl.cost import ORACLE_TOL, null_control
from degctrl.errors import DomainError, UsageError
from degctrl.quadrature import panel_rule
from degctrl.simulate import _integrator_modes, evolve, terminal_error
from degctrl.spectrum import MomentVector, make_basis, project, unit_moment

from conftest import eval_g


def zero_target(basis):
    return MomentVector(alpha=basis.alpha, coefficients=np.zeros(basis.n_modes),
                        basis_id=basis.basis_id)


def normalized_bump(basis):
    mu = project(basis, lambda x: x * (1.0 - x))
    c = mu.coefficients / np.linalg.norm(mu.coefficients)
    return MomentVector(alpha=basis.alpha, coefficients=c, basis_id=basis.basis_id)


@pytest.fixture(scope="module")
def laplace_run():
    basis = make_basis(0.0, 6)
    fam = build_biortho(basis.eigenvalues, 1.0)
    return basis, fam


class TestEvolve:
    def test_pure_decay(self, laplace_run):
        basis, fam = laplace_run
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        traj = evolve(basis, unit_moment(basis, 1), sig)
        assert traj.terminal[0] == pytest.approx(math.exp(-math.pi**2), rel=1e-12)
        assert np.max(np.abs(traj.terminal[1:])) == 0.0

    def test_decay_relative_accuracy_all_modes(self, laplace_run):
        basis, fam = laplace_run
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        mu0 = MomentVector(alpha=0.0, coefficients=np.ones(6),
                           basis_id=basis.basis_id)
        traj = evolve(basis, mu0, sig)
        expect = np.exp(-basis.eigenvalues * 1.0)
        rel = np.abs(traj.terminal - expect) / expect
        assert np.max(rel) < 1e-12

    def test_null_control_oracle(self):
        # the controllability oracle: synthesized null control actually
        # drives the controlled modes to zero
        for alpha in (0.0, 0.5, 0.8):
            basis = make_basis(alpha, 6)
            fam = build_biortho(basis.eigenvalues, 1.0)
            mu0 = unit_moment(basis, 1)
            sig = synthesize(basis, fam, mu0, zero_target(basis))
            traj = evolve(basis, mu0, sig)
            assert np.max(np.abs(traj.terminal)) < 1e-6

    def test_duhamel_zero_initial_state(self, laplace_run):
        # u0 = 0: v_n(T) = -(r_n/lambda_n) int e^{-lambda_n (T-s)} g(s) ds,
        # cross-checked by direct quadrature of the evaluated control
        basis, fam = laplace_run
        mu0 = unit_moment(basis, 2)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        zero = zero_target(basis)
        traj = evolve(basis, zero, sig)
        s, w = panel_rule(0.0, 1.0, 32, 32)
        for n in (1, 2, 4):
            lam = basis.eigenvalues[n - 1]
            r = basis.neumann_traces[n - 1]
            duhamel = -(r / lam) * np.dot(w, np.exp(-lam * (1.0 - s)) * eval_g(sig, s))
            assert traj.terminal[n - 1] == pytest.approx(duhamel, abs=1e-10)

    def test_oracle_agreement(self):
        for alpha in (0.0, 0.5):
            basis = make_basis(alpha, 10)
            fam = build_biortho(basis.eigenvalues, 1.0)
            mu0 = normalized_bump(basis)
            sig = synthesize(basis, fam, mu0, zero_target(basis))
            traj = evolve(basis, mu0, sig, grid_size=512)
            assert traj.oracle_deviation < 1e-6

    def test_energy_decay_zero_control(self, laplace_run):
        basis, fam = laplace_run
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        traj = evolve(basis, normalized_bump(basis), sig)
        energy = np.linalg.norm(traj.v, axis=0)
        assert np.all(np.diff(energy) <= 1e-14)

    def test_lifting_consistency(self, laplace_run):
        # terminal u equals terminal v whenever |G(T)| ~ 0
        basis, fam = laplace_run
        mu0 = normalized_bump(basis)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        traj = evolve(basis, mu0, sig)
        assert abs(sig.terminal_value) < 1e-8
        assert np.max(np.abs(traj.u_coeffs[:, -1] - traj.v[:, -1])) < 1e-8

    def test_initial_condition_preserved(self, laplace_run):
        basis, fam = laplace_run
        mu0 = normalized_bump(basis)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        traj = evolve(basis, mu0, sig)
        assert np.array_equal(traj.v[:, 0], mu0.coefficients)

    def test_leakage_trend(self):
        # tail terminal residuals shrink as the controlled band widens
        tails = {}
        for n in (4, 6, 8, 10):
            basis = make_basis(0.5, n + 5)
            sub = make_basis(0.5, n)
            fam = build_biortho(sub.eigenvalues, 1.0)
            mu_full = project(basis, lambda x: x * (1.0 - x))
            scale = np.linalg.norm(mu_full.coefficients[:n])
            mu0 = MomentVector(alpha=0.5, coefficients=mu_full.coefficients[:n] / scale,
                               basis_id=sub.basis_id)
            sig = synthesize(sub, fam, mu0, zero_target(sub))
            mu_ext = MomentVector(alpha=0.5,
                                  coefficients=mu_full.coefficients / scale,
                                  basis_id=basis.basis_id)
            # evolve the five uncontrolled tail modes under the same control
            from degctrl.control import moment_residual
            res = moment_residual(sub, sig, mu0, zero_target(sub), n_extra=5)
            tail = np.abs(res[n:]) + 0.0
            # add the free decay of the true tail data
            lam_tail = basis.eigenvalues[n:]
            tail += np.abs(mu_ext.coefficients[n:]) * np.exp(-lam_tail)
            tails[n] = np.max(tail)
        vals = [tails[n] for n in (4, 6, 8, 10)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_coarse_grid_is_gated_not_warned(self, laplace_run):
        # the deviation is reported once, as a field that null_control gates
        basis, fam = laplace_run
        mu0 = unit_moment(basis, 1)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(basis, mu0, sig, grid_size=2)
        assert traj.oracle_deviation > ORACLE_TOL
        *_, checks = null_control(basis, fam, mu0, 1e-6, grid_size=2)
        (_, value, limit), = [c for c in checks if c[0] == "propagation_oracle"]
        assert (value, limit) == (traj.oracle_deviation, ORACLE_TOL)
        assert not value <= limit

    def test_size_validation(self, laplace_run):
        basis, fam = laplace_run
        sig = synthesize(basis, fam, unit_moment(basis, 1), zero_target(basis))
        short = make_basis(0.0, 3)
        with pytest.raises(UsageError):
            evolve(basis, unit_moment(short, 1), sig)

    def test_input_validation(self, laplace_run):
        basis, fam = laplace_run
        mu0 = unit_moment(basis, 1)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        other = MomentVector(alpha=0.5, coefficients=mu0.coefficients,
                             basis_id=basis.basis_id)
        with pytest.raises(UsageError, match="different alpha"):
            evolve(basis, other, sig)
        short = make_basis(0.0, 4)
        short_sig = synthesize(short, build_biortho(short.eigenvalues, 1.0),
                               unit_moment(short, 1), zero_target(short))
        with pytest.raises(UsageError, match="different mode count"):
            evolve(basis, mu0, short_sig)
        with pytest.raises(DomainError, match="at least 2 grid intervals"):
            evolve(basis, mu0, sig, grid_size=1)


def per_step_integrator(basis, signal, mu0, t, gauss_nodes=12):
    """Reference: the integrator as a loop that quadratures every step on
    its own nodes, evaluating g and the kernel afresh."""
    lam = basis.eigenvalues
    r = basis.neumann_traces
    xg, wg = np.polynomial.legendre.leggauss(gauss_nodes)
    v = np.empty((len(lam), len(t)))
    v[:, 0] = mu0
    for j in range(len(t) - 1):
        a, b = t[j], t[j + 1]
        h = b - a
        s = (xg + 1.0) * (h / 2.0) + a
        E = np.exp(-lam[:, None] * (b - s)[None, :])
        v[:, j + 1] = (np.exp(-lam * h) * v[:, j]
                       - (r / lam) * (E @ (wg * eval_g(signal, s))) * (h / 2.0))
    return v


class TestIntegratorIndependence:
    """The integrator checks the closed form only while it shares none of
    its algebra: it must show its own discretization error on a coarse
    grid and agree to rounding on the default one."""

    @staticmethod
    def bump_control(alpha):
        return bump_to_rest(alpha, 8, 1.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    def test_oracle_deviation_follows_grid(self, alpha):
        basis, mu0, sig = self.bump_control(alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coarse = evolve(basis, mu0, sig, grid_size=4)
        assert coarse.oracle_deviation > 1e-8
        assert evolve(basis, mu0, sig).oracle_deviation < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("grid_size", [4, 512])
    def test_matches_per_step_loop(self, alpha, grid_size):
        basis, mu0, sig = self.bump_control(alpha)
        t = np.linspace(0.0, sig.T, grid_size + 1)
        c = mu0.coefficients
        ref = per_step_integrator(basis, sig, c, t)
        E = np.exp(np.outer(t - sig.T, sig.lambdas_full))
        assert np.max(np.abs(_integrator_modes(basis, sig, c, t, E) - ref)) <= 1e-13


def bump_to_rest(alpha, n_modes, T):
    basis = make_basis(alpha, n_modes)
    fam = build_biortho(basis.eigenvalues, T)
    mu0 = project(basis, lambda x: x * (1.0 - x))
    return basis, mu0, synthesize(basis, fam, mu0, zero_target(basis))


class TestEvolveKernels:
    @pytest.mark.parametrize("alpha,n_modes,T", [(0.5, 11, 1.0), (0.2, 8, 0.5),
                                                 (0.9, 8, 1.0)])
    def test_matches_mpmath_duhamel_sum(self, alpha, n_modes, T):
        # the same weights, exponents and traces, summed in 50 digits
        basis, mu0, sig = bump_to_rest(alpha, n_modes, T)
        traj = evolve(basis, mu0, sig)
        with mp.workdps(50):
            exps = [(mp.mpf(lk), mp.mpf(w))
                    for lk, w in zip(sig.lambdas_full, sig.weights)]
            for j in range(0, len(traj.t), 32):
                t = mp.mpf(traj.t[j])
                for n in range(n_modes):
                    ln = mp.mpf(basis.eigenvalues[n])
                    conv = mp.fsum(w * (mp.exp(lk * (t - T)) - mp.exp(-ln * t - lk * T))
                                   / (ln + lk) for lk, w in exps)
                    ref = (mp.exp(-ln * t) * mp.mpf(mu0.coefficients[n])
                           - mp.mpf(basis.neumann_traces[n]) / ln * conv)
                    assert abs(float(ref - mp.mpf(traj.v[n, j]))) <= 2e-15

    def test_finite_when_lambda_h_exceeds_exp_range(self):
        # grid 2 at T = 2: lambda_N h is about 987, so e^{lambda_N h} overflows
        basis, mu0, sig = bump_to_rest(0.0, 10, 2.0)
        assert basis.eigenvalues[-1] * (2.0 / 2) > 709.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = evolve(basis, mu0, sig, grid_size=2)
        assert np.all(np.isfinite(traj.v))
        assert np.all(np.isfinite(traj.u_coeffs))
        assert math.isfinite(traj.oracle_deviation)

    def test_peak_memory_scales_with_output(self):
        basis, mu0, sig = bump_to_rest(0.5, 10, 1.0)
        tracemalloc.start()
        try:
            traj = evolve(basis, mu0, sig, grid_size=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = traj.t.nbytes + traj.v.nbytes + traj.G_trace.nbytes + traj.u_coeffs.nbytes
        assert peak < 4 * out


class TestTerminalError:
    def test_null_control_aggregate(self, laplace_run):
        basis, fam = laplace_run
        mu0 = normalized_bump(basis)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        traj = evolve(basis, mu0, sig)
        te = terminal_error(traj, zero_target(basis))
        assert te.aggregate < 1e-5

    def test_free_flow_reaches_own_flow(self, laplace_run):
        basis, fam = laplace_run
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        mu0 = normalized_bump(basis)
        traj = evolve(basis, mu0, sig)
        muT = MomentVector(alpha=0.0,
                           coefficients=mu0.coefficients * np.exp(-basis.eigenvalues),
                           basis_id=basis.basis_id)
        assert terminal_error(traj, muT).aggregate < 1e-10

    def test_mismatch_residual(self, laplace_run):
        basis, fam = laplace_run
        zero = zero_target(basis)
        sig = synthesize(basis, fam, zero, zero)
        traj = evolve(basis, unit_moment(basis, 1), sig)
        te = terminal_error(traj, zero)
        assert te.per_mode[0] == pytest.approx(math.exp(-math.pi**2), rel=1e-12)


class TestExports:
    def test_csv_and_json(self, tmp_path, laplace_run):
        basis, fam = laplace_run
        mu0 = unit_moment(basis, 1)
        sig = synthesize(basis, fam, mu0, zero_target(basis))
        traj = evolve(basis, mu0, sig, grid_size=16)
        cpath = tmp_path / "traj.csv"
        traj.save_csv(cpath)
        lines = cpath.read_text().strip().splitlines()
        assert lines[0] == "t," + ",".join(f"v{i}" for i in range(1, 7)) + ",G"
        assert len(lines) == 18
        import json
        data = json.loads(json.dumps(traj.summary_dict()))
        assert data["grid_points"] == 17
        assert data["oracle_deviation"] < 1e-6
