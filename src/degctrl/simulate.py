"""Exact spectral evolution of the boundary-controlled degenerate equation.

The boundary-controlled problem is lifted to homogeneous Dirichlet form by
v(x,t) = u(x,t) - (p(x)/p(0)) G(t) with p(x)/p(0) = 1 - x^{1-a}, which
turns the boundary input into the distributed source -(p/p(0)) g(t). Mode
by mode,

    v_n'(t) = -lambda_n v_n(t) - (r_n / lambda_n) g(t),   v_n(0) = mu0_n,

because int_0^1 (p/p(0)) Phi_n dx = r_n / lambda_n. Since g is an
exponential sum, every Duhamel convolution is analytic:

    int_0^t e^{-lambda_n (t-s)} e^{lambda_k (s-T)} ds
        = (e^{lambda_k (t-T)} - e^{-lambda_n t - lambda_k T}) / (lambda_n + lambda_k),

with the confluent limit t e^{lambda_k (t-T)} when lambda_k -> -lambda_n
(unreachable for nonnegative exponent ladders, but guarded). The stored
trajectory is this closed form, evaluated for all modes, grid times and
exponents in one broadcast. An exponential integrator that never sees the
convolution algebra is run alongside, and the maximal deviation between
the two is reported as the oracle gap. It steps v_n(t_{j+1}) =
e^{-lambda_n h} v_n(t_j) - (r_n / lambda_n) int_{t_j}^{t_{j+1}}
e^{-lambda_n (t_{j+1}-s)} g(s) ds with a 12-node Gauss rule per step. On
the uniform grid the kernel e^{-lambda_n (t_{j+1}-s)} takes the same
values at every step's nodes, so it is built once as an N x 12 matrix, g
is evaluated once at all steps' nodes, and one matrix product gives every
step's source increment. Only the two-term recursion remains a loop. The
node evaluation holds about 12 (N+1) grid doubles, the closed form about
(N+1) N (grid+1).

The physical state is recovered as u(x,t) = v(x,t) + (1 - x^{1-a}) G(t);
since G(T) vanishes for synthesized controls, terminal u and terminal v
coincide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv, write_json
from .control import ControlSignal
from .errors import DomainError, UsageError
from .spectrum import MomentVector, SpectralBasis, eval_eigenfunction

_CONFLUENT_RTOL = 1e-10
ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """Grid trajectory of the lifted modes plus the boundary trace.

    ``v[i, j]`` is mode i+1 of the lifted state at t[j]; ``u_coeffs`` are
    the coefficients of the physical state u against the basis,
    u_n = v_n + (r_n / lambda_n) G(t). ``oracle_deviation`` is the max
    closed-form vs numeric-integrator gap over all modes and grid points.
    """

    t: np.ndarray
    v: np.ndarray
    G_trace: np.ndarray
    u_coeffs: np.ndarray
    oracle_deviation: float
    alpha: float
    lambdas: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.v.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        """v_n(T); equals the terminal u-coefficients when |G(T)| ~ 0."""
        return self.v[:, -1]

    def save_csv(self, path) -> None:
        cols = ["t"] + [f"v{i + 1}" for i in range(self.n_modes)] + ["G"]
        write_csv(path, cols, zip(self.t, *self.v, self.G_trace))

    def summary_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "T": float(self.t[-1]),
            "grid_points": len(self.t),
            "terminal": self.terminal.tolist(),
            "oracle_deviation": self.oracle_deviation,
            "terminal_boundary_value": float(self.G_trace[-1]),
        }

    def save_json(self, path) -> None:
        write_json(path, self.summary_dict())


def _closed_form_modes(basis, signal, mu0, t):
    """v_n(t) on the grid from analytic Duhamel convolutions."""
    lam = basis.eigenvalues
    r = basis.neumann_traces
    T = signal.T
    lam_k = signal.lambdas_full
    ln = lam[:, None, None]
    tt = t[None, :, None]
    # conv[n, j, k] = int_0^{t_j} e^{-lambda_n (t_j-s)} e^{lambda_k (s-T)} ds
    denom = ln + lam_k
    regular = np.abs(denom) >= _CONFLUENT_RTOL * ln
    conv = np.exp(lam_k * (tt - T)) - np.exp(-ln * tt - lam_k * T)
    conv /= np.where(regular, denom, 1.0)
    if not regular.all():
        conv = np.where(regular, conv, tt * np.exp(lam_k * (tt - T)))
    return (np.exp(-lam[:, None] * t) * mu0[:, None]
            - (r / lam)[:, None] * (conv @ signal.weights))


def _integrator_modes(basis, signal, mu0, t, gauss_nodes: int = 12):
    """Exponential integrator: exact e^{-lambda h} stepping, per-step
    Gauss-Legendre quadrature of the pointwise-evaluated source.

    On the uniform grid the quadrature kernel e^{-lambda (b-s)} at the
    nodes of [a, b] is the same in every step, since b - s = (1 - x_q) h/2,
    so it is built once; g is evaluated once on all steps' nodes.
    """
    lam = basis.eigenvalues
    r = basis.neumann_traces
    xg, wg = np.polynomial.legendre.leggauss(gauss_nodes)
    h = np.diff(t)
    s = (xg + 1.0) * (h[:, None] / 2.0) + t[:-1, None]
    gs = signal.eval_g(s.ravel()).reshape(s.shape)
    half = (t[-1] - t[0]) / (len(t) - 1) / 2.0
    kernel = np.exp(-lam[:, None] * ((1.0 - xg) * half))
    # inc[j, n] = (r_n/lambda_n) int_{t_j}^{t_j+1} e^{-lambda_n (t_j+1 - s)} g(s) ds
    inc = ((wg * gs) @ kernel.T) * ((r / lam) * half)
    decay = np.exp(-lam * (2.0 * half))
    v = np.empty((len(lam), len(t)))
    v[:, 0] = mu0
    for j in range(len(t) - 1):
        v[:, j + 1] = decay * v[:, j] - inc[j]
    return v


def evolve(basis: SpectralBasis, u0: MomentVector, signal: ControlSignal,
           grid_size: int = 512) -> Trajectory:
    """Propagate the lifted modes under the control over a uniform grid.

    The trajectory is the closed form; the numeric integrator only serves
    as a cross-check and CSV sampling aid. The integrator builds its
    quadrature kernel once, since it is the same at every step of the
    uniform grid, evaluates the control once on all 12 x ``grid_size``
    Gauss nodes (about 12 (N+1) ``grid_size`` doubles), and loops only over
    the recursion v(t_{j+1}) = e^{-lambda h} v(t_j) - increment_j. A
    deviation above 1e-6 emits a warning carrying the measured value.
    """
    if len(u0) != basis.n_modes:
        raise UsageError(f"u0 has {len(u0)} coefficients, basis {basis.n_modes}")
    if u0.alpha != basis.alpha:
        raise UsageError("u0 was projected on a different alpha")
    if signal.n_modes != basis.n_modes:
        raise UsageError("control was synthesized for a different mode count")
    if grid_size < 2:
        raise DomainError("need at least 2 grid intervals")
    t = np.linspace(0.0, signal.T, grid_size + 1)
    mu0 = u0.coefficients
    v = _closed_form_modes(basis, signal, mu0, t)
    v_hat = _integrator_modes(basis, signal, mu0, t)
    deviation = float(np.max(np.abs(v - v_hat)))
    if deviation > ORACLE_TOL:
        warnings.warn(
            f"closed-form and numeric trajectories deviate by {deviation:.3e} "
            f"(> {ORACLE_TOL:.0e}); the grid may be too coarse", stacklevel=2)
    G_trace = np.asarray(signal.eval_G(t))
    u_coeffs = v + (basis.neumann_traces / basis.eigenvalues)[:, None] * G_trace[None, :]
    return Trajectory(t=t, v=v, G_trace=G_trace, u_coeffs=u_coeffs,
                      oracle_deviation=deviation, alpha=basis.alpha,
                      lambdas=basis.eigenvalues)


@dataclass(frozen=True)
class TerminalError:
    """Per-mode terminal residual v_n(T) - muT_n and its l2 aggregate."""

    per_mode: np.ndarray
    aggregate: float


def terminal_error(traj: Trajectory, muT: MomentVector) -> TerminalError:
    """Residual of the reached terminal state against the target."""
    if len(muT) != traj.n_modes:
        raise UsageError(f"target has {len(muT)} coefficients, trajectory "
                         f"{traj.n_modes} modes")
    res = traj.terminal - muT.coefficients
    return TerminalError(per_mode=res, aggregate=float(np.linalg.norm(res)))


def reconstruct_state(basis: SpectralBasis, traj: Trajectory, t: float,
                      xs) -> np.ndarray:
    """u(x, t) = sum_n v_n(t) Phi_n(x) + (1 - x^{1-a}) G(t) at grid time t.

    u(0, t) = G(t) and u(1, t) = 0 up to series truncation.
    """
    idx = np.flatnonzero(np.isclose(traj.t, t, rtol=0.0, atol=1e-12))
    if len(idx) == 0:
        raise UsageError(f"t={t} is not on the trajectory grid")
    j = int(idx[0])
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.full(xs.shape, traj.G_trace[j] * 0.0)
    for i in range(traj.n_modes):
        out += traj.v[i, j] * eval_eigenfunction(basis, i + 1, xs)
    out += (1.0 - xs ** (1.0 - basis.alpha)) * traj.G_trace[j]
    return out
