"""Exact spectral evolution of the boundary-controlled degenerate equation.

The boundary-controlled problem is lifted to homogeneous Dirichlet form by
v(x,t) = u(x,t) - (p(x)/p(0)) G(t) with p(x)/p(0) = 1 - x^{1-a}, which
turns the boundary input into the distributed source -(p/p(0)) g(t). Mode
by mode,

    v_n'(t) = -lambda_n v_n(t) - (r_n / lambda_n) g(t),   v_n(0) = mu0_n,

because int_0^1 (p/p(0)) Phi_n dx = r_n / lambda_n. Since g is an
exponential sum, every Duhamel convolution is analytic:

    int_0^t e^{-lambda_n (t-s)} e^{lambda_k (s-T)} ds
        = (e^{lambda_k (t-T)} - e^{-lambda_n t - lambda_k T}) / (lambda_n + lambda_k).

The exponents are 0 and a positive ladder (``build_biortho`` validates
it), so lambda_n + lambda_k >= lambda_n > 0: there is no confluent case.
Against the weights the convolutions sum through one grid-by-exponent
product, S[j, n] = sum_k w_k e^{lambda_k (t_j-T)} / (lambda_n + lambda_k),
whose row t_0 = 0 holds the e^{-lambda_k T} terms:

    v_n(t_j) = e^{-lambda_n t_j} mu0_n
               - (r_n / lambda_n) (S[j, n] - e^{-lambda_n t_j} S[0, n]),

which is mu0_n exactly at t_0. The stored trajectory is this closed form.
An exponential integrator that never sees the convolution algebra runs
alongside, and the maximal deviation between the two is reported as the
oracle gap. It steps v_n(t_{j+1}) = e^{-lambda_n h} v_n(t_j) - (r_n /
lambda_n) int_{t_j}^{t_{j+1}} e^{-lambda_n (t_{j+1}-s)} g(s) ds with a
12-node Gauss rule per step, anchoring each node's e^{lambda_k (s-T)} at
the step's right end so that no factor exceeds 1 however large lambda h
is. On the uniform grid that rule is one (N+1) x N matrix for every
step, and a doubling scan runs the recursion. No working array is much
larger than the N x (grid+1) trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fmt import write_csv
from .control import ControlSignal
from .errors import DomainError, UsageError, _require_int
from .quadrature import gauss_legendre
from .spectrum import MomentVector, SpectralBasis

_GAUSS_X, _GAUSS_W = gauss_legendre(12)


@dataclass(frozen=True)
class Trajectory:
    """Grid trajectory of the lifted modes plus the boundary trace.

    ``v[i, j]`` is mode i+1 of the lifted state at t[j]; ``u_coeffs`` are
    the coefficients of the physical state u against the basis,
    u_n = v_n + (r_n / lambda_n) G(t). ``oracle_deviation``, the max closed-form
    vs integrator gap over all modes and grid points, is gated by ``null_control``.
    """

    t: np.ndarray
    v: np.ndarray
    G_trace: np.ndarray
    u_coeffs: np.ndarray
    oracle_deviation: float
    alpha: float

    @property
    def n_modes(self) -> int:
        return self.v.shape[0]

    @property
    def terminal(self) -> np.ndarray:
        """v_n(T); equals the terminal u-coefficients when |G(T)| ~ 0."""
        return self.v[:, -1]

    def save_csv(self, path) -> None:
        cols = ["t"] + [f"v{i + 1}" for i in range(self.n_modes)] + ["G"]
        write_csv(path, cols, np.column_stack((self.t, *self.v, self.G_trace)).tolist())

    def summary_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "T": float(self.t[-1]),
            "grid_points": len(self.t),
            "terminal": self.terminal.tolist(),
            "oracle_deviation": self.oracle_deviation,
            "terminal_boundary_value": float(self.G_trace[-1]),
        }


def _closed_form_modes(basis, signal, mu0, t, E):
    """v_n(t) on the grid from analytic Duhamel convolutions, factored
    through ``signal.duhamel_sums``; E = ``signal.exponentials(t)``."""
    lam = basis.eigenvalues
    S = signal.duhamel_sums(E, lam)
    D = np.exp(np.outer(-lam, t))
    conv = S.T - D * S[0][:, None]
    return D * mu0[:, None] - (basis.neumann_traces / lam)[:, None] * conv


def _integrator_modes(basis, signal, mu0, t, E):
    """Exponential integrator: exact e^{-lambda h} stepping, per-step
    Gauss-Legendre quadrature of the pointwise-evaluated source;
    E[j, k] = e^{lambda_k (t_j - T)}.

    Each node's e^{lambda_k (s - T)} is factored at its step's right end as
    e^{lambda_k (t_{j+1} - T)} e^{-lambda_k (1 - x_q) h/2}, both at most 1,
    so every step's rule is the same (N+1) x N matrix
    K[k, n] = sum_q w_q e^{-(lambda_k + lambda_n)(1 - x_q) h/2}.
    """
    lam = basis.eigenvalues
    lam_k = signal.lambdas_full
    half = (t[-1] - t[0]) / (len(t) - 1) / 2.0
    K = np.exp(np.multiply.outer(-(lam_k[:, None] + lam),
                                 (1.0 - _GAUSS_X) * half)) @ _GAUSS_W
    x = np.empty((len(t), len(lam)))
    x[0] = mu0
    # x[j+1, n] = -(r_n/lambda_n) int_{t_j}^{t_j+1} e^{-lambda_n (t_j+1 - s)} g(s) ds
    np.matmul(E[1:] * signal.weights, K, out=x[1:])
    x[1:] *= -(basis.neumann_traces / lam) * half
    decay = np.exp(-lam * (2.0 * half))
    # doubling scan of x[j+1] += decay * x[j]; decay**off <= 1 never overflows
    off = 1
    while off < len(t):
        x[off:] += decay**off * x[:-off]
        off *= 2
    return x.T


def evolve(basis: SpectralBasis, u0: MomentVector, signal: ControlSignal,
           grid_size: int = 512) -> Trajectory:
    """Propagate the lifted modes under the control over a uniform grid.

    The trajectory is the closed form; the numeric integrator only serves
    as a cross-check, reported as ``oracle_deviation``. Both cost a few
    (grid+1) x (N+1) exponentials and matrix products, and no working
    array is larger than a few times the trajectory. The deviation is only
    reported, never judged here: ``cost.null_control`` gates it.
    """
    if len(u0) != basis.n_modes:
        raise UsageError(f"u0 has {len(u0)} coefficients, basis {basis.n_modes}")
    if u0.alpha != basis.alpha:
        raise UsageError("u0 was projected on a different alpha")
    if signal.n_modes != basis.n_modes:
        raise UsageError("control was synthesized for a different mode count")
    _require_int("grid_size", grid_size, positive=False)
    if grid_size < 2:
        raise DomainError("need at least 2 grid intervals")
    t = np.linspace(0.0, signal.T, grid_size + 1)
    mu0 = u0.coefficients
    E = signal.exponentials(t)
    v = _closed_form_modes(basis, signal, mu0, t, E)
    v_hat = _integrator_modes(basis, signal, mu0, t, E)
    deviation = float(np.max(np.abs(v - v_hat)))
    G_trace = signal.G_from_exponentials(t, E)
    u_coeffs = v + (basis.neumann_traces / basis.eigenvalues)[:, None] * G_trace[None, :]
    return Trajectory(t=t, v=v, G_trace=G_trace, u_coeffs=u_coeffs,
                      oracle_deviation=deviation, alpha=basis.alpha)


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

