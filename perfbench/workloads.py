"""The four benchmark workloads: seeded inputs, one op each, and the checks.

Every workload exposes

* ``inputs(seed)`` -- a function ``i -> input of op i``; the same seed gives
  the same sequence;
* ``op(inp)`` -- the timed call into degctrl;
* ``check(inp, out)`` -- the correctness checks, run outside the timed
  interval. It returns an ``Outcome`` or raises ``CheckFailed``.

Alphas follow a golden-ratio sequence with a seeded offset, so every run
covers [0, 0.99) evenly and medians over a run do not depend on which
alphas one seed happens to draw.

Calls go through the ``degctrl`` module attributes at call time (never
names bound here at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

import degctrl as dc

ALPHA_MAX = 0.99
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# thresholds of the pipeline's own oracles; pinned here so that a later
# change cannot pass the benchmark by loosening them in src/
MOMENT_TOL = 1e-6
BOUNDARY_TOL = 1e-8
TERMINAL_TOL = 1e-5
ORACLE_TOL = 1e-6
ZERO_TOL = 1e-12
FAMILY_TOL = 1e-6
# The graded rule and the library's 32 x 32 rule estimate the same residual;
# over 300 certified families the graded value exceeded the library's by at
# most 0.6%, so a family certified just under FAMILY_TOL may read a hair
# above it here. A gate loosened to 2e-6 still fails.
INDEPENDENT_HEADROOM = 1.05


class CheckFailed(Exception):
    """An op's output failed a correctness check."""


@dataclass
class Outcome:
    """What a passing op contributes to the end-to-end metrics."""

    certified_n: float
    brackets: list = field(default_factory=list)   # upper / lower ratios
    zeros: tuple | None = None                      # (nu, zeros) for check_zeros


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _golden(offset, i):
    """Point i of the golden-ratio sequence in [0, 1) started at ``offset``."""
    return (offset + i * _GOLDEN) % 1.0


def _zero_moments(basis):
    return dc.MomentVector(alpha=basis.alpha, coefficients=np.zeros(basis.n_modes),
                           basis_id=basis.basis_id)


def _zeros(basis):
    return basis.nu, np.array(basis.zeros)


def check_zeros(nu, zeros):
    """Independent oracle: scipy's J_nu at every zero of a basis.

    The harness runs it on every passing op's ``Outcome.zeros`` after the
    timed loop and after reading the peak RSS, so that scipy's import and
    memory count in neither set-up time nor ``peak_rss_mb``.
    """
    from scipy.special import jv
    worst = float(np.max(np.abs(jv(nu, zeros))))
    _require(worst < ZERO_TOL, f"|J_nu(zero)| = {worst:.3e} >= {ZERO_TOL:.0e}")


def _bracket(alpha, mu0, T, upper):
    """upper / certified lower bound for the same initial state."""
    lower = dc.cost_lower(alpha, mu0, T)
    _require(0.0 < lower <= upper, f"cost bracket lower {lower:.6g} vs upper {upper:.6g}")
    return upper / lower


# ---------------------------------------------------------------- steer

class Steer:
    """README quickstart chain on a seeded smooth initial state, N = 8, T = 1."""

    N = 8
    T = 1.0
    GRID = 512

    def inputs(self, seed):
        offset = np.random.default_rng([seed, 1]).random()

        def make(i):
            coeffs = np.random.default_rng([seed, 1, i]).uniform(-0.5, 0.5, 3)
            coeffs[0] += 1.0
            return {"alpha": ALPHA_MAX * _golden(offset, i), "c": coeffs}
        return make

    def op(self, inp):
        c0, c1, c2 = inp["c"]
        basis = dc.make_basis(inp["alpha"], self.N)
        mu0 = dc.project(basis, lambda x: (c0 + c1 * x + c2 * x * x) * x * (1.0 - x))
        fam = dc.build_biortho(basis.eigenvalues, self.T)
        muT = _zero_moments(basis)
        sig = dc.synthesize(basis, fam, mu0, muT)
        res = dc.moment_residual(basis, sig, mu0, muT)
        traj = dc.evolve(basis, mu0, sig, grid_size=self.GRID)
        return basis, mu0, sig, res, traj

    def check(self, inp, out):
        basis, mu0, sig, res, traj = out
        worst = float(np.max(np.abs(res)))
        _require(worst <= MOMENT_TOL, f"moment residual {worst:.3e}")
        _require(abs(sig.terminal_value) <= BOUNDARY_TOL,
                 f"|G(T)| = {abs(sig.terminal_value):.3e}")
        term = float(np.max(np.abs(traj.terminal)))
        _require(term <= TERMINAL_TOL, f"terminal residual {term:.3e}")
        _require(traj.oracle_deviation <= ORACLE_TOL,
                 f"oracle deviation {traj.oracle_deviation:.3e}")
        ratio = _bracket(inp["alpha"], mu0, self.T, sig.norms["G_h1"])
        return Outcome(certified_n=self.N, brackets=[ratio], zeros=_zeros(basis))


# ---------------------------------------------------------------- sweep

class Sweep:
    """cost_sweep of mode:1 over seeded, sorted alphas, N = 12, T = 1."""

    N = 12
    T = 1.0
    POINTS = 5

    def inputs(self, seed):
        offsets = np.random.default_rng([seed, 2]).random(self.POINTS)

        def make(i):
            # one alpha per stratum of [0, 0.99): sorted, and every op
            # spans the whole range
            return {"alphas": [ALPHA_MAX * (k + _golden(offsets[k], i)) / self.POINTS
                               for k in range(self.POINTS)]}
        return make

    def op(self, inp):
        return dc.cost_sweep(inp["alphas"], "mode:1", self.T, self.N)

    def check(self, inp, report):
        _require(len(report.points) == len(inp["alphas"]), "sweep lost points")
        ratios = []
        for p in report.points:
            _require(p.ok, f"alpha={p.alpha}: {p.message}")
            _require(0.0 < p.lower <= p.upper,
                     f"alpha={p.alpha}: lower {p.lower:.6g} vs upper {p.upper:.6g}")
            ratios.append(p.upper / p.lower)
        return Outcome(certified_n=float(np.mean([p.n_used for p in report.points])),
                       brackets=ratios)


# -------------------------------------------------------------- ceiling

def _graded_rule(T, levels=16, nodes=24):
    """Gauss-Legendre on panels graded geometrically toward s = 0.

    Panels [T 2^-(k+1), T 2^-k] for k < levels plus [0, T 2^-levels]; each
    resolves e^{-c s} for every c whose boundary layer falls inside it.
    Shares nothing with the uniform 32 x 32 rule the library certifies on.
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate([[0.0], T * 2.0 ** -np.arange(levels, -1, -1)])
    a, b = edges[:-1, None], edges[1:, None]
    s = (a + (b - a) * (xg[None, :] + 1.0) / 2.0).ravel()
    w = ((b - a) / 2.0 * wg[None, :]).ravel()
    return s.astype(np.longdouble), w.astype(np.longdouble)


def independent_residual(fam):
    """max |int tilde_sigma_n e^{-lambda_m s} ds - delta_nm| on the graded rule.

    tilde_sigma_n(s) = sum_k a[n][k] e^{-lambda_k s} (see degctrl.biortho);
    m = 0 is the zero-mean row. Summed in extended precision because the
    coefficients a[n][k] reach ~1e12 at the largest certified N.
    """
    s, w = _graded_rule(fam.T)
    lam = np.asarray(fam.lambdas_full, dtype=np.longdouble)
    E = np.exp(-lam[:, None] * s[None, :])                    # (N+1, P)
    sig = E.T @ fam.coeffs_reflected.astype(np.longdouble)    # (P, N)
    moments = (E * w[None, :]) @ sig                          # (N+1, N)
    target = np.zeros(moments.shape)
    target[1:, :] = np.eye(fam.n_modes)
    return float(np.max(np.abs((moments - target).astype(float))))


class Ceiling:
    """build_biortho on every prefix N = 8..16 of one seeded basis."""

    LADDER = range(8, 17)
    HORIZONS = (0.5, 1.0, 2.0)

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        offset = rng.random()
        shift = int(rng.integers(len(self.HORIZONS)))

        def make(i):
            return {"alpha": ALPHA_MAX * _golden(offset, i),
                    "T": self.HORIZONS[(i + shift) % len(self.HORIZONS)]}
        return make

    def op(self, inp):
        basis = dc.make_basis(inp["alpha"], self.LADDER[-1])
        best = None
        for n in self.LADDER:
            try:
                best = (n, dc.build_biortho(basis.eigenvalues[:n], inp["T"]))
            except (dc.ConditioningError, dc.AccuracyError):
                pass
        return basis, best

    def check(self, inp, out):
        basis, best = out
        _require(best is not None,
                 f"no N in {self.LADDER[0]}..{self.LADDER[-1]} certified")
        n, fam = best
        resid = independent_residual(fam)
        _require(resid <= FAMILY_TOL * INDEPENDENT_HEADROOM,
                 f"N={n}: independent biorthogonality residual {resid:.3e}")
        # cost bracket of mode 1 steered to rest with the certified family
        sub = dc.make_basis(inp["alpha"], n)
        mu0 = dc.unit_moment(sub, 1)
        sig = dc.synthesize(sub, fam, mu0, _zero_moments(sub))
        ratio = _bracket(inp["alpha"], mu0, inp["T"], sig.norms["G_h1"])
        return Outcome(certified_n=n, brackets=[ratio], zeros=_zeros(basis))


# ------------------------------------------------------------------ cli

class Cli:
    """degctrl verify, synthesize and simulate, called in-process, N = 8, T = 1.

    synthesize is there for the cost bracket: only its artifact holds the
    control's norm.
    """

    COMMANDS = ("verify", "synthesize", "simulate")

    def __init__(self, workdir):
        import degctrl.cli  # noqa: F401  (binds dc.cli)
        self.workdir = workdir
        self._replayed = False

    def inputs(self, seed):
        offset = np.random.default_rng([seed, 4]).random()

        def make(i):
            return {"alpha": ALPHA_MAX * _golden(offset, i), "seed": seed * 100003 + i,
                    "out_dir": tempfile.mkdtemp(prefix=f"op{i}-", dir=self.workdir)}
        return make

    @staticmethod
    def argv(command, inp):
        args = [command, "--alpha", repr(inp["alpha"]), "--modes", "8", "--horizon", "1",
                "--seed", str(inp["seed"]), "--out-dir", inp["out_dir"]]
        if command != "verify":
            args += ["--u0", "poly:x(1-x)"]
        return args

    def op(self, inp):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [dc.cli.main(self.argv(c, inp)) for c in self.COMMANDS]

    def _load(self, inp, name):
        with open(os.path.join(inp["out_dir"], name)) as fh:
            return json.load(fh)

    def check(self, inp, codes):
        _require(codes == [0] * len(self.COMMANDS), f"exit codes {codes}")
        _require(self._load(inp, "verify.json")["all_passed"] is True,
                 "verify: all_passed is false")
        traj = self._load(inp, "trajectory.json")
        term = max(abs(v) for v in traj["terminal"])
        _require(term <= TERMINAL_TOL, f"terminal residual {term:.3e}")
        _require(traj["oracle_deviation"] <= ORACLE_TOL,
                 f"oracle deviation {traj['oracle_deviation']:.3e}")
        control = self._load(inp, "control.json")
        # the initial state from its definition, not from the artifact under test
        mu0 = dc.project(dc.make_basis(inp["alpha"], 8), lambda x: x * (1.0 - x))
        ratio = _bracket(inp["alpha"], mu0, 1.0, control["norms"]["G_h1"])
        if not self._replayed:
            self._replayed = True
            self._check_replay(inp)
        shutil.rmtree(inp["out_dir"])
        return Outcome(certified_n=8, brackets=[ratio])

    def _check_replay(self, inp):
        """The same configuration must rewrite every artifact byte for byte.

        The artifacts embed their configuration, output directory included,
        so the replay writes into the same directory.
        """
        out_dir = inp["out_dir"]
        first = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                first[name] = fh.read()
        codes = self.op(inp)
        _require(codes == [0] * len(self.COMMANDS), f"replay exit codes {codes}")
        _require(sorted(os.listdir(out_dir)) == sorted(first), "replay wrote other files")
        for name, data in first.items():
            with open(os.path.join(out_dir, name), "rb") as fh:
                _require(fh.read() == data, f"replayed {name} differs")


def make_workload(name, workdir):
    if name == "cli":
        return Cli(workdir)
    return {"steer": Steer, "sweep": Sweep, "ceiling": Ceiling}[name]()


NAMES = ("steer", "sweep", "ceiling", "cli")
