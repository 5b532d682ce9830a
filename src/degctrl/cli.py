"""Command-line entry point.

Subcommands: spectrum, biortho, synthesize, simulate, cost-sweep, verify.
Configuration comes from flags or a key=value file (--config); flags win.
Artifacts are deterministic: identical configuration (including --seed)
produces byte-identical JSON/CSV, and every artifact embeds its resolved
configuration. Exit status: 0 only if every internal oracle on the invoked
path passed; 1 on numerical failure; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bessel
from ._fmt import write_csv, write_json
from .biortho import bound_profile, build_biortho, eval_sigma, exponential_gram
from .control import moment_residual, reachability_score, synthesize
from .cost import BOUNDARY_TOL, cost_sweep, null_control, resolve_u0
from .errors import DegctrlError, DomainError, UsageError
from .quadrature import panel_rule
from .spectrum import (MomentVector, gram_matrix, make_basis,
                       neumann_trace_numeric, source_coefficient,
                       source_coefficient_quadrature)

#: every option in --help order: config-file key -> (type, default,
#: subcommands taking it as a flag, None meaning all); the resolved
#: configuration names it with '-' as '_', lower-cased
_OPTIONS = {
    "alpha": (float, None, None),
    "modes": (int, 8, None),
    "horizon": (float, 1.0, None),
    "tol": (float, 1e-6, None),
    "out-dir": (str, ".", None),
    "seed": (int, 0, None),
    "format": (str, "json", None),
    "alphas": (str, None, ("cost-sweep",)),
    "u0": (str, None, ("synthesize", "simulate", "cost-sweep")),
    "target": (str, None, ("synthesize",)),
    "reach-K": (float, None, ("synthesize",)),
    "grid": (int, 512, ("simulate",)),
}

#: the values an option accepts, for flags and config files alike
_CHOICES = {"format": ("csv", "json")}


def _dest(key: str) -> str:
    return key.replace("-", "_").lower()


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _OPTIONS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            typ = _OPTIONS[key][0]
            try:
                values[key] = typ(val)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: {key} expects "
                                 f"{typ.__name__}, got {val!r}") from None
            if key in _CHOICES and values[key] not in _CHOICES[key]:
                raise UsageError(f"{path}:{lineno}: {key} must be one of "
                                 f"{', '.join(_CHOICES[key])}, got {val!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degctrl",
        description="boundary control of the degenerate heat equation "
                    "u_t = (x^a u_x)_x at the degeneracy point")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file; flags win")
        for key, (typ, _, commands) in _OPTIONS.items():
            if commands is None or name in commands:
                p.add_argument(f"--{key}", dest=_dest(key), type=typ, default=None,
                               choices=_CHOICES.get(key))
    return parser


def _resolve(args) -> dict:
    """Merge flags over config-file values over defaults."""
    from_file = _load_config(args.config) if args.config else {}
    cfg = {"command": args.command}
    for key, (_, default, _) in _OPTIONS.items():
        flag = getattr(args, _dest(key), None)
        cfg[_dest(key)] = flag if flag is not None else from_file.get(key, default)
    return cfg


def _need_alpha(cfg) -> float:
    if cfg["alpha"] is None:
        raise UsageError("--alpha is required (flag or config file)")
    a = cfg["alpha"]
    if cfg["command"] == "spectrum":
        if not 0.0 <= a <= 1.0:
            raise UsageError("alpha must lie in [0, 1]")
    elif not 0.0 <= a < 1.0:
        raise UsageError("alpha must lie in [0, 1) for synthesis commands")
    return a


def _config_header(cfg) -> str:
    return json.dumps(cfg, sort_keys=True)


def _out(cfg, name) -> str:
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return os.path.join(cfg["out_dir"], name)


def _write_json(cfg, name, payload) -> None:
    write_json(_out(cfg, name), {"config": cfg, **payload})


def _family(cfg):
    """The spectral basis and biorthogonal family the configuration names."""
    basis = make_basis(_need_alpha(cfg), cfg["modes"])
    return basis, build_biortho(basis.eigenvalues, cfg["horizon"], tol=cfg["tol"])


def _u0(cfg, basis):
    if cfg["u0"] is None:
        raise UsageError("--u0 is required for this command")
    return resolve_u0(cfg["u0"], basis)


def _cmd_spectrum(cfg) -> int:
    alpha = _need_alpha(cfg)
    n = cfg["modes"]
    if alpha == 1.0:
        from .spectrum import make_limit_basis
        lb = make_limit_basis(n)
        lams = (0.5 * lb.zeros) ** 2
        payload = {"alpha": 1.0, "limit_basis": True,
                   "zeros": lb.zeros.tolist(), "eigenvalues": lams.tolist()}
        _write_json(cfg, "spectrum.json", payload)
        print("lambda = {" + ", ".join(f"{v:.10g}" for v in lams) + "} [limit basis] | PASS")
        return 0
    basis = make_basis(alpha, n)
    payload = basis.to_json_dict()
    if cfg["format"] == "csv":
        write_csv(_out(cfg, "spectrum.csv"),
                  ("n", "zero", "eigenvalue", "norm_const", "neumann_trace"),
                  ([m.index, m.zero, m.eigenvalue, m.norm_const, m.neumann_trace]
                   for m in basis.modes), _config_header(cfg))
    else:
        _write_json(cfg, "spectrum.json", payload)
    gap_ok = (basis.gap["sqrt_lambda_1"] >= basis.gap["first_bound"]
              and basis.gap["min_gap"] >= basis.gap["gap_bound"])
    lams = basis.eigenvalues
    print("lambda = {" + ", ".join(f"{v:.10g}" for v in lams) + "}"
          + f" | gap certificate {'PASS' if gap_ok else 'FAIL'}")
    return 0 if gap_ok else 1


def _cmd_biortho(cfg) -> int:
    _, fam = _family(cfg)
    prof = bound_profile(fam) if fam.n_modes >= 3 else None
    payload = fam.to_json_dict()
    if prof is not None:
        payload["bound_profile"] = {"K": prof.K, "log_B": prof.log_B,
                                    "fit_rel_rms": prof.fit_rel_rms}
    _write_json(cfg, "biortho.json", payload)
    ok = fam.residual_max <= cfg["tol"] and np.max(np.abs(fam.zero_mean_values)) <= 1e-8
    print(f"residual_max = {fam.residual_max:.3e}, cond = {fam.gram_condition:.3e}"
          f" | {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_synthesize(cfg) -> int:
    basis, fam = _family(cfg)
    mu0 = _u0(cfg, basis)
    if cfg["target"] is not None:
        muT = resolve_u0(cfg["target"], basis)
        k = cfg["reach_k"] if cfg["reach_k"] is not None else bound_profile(fam).K
        score = reachability_score(muT, basis.alpha, k)
        if not score.passed:
            print(f"target fails the reachability score (K={k:.4g}); refusing "
                  f"to synthesize", file=sys.stderr)
            return 1
    else:
        muT = MomentVector(alpha=basis.alpha, coefficients=np.zeros(basis.n_modes),
                           basis_id=basis.basis_id)
    sig = synthesize(basis, fam, mu0, muT)
    res = moment_residual(basis, sig, mu0, muT)
    sig.save_json(_out(cfg, "control.json"))
    sig.save_csv(_out(cfg, "control_samples.csv"))
    ok = (np.max(np.abs(res)) <= cfg["tol"]
          and abs(sig.terminal_value) <= BOUNDARY_TOL)
    print(f"||G||_H1 = {sig.norms['G_h1']:.6g}, |G(T)| = {abs(sig.terminal_value):.2e}, "
          f"moment residual {np.max(np.abs(res)):.2e} | {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_simulate(cfg) -> int:
    basis, fam = _family(cfg)
    _, _, traj, checks = null_control(basis, fam, _u0(cfg, basis), cfg["tol"],
                                      grid_size=cfg["grid"])
    traj.save_csv(_out(cfg, "trajectory.csv"))
    _write_json(cfg, "trajectory.json", traj.summary_dict())
    passed = {name: value <= limit for name, value, limit in checks}
    ok = passed["terminal_state"] and passed["propagation_oracle"]
    print(f"terminal residual {np.max(np.abs(traj.terminal)):.2e}, oracle "
          f"deviation {traj.oracle_deviation:.2e} | {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_cost_sweep(cfg) -> int:
    if cfg["alphas"] is not None:
        try:
            alphas = [float(s) for s in str(cfg["alphas"]).split(",") if s.strip()]
        except ValueError:
            raise UsageError("--alphas must be comma-separated numbers, got "
                             f"{cfg['alphas']!r}") from None
    elif cfg["alpha"] is not None:
        alphas = [cfg["alpha"]]
    else:
        raise UsageError("--alphas (or --alpha) is required for cost-sweep")
    if any(not 0.0 <= a < 1.0 for a in alphas):
        raise UsageError("all sweep alphas must lie in [0, 1)")
    u0 = cfg["u0"] if cfg["u0"] is not None else "mode:1"
    report = cost_sweep(alphas, u0, cfg["horizon"], cfg["modes"], tol=cfg["tol"])
    report.save_csv(_out(cfg, "cost_sweep.csv"), header_comment=_config_header(cfg))
    if cfg["format"] == "json":
        _write_json(cfg, "cost_sweep.json", report.to_json_dict())
    certified = all(p.ok and p.lower <= p.upper for p in report.points)
    print(f"{len(report.points)} alphas, product_upper ratio "
          f"{report.product_upper_ratio:.3g}, lower<=upper "
          f"{'PASS' if certified else 'FAIL'}")
    return 0 if certified else 1


def _verify_checks(cfg):
    basis, fam = _family(cfg)
    n = cfg["modes"]
    T = cfg["horizon"]
    tol = cfg["tol"]
    rng = np.random.default_rng(cfg["seed"])
    checks = []

    def record(name, passed, metric):
        checks.append({"name": name, "passed": bool(passed), "metric": metric})

    record("gap_certificate",
           basis.gap["sqrt_lambda_1"] >= basis.gap["first_bound"] - 1e-12
           and basis.gap["min_gap"] >= basis.gap["gap_bound"] - 1e-12,
           basis.gap["min_gap"])

    resid = max(abs(bessel.bessel_j(basis.nu, m.zero).value) for m in basis.modes)
    brackets = all(lo - 1e-9 <= m.zero <= hi + 1e-9 for m in basis.modes
                   for lo, hi in [bessel.lorch_muldoon_bracket(basis.nu, m.index)])
    record("zero_certification", resid < 1e-12 and brackets, resid)

    gram_dev = float(np.max(np.abs(gram_matrix(basis) - np.eye(n))))
    record("orthonormality", gram_dev < 1e-8, gram_dev)

    src_dev = max(abs(source_coefficient_quadrature(basis, k) - source_coefficient(basis, k))
                  for k in range(1, n + 1))
    record("source_coefficient", src_dev < 1e-8, src_dev)

    trace_devs = [abs(neumann_trace_numeric(basis, 1, xs) - basis.modes[0].neumann_trace)
                  for xs in (1e-3, 1e-4, 1e-5)]
    record("neumann_trace_convergence",
           trace_devs[2] < trace_devs[1] < trace_devs[0], trace_devs[2])

    zm = float(np.max(np.abs(fam.zero_mean_values)))
    record("biorthogonality", fam.residual_max <= tol, fam.residual_max)
    record("zero_mean", zm <= 1e-8, zm)

    # min-norm: constraint-respecting perturbations cannot shrink the norm
    mids = 0.5 * (fam.lambdas[:-1] + fam.lambdas[1:])
    extra = np.concatenate([mids, [fam.lambdas[-1] * 1.5]])
    A = exponential_gram(fam.lambdas_full, T, extra)
    Gp = exponential_gram(extra, T)
    ok_min = True
    worst = 0.0
    for idx in (1, max(1, fam.n_modes // 2)):
        a_vec = fam.coeffs_reflected[:, idx - 1]
        base = fam.sigma_tilde_norm(idx) ** 2
        for _ in range(4):
            q = rng.standard_normal(len(extra))
            q -= np.linalg.lstsq(A, A @ q, rcond=None)[0]
            grown = base + 2.0 * a_vec @ (A @ q) + q @ Gp @ q
            worst = max(worst, (base - grown) / base)
            ok_min &= grown >= base * (1.0 - 1e-8)
    record("min_norm_optimality", ok_min, worst)

    mu0 = resolve_u0(cfg["u0"] or "mode:1", basis)
    *_, oracles = null_control(basis, fam, mu0, tol, grid_size=cfg["grid"])
    for name, value, limit in oracles:
        record(name, value <= limit, value)

    # replay int sigma_m e^{lambda_m t} dt = 1 by quadrature, damped split
    # on 24 panels: mirrored by s = T - t, 32 panels would reuse the nodes
    # of the family's own residual rule and lose the independence
    t, w = panel_rule(0.0, T, 24, 32)
    replay = 0.0
    for m in range(1, min(n, 4) + 1):
        lam_m = fam.lambdas[m - 1]
        damped = np.dot(w, eval_sigma(fam, m, t) * np.exp(lam_m * (t - T)))
        replay = max(replay, abs(damped * np.exp(lam_m * T) - 1.0))
    record("sigma_replay", replay <= tol, float(replay))
    return checks


def _cmd_verify(cfg) -> int:
    checks = _verify_checks(cfg)
    all_ok = all(c["passed"] for c in checks)
    _write_json(cfg, "verify.json", {"checks": checks, "all_passed": all_ok})
    for c in checks:
        print(f"{c['name']:26s} {'PASS' if c['passed'] else 'FAIL'} "
              f"(metric {c['metric']:.3e})")
    print(f"verify: {'PASS' if all_ok else 'FAIL'} "
          f"({sum(c['passed'] for c in checks)}/{len(checks)} checks)")
    return 0 if all_ok else 1


_COMMANDS = {
    "spectrum": (_cmd_spectrum, "eigenvalues, eigenfunction data"),
    "biortho": (_cmd_biortho, "biorthogonal family diagnostics"),
    "synthesize": (_cmd_synthesize, "moment-method control"),
    "simulate": (_cmd_simulate, "evolve the controlled equation"),
    "cost-sweep": (_cmd_cost_sweep, "cost bounds over alphas"),
    "verify": (_cmd_verify, "run the invariant battery"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args)
        return _COMMANDS[args.command][0](cfg)
    except (UsageError, DomainError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except DegctrlError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
