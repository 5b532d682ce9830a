"""Command-line entry point.

Subcommands: spectrum, biortho, synthesize, simulate, cost-sweep, verify.
Configuration comes from flags or a key=value file (--config); flags win.
Artifacts are deterministic: identical configuration (including --seed)
produces byte-identical JSON/CSV. The spectrum, biortho, cost_sweep and
verify artifacts and trajectory.json embed the resolved configuration;
control.json, control_samples.csv and trajectory.csv do not. Exit status:
0 only if every oracle on the invoked path passed (for synthesize,
simulate and biortho every check the library returns, for cost-sweep the
report's verdict); 1 on numerical failure; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from ._fmt import write_csv, write_json
from .biortho import bound_profile, build_biortho
from .control import reachability_score
from .cost import (_failures, _family_checks, _synthesis_step, cost_sweep,
                   null_control, resolve_u0, verify)
from .errors import AccuracyError, DegctrlError, DomainError, UsageError
from .spectrum import make_basis, make_limit_basis

_SYNTHESIS = ("biortho", "synthesize", "simulate", "cost-sweep", "verify")

#: every option in --help order: config-file key -> (type, default,
#: subcommands taking it as a flag, None meaning all); a config file may
#: set any key, and the resolved configuration names it with '-' as '_',
#: lower-cased. Only verify reads the seed; synthesize and simulate take
#: it so that one argv serves the verify, synthesize, simulate chain
_OPTIONS = {
    "alpha": (float, None, None),
    "modes": (int, 8, None),
    "horizon": (float, 1.0, _SYNTHESIS),
    "tol": (float, 1e-6, _SYNTHESIS),
    "out-dir": (str, ".", None),
    "seed": (int, 0, ("synthesize", "simulate", "verify")),
    "format": (str, "json", ("spectrum", "cost-sweep")),
    "alphas": (str, None, ("cost-sweep",)),
    "u0": (str, None, ("synthesize", "simulate", "cost-sweep", "verify")),
    "target": (str, None, ("synthesize",)),
    "reach-K": (float, None, ("synthesize",)),
    "grid": (int, 512, ("simulate", "verify")),
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


@functools.cache
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
    """The required alpha; make_basis rules on it but for spectrum's 1, the limit basis."""
    if cfg["alpha"] is None:
        raise UsageError("--alpha is required (flag or config file)")
    if cfg["command"] == "spectrum" and not 0.0 <= cfg["alpha"] <= 1.0:
        raise UsageError("alpha must lie in [0, 1]")
    return cfg["alpha"]


def _config_header(cfg) -> str:
    return json.dumps(cfg, sort_keys=True)


def _out(cfg, name) -> str:
    os.makedirs(cfg["out_dir"], exist_ok=True)
    return os.path.join(cfg["out_dir"], name)


def _write_json(cfg, name, payload) -> None:
    write_json(_out(cfg, name), {"config": cfg, **payload})


def _family(cfg):
    """The spectral basis and biorthogonal family the configuration names."""
    return _chain(repr(_need_alpha(cfg)), cfg["modes"], cfg["horizon"], cfg["tol"])


@functools.lru_cache(maxsize=1)   # one pair for verify, synthesize, simulate in a process
def _chain(alpha: str, modes, horizon, tol):   # repr(alpha) keeps -0.0 apart from 0.0
    basis = make_basis(float(alpha), modes)
    return basis, build_biortho(basis.eigenvalues, horizon, tol=tol)


def _u0(cfg, basis):
    if cfg["u0"] is None:
        raise UsageError("--u0 is required for this command")
    return resolve_u0(cfg["u0"], basis)


def _cmd_spectrum(cfg) -> int:
    alpha = _need_alpha(cfg)
    n = cfg["modes"]
    if alpha == 1.0:
        lb = make_limit_basis(n)
        lams = (0.5 * lb.zeros) ** 2
        columns = ("n", "zero", "eigenvalue")
        rows = zip(range(1, n + 1), lb.zeros.tolist(), lams.tolist())
        payload = {"alpha": 1.0, "limit_basis": True, "zeros": lb.zeros.tolist(),
                   "eigenvalues": lams.tolist()}
        verdict = " [limit basis] | PASS"
    else:
        basis = make_basis(alpha, n)
        lams = basis.eigenvalues
        columns = ("n", "zero", "eigenvalue", "norm_const", "neumann_trace")
        rows = ([m.index, m.zero, m.eigenvalue, m.norm_const, m.neumann_trace]
                for m in basis.modes)
        payload = basis.to_json_dict()
        verdict = " | gap certificate PASS"   # make_basis raises unless it holds
    if cfg["format"] == "csv":
        write_csv(_out(cfg, "spectrum.csv"), columns, rows, _config_header(cfg))
    else:
        _write_json(cfg, "spectrum.json", payload)
    print("lambda = {" + ", ".join(f"{v:.10g}" for v in lams) + "}" + verdict)
    return 0


def _cmd_biortho(cfg) -> int:
    _, fam = _family(cfg)
    payload = fam.to_json_dict()
    if fam.n_modes >= 3:
        prof = bound_profile(fam)
        payload["bound_profile"] = {"K": prof.K, "log_B": prof.log_B,
                                    "fit_rel_rms": prof.fit_rel_rms}
    _write_json(cfg, "biortho.json", payload)
    failed = _failures(_family_checks(fam, cfg["tol"]))
    print(f"residual_max = {fam.residual_max:.3e}, cond = {fam.gram_condition:.3e}"
          f" | {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


def _cmd_synthesize(cfg) -> int:
    basis, fam = _family(cfg)
    mu0 = _u0(cfg, basis)
    muT = None
    if cfg["target"] is not None:
        muT = resolve_u0(cfg["target"], basis)
        k = cfg["reach_k"] if cfg["reach_k"] is not None else bound_profile(fam).K
        if not k > 0.0 and cfg["reach_k"] is None:
            raise AccuracyError(f"bound_profile's fitted K = {k:.4g} is not "
                                f"positive; supply K with --reach-K")
        score = reachability_score(muT, basis.alpha, k)
        if not score.passed:
            print(f"target fails the reachability score (K={k:.4g}); refusing "
                  f"to synthesize", file=sys.stderr)
            return 1
    sig, _, checks = _synthesis_step(basis, fam, mu0, cfg["tol"], muT)
    sig.save_json(_out(cfg, "control.json"))
    sig.save_csv(_out(cfg, "control_samples.csv"))
    reading = {name: value for name, value, _ in checks}
    failed = _failures(checks)
    print(f"||G||_H1 = {sig.norms['G_h1']:.6g}, |G(T)| = "
          f"{reading['boundary_return']:.2e}, moment residual "
          f"{reading['moment_residuals']:.2e} | {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


def _cmd_simulate(cfg) -> int:
    basis, fam = _family(cfg)
    _, _, traj, checks = null_control(basis, fam, _u0(cfg, basis), cfg["tol"],
                                      grid_size=cfg["grid"])
    traj.save_csv(_out(cfg, "trajectory.csv"))
    _write_json(cfg, "trajectory.json", traj.summary_dict())
    reading = {name: value for name, value, _ in checks}
    failed = _failures(checks)
    print(f"terminal residual {reading['terminal_state']:.2e}, oracle deviation "
          f"{reading['propagation_oracle']:.2e} | {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


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
    if not alphas:
        raise UsageError(f"--alphas names no alpha, got {cfg['alphas']!r}")
    u0 = cfg["u0"] if cfg["u0"] is not None else "mode:1"
    report = cost_sweep(alphas, u0, cfg["horizon"], cfg["modes"], tol=cfg["tol"])
    report.save_csv(_out(cfg, "cost_sweep.csv"), header_comment=_config_header(cfg))
    if cfg["format"] == "json":
        _write_json(cfg, "cost_sweep.json", report.to_json_dict())
    print(f"{len(report.points)} alphas, product_upper ratio "
          f"{report.product_upper_ratio:.3g}, lower<=upper "
          f"{'PASS' if report.certified else 'FAIL'}")
    return 0 if report.certified else 1


def _cmd_verify(cfg) -> int:
    basis, fam = _family(cfg)
    mu0 = resolve_u0(cfg["u0"] or "mode:1", basis)
    checks = verify(basis, fam, mu0, cfg["tol"], cfg["seed"], cfg["grid"])
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
    except (UsageError, DomainError, FileNotFoundError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except DegctrlError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
