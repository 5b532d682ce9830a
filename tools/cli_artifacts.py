"""Record the CLI's artifacts, stdout, stderr and exit code on fixed configs.

Usage: python tools/cli_artifacts.py <checkout> <outdir> [<reference outdir>]

Runs every config below with the package from ``<checkout>/src``, each in
its own subprocess with ``<outdir>`` as working directory and a relative
``--out-dir``, so the configuration block embedded in each artifact does
not depend on where ``<outdir>`` lives. Config ``name`` leaves its
artifacts in ``<outdir>/<name>/`` next to ``stdout.txt``, ``stderr.txt``
and ``exit_code.txt``. Two checkouts produce byte-identical artifacts
exactly when their two outdirs hold the same files with the same bytes.

Given a reference outdir, written earlier by this tool for another
checkout, the tool then compares the two trees byte for byte, prints each
file that differs or exists on one side only, and exits 1 if there is one.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys

#: two-column x,value samples of x(1-x) for the csv: grammar
PROFILE_CSV = "".join(f"{x:.4f},{x * (1.0 - x):.6f}\n" for x in
                      (i / 40.0 for i in range(41)))

#: key=value file for the config-file case; flags given with it still win
CONFIG_FILE = "alpha=0.7\nmodes=7\nhorizon=1.5\nu0=poly:x(1-x)\ngrid=64\nseed=5\n"

#: name -> argv without --out-dir; artifacts of one config never collide
CONFIGS = {
    "spectrum_a0_n3": ["spectrum", "--alpha", "0", "--modes", "3"],
    "spectrum_a05_n6_csv": ["spectrum", "--alpha", "0.5", "--modes", "6",
                            "--format", "csv"],
    "spectrum_a1_n4": ["spectrum", "--alpha", "1.0", "--modes", "4"],
    "spectrum_a1_n4_csv": ["spectrum", "--alpha", "1.0", "--modes", "4",
                           "--format", "csv"],
    # N = 16: most zeros lie in the Hankel regime above x = 12.6
    "spectrum_a03_n16": ["spectrum", "--alpha", "0.3", "--modes", "16"],
    "spectrum_a09_n16": ["spectrum", "--alpha", "0.9", "--modes", "16"],
    # N = 40: zeros up to x ~ 125, deep in the Hankel regime
    "spectrum_a07_n40": ["spectrum", "--alpha", "0.7", "--modes", "40"],
    "biortho_a05_n8": ["biortho", "--alpha", "0.5", "--modes", "8"],
    # N = 2: fewer than three modes, so biortho.json holds no bound_profile
    "biortho_a05_n2": ["biortho", "--alpha", "0.5", "--modes", "2"],
    "biortho_a09_n10_t2": ["biortho", "--alpha", "0.9", "--modes", "10",
                           "--horizon", "2"],
    # T = 0.7: N = 11 near the ceiling
    "biortho_a05_n11_t07": ["biortho", "--alpha", "0.5", "--modes", "11",
                            "--horizon", "0.7"],
    # T = 0.05: the family certifies (residual 1.2e-7), but its zero-mean
    # value 7.9e-8 exceeds the 1e-8 limit, so biortho prints FAIL, exit 1
    "biortho_a05_n6_t005": ["biortho", "--alpha", "0.5", "--modes", "6",
                            "--horizon", "0.05"],
    # N = 12 at T = 1: certifies with residual 9.90e-7 against tol 1e-6, so
    # its gram_condition and residual_max bits sit where the decision turns
    "biortho_a0_n12": ["biortho", "--alpha", "0", "--modes", "12"],
    # N = 16 at T = 1: the condition gate rejects before any solve
    "biortho_a0_n16_gated": ["biortho", "--alpha", "0", "--modes", "16"],
    # T = 4: N = 11 certifies with residual 1.80e-7 against the exact Gram
    "biortho_a0_n11_t4": ["biortho", "--alpha", "0", "--modes", "11",
                          "--horizon", "4"],
    "synthesize_a05_bump": ["synthesize", "--alpha", "0.5", "--modes", "8",
                            "--u0", "poly:x(1-x)"],
    "synthesize_a05_target": ["synthesize", "--alpha", "0.5", "--modes", "6",
                              "--u0", "mode:1", "--target", "mode:2"],
    # N = 12 at T = 1: e^{-lambda_12 T} underflows to 0 in the collapse of
    # the mode coefficients onto the exponentials
    "synthesize_a0_n12_target": ["synthesize", "--alpha", "0", "--modes", "12",
                                 "--u0", "mode:1", "--target", "mode:2"],
    # the reachability score fails at the fitted K = 0.3558: synthesize
    # refuses before it writes an artifact
    "synthesize_a05_target_refused": ["synthesize", "--alpha", "0.5", "--modes", "6",
                                      "--u0", "mode:1", "--target", "poly:x(1-x)"],
    # passes on modes 1..8 while its terminal state misses the target by
    # 2.99e-2 in L2 on modes 9..198
    "synthesize_a05_n8_target": ["synthesize", "--alpha", "0.5", "--modes", "8",
                                 "--u0", "mode:1", "--target", "mode:2"],
    "simulate_a08_mode1": ["simulate", "--alpha", "0.8", "--modes", "8",
                           "--u0", "mode:1"],
    "simulate_a05_csv_grid64": ["simulate", "--alpha", "0.5", "--modes", "6",
                                "--u0", "csv:profile.csv", "--grid", "64"],
    # N = 11: the damped exponentials of the high modes underflow
    "simulate_a05_n11_bump": ["simulate", "--alpha", "0.5", "--modes", "11",
                              "--u0", "poly:x(1-x)"],
    # grid 2 at T = 2: lambda_N h is about 987, beyond exp's range of 709
    "simulate_a0_n10_t2_grid2": ["simulate", "--alpha", "0", "--modes", "10",
                                 "--horizon", "2", "--grid", "2",
                                 "--u0", "poly:x(1-x)"],
    # T = 0.02: |G(T)| = 1.91e-6 fails its 1e-8 limit while the terminal
    # state and the propagation oracle pass
    "simulate_a0_n5_t002": ["simulate", "--alpha", "0", "--modes", "5",
                            "--horizon", "0.02", "--u0", "mode:1"],
    # a 4097-row trajectory.csv: the CSV writer's bulk path
    "simulate_a03_grid4096": ["simulate", "--alpha", "0.3", "--modes", "8",
                              "--u0", "poly:x(1-x)", "--grid", "4096"],
    "cost_sweep_mode1": ["cost-sweep", "--alphas", "0,0.5,0.9", "--modes", "8",
                         "--u0", "mode:1"],
    "cost_sweep_bump_csv": ["cost-sweep", "--alphas", "0.5,0.95", "--modes", "8",
                            "--u0", "poly:x(1-x)", "--format", "csv"],
    # T = 0.02: alpha = 0 backs off past oracle failures to N = 4, and at
    # alpha = 0.9 no N passes
    "cost_sweep_t002_backoff": ["cost-sweep", "--alphas", "0,0.9", "--modes", "8",
                                "--horizon", "0.02", "--u0", "mode:1"],
    # N = 12 is rejected at both alphas, so both back off to N = 11
    "cost_sweep_n12_backoff": ["cost-sweep", "--alphas", "0.3,0.6", "--modes", "12",
                               "--u0", "mode:1"],
    "cost_sweep_csv_state": ["cost-sweep", "--alphas", "0.3", "--modes", "6",
                             "--u0", "csv:profile.csv"],
    # T = 1e-20: e^{-2 lambda T} rounds to 1, so the lower bound needs expm1;
    # the condition gate rejects N = 4 (condition inf)
    "cost_sweep_horizon_1e20": ["cost-sweep", "--alphas", "0.5", "--modes", "4",
                                "--horizon", "1e-20"],
    # --alpha without --alphas: a one-point sweep
    "cost_sweep_single_alpha": ["cost-sweep", "--alpha", "0.5", "--modes", "6",
                                "--u0", "mode:1"],
    "verify_a0_n8": ["verify", "--alpha", "0", "--modes", "8"],
    "verify_a05_n8": ["verify", "--alpha", "0.5", "--modes", "8"],
    "verify_a05_n8_seed3": ["verify", "--alpha", "0.5", "--modes", "8", "--seed", "3"],
    "verify_a09_n8": ["verify", "--alpha", "0.9", "--modes", "8"],
    "verify_a05_n10": ["verify", "--alpha", "0.5", "--modes", "10"],
    "verify_a0_n10_t2": ["verify", "--alpha", "0", "--modes", "10", "--horizon", "2"],
    # T = 4: the sigma replay needs the time rule graded toward t = T
    "verify_a0_n10_t4": ["verify", "--alpha", "0", "--modes", "10", "--horizon", "4"],
    "verify_a03_n6_t05": ["verify", "--alpha", "0.3", "--modes", "6",
                          "--horizon", "0.5", "--tol", "1e-7"],
    "verify_config_file": ["verify", "--config", "verify.cfg", "--modes", "6"],
    # the flags that set what verify.cfg sets for u0 and grid
    "verify_a05_n6_bump_grid64": ["verify", "--alpha", "0.5", "--modes", "6",
                                  "--u0", "poly:x(1-x)", "--grid", "64"],
    "error_no_alpha": ["verify", "--modes", "4"],
    "error_verify_alpha_one": ["verify", "--alpha", "1.0", "--modes", "4"],
    "error_mode_out_of_range": ["simulate", "--alpha", "0.5", "--modes", "4",
                                "--u0", "mode:9"],
    "error_synthesize_tol_nan": ["synthesize", "--alpha", "0.5", "--u0", "mode:1",
                                 "--tol", "nan"],
    "error_verify_tol_negative": ["verify", "--alpha", "0.5", "--tol", "-1"],
    "error_simulate_horizon_inf": ["simulate", "--alpha", "0.5", "--u0", "mode:1",
                                   "--horizon", "inf"],
    "error_sweep_alphas_comma": ["cost-sweep", "--alphas", ",", "--u0", "mode:1"],
    "error_sweep_alphas_empty": ["cost-sweep", "--alphas=", "--u0", "mode:1"],
    "error_verify_seed_negative": ["verify", "--alpha", "0.5", "--seed", "-1"],
    "error_sweep_modes_below_minimum": ["cost-sweep", "--alphas", "0.5",
                                        "--modes", "2"],
    "error_sweep_no_alpha": ["cost-sweep", "--u0", "mode:1"],
    "error_sweep_alpha_one": ["cost-sweep", "--alphas", "0.5,1.0", "--u0", "mode:1"],
    "error_synthesize_no_u0": ["synthesize", "--alpha", "0.5", "--modes", "6"],
    "error_synthesize_reach_k_inf": ["synthesize", "--alpha", "0.5", "--modes", "6",
                                     "--u0", "mode:1", "--target", "mode:2",
                                     "--reach-K", "inf"],
    # K = 1000 takes the reachability terms beyond double range: a numerical
    # failure naming mode 2, before any artifact is written
    "error_synthesize_reach_k_overflow": ["synthesize", "--alpha", "0.5", "--modes", "6",
                                          "--u0", "mode:1", "--target", "mode:2",
                                          "--reach-K", "1000"],
    # biortho reads neither --format nor --seed: argparse rejects both
    "error_biortho_format_seed": ["biortho", "--alpha", "0.5", "--modes", "8",
                                  "--format", "csv", "--seed", "9"],
    # argparse prints help and exits before it reads --out-dir
    "help_root": ["--help"],
    "help_verify": ["verify", "--help"],
}


def _files(root) -> set[str]:
    """Paths of every file under ``root``, relative to it."""
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def compare_trees(outdir, reference) -> list[str]:
    """One line per file that differs between the trees or is missing from one."""
    ours, theirs = _files(outdir), _files(reference)
    lines = [f"only in {reference}: {path}" for path in sorted(theirs - ours)]
    lines += [f"only in {outdir}: {path}" for path in sorted(ours - theirs)]
    lines += [f"differs: {path}" for path in sorted(ours & theirs)
              if not filecmp.cmp(os.path.join(outdir, path),
                                 os.path.join(reference, path), shallow=False)]
    return lines


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout, outdir, *reference = (os.path.abspath(p) for p in argv)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "profile.csv"), "w") as fh:
        fh.write(PROFILE_CSV)
    with open(os.path.join(outdir, "verify.cfg"), "w") as fh:
        fh.write(CONFIG_FILE)
    # COLUMNS fixes the width argparse wraps help and usage text to
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), COLUMNS="80")
    for name, args in CONFIGS.items():
        run = subprocess.run([sys.executable, "-m", "degctrl.cli", *args,
                              "--out-dir", name],
                             cwd=outdir, env=env, capture_output=True, text=True)
        os.makedirs(os.path.join(outdir, name), exist_ok=True)
        for fname, text in (("stdout.txt", run.stdout), ("stderr.txt", run.stderr),
                            ("exit_code.txt", f"{run.returncode}\n")):
            with open(os.path.join(outdir, name, fname), "w") as fh:
                fh.write(text)
        print(f"{name:28s} exit {run.returncode}")
    if reference:
        diffs = compare_trees(outdir, reference[0])
        for line in diffs:
            print(line)
        print(f"{len(diffs)} files differ from {reference[0]}")
        return 1 if diffs else 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
