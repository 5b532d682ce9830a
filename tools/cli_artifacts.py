"""Record the CLI's artifacts, stdout, stderr and exit code on fixed configs.

Usage: python tools/cli_artifacts.py <checkout> <outdir>

Runs every config below with the package from ``<checkout>/src``, each in
its own subprocess with ``<outdir>`` as working directory and a relative
``--out-dir``, so the configuration block embedded in each artifact does
not depend on where ``<outdir>`` lives. Config ``name`` leaves its
artifacts in ``<outdir>/<name>/`` next to ``stdout.txt``, ``stderr.txt``
and ``exit_code.txt``. Two checkouts produce byte-identical artifacts
exactly when ``diff -r`` of their two outdirs is empty.
"""

from __future__ import annotations

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
    # N = 16: most zeros lie in the Hankel regime above x = 12.6
    "spectrum_a03_n16": ["spectrum", "--alpha", "0.3", "--modes", "16"],
    "spectrum_a09_n16": ["spectrum", "--alpha", "0.9", "--modes", "16"],
    "biortho_a05_n8": ["biortho", "--alpha", "0.5", "--modes", "8"],
    "biortho_a09_n10_t2": ["biortho", "--alpha", "0.9", "--modes", "10",
                           "--horizon", "2"],
    # T = 0.7: the certificate's nodes are inexact, N = 11 near the ceiling
    "biortho_a05_n11_t07": ["biortho", "--alpha", "0.5", "--modes", "11",
                            "--horizon", "0.7"],
    "synthesize_a05_bump": ["synthesize", "--alpha", "0.5", "--modes", "8",
                            "--u0", "poly:x(1-x)"],
    "synthesize_a05_target": ["synthesize", "--alpha", "0.5", "--modes", "6",
                              "--u0", "mode:1", "--target", "mode:2"],
    "simulate_a08_mode1": ["simulate", "--alpha", "0.8", "--modes", "8",
                           "--u0", "mode:1"],
    "simulate_a05_csv_grid64": ["simulate", "--alpha", "0.5", "--modes", "6",
                                "--u0", "csv:profile.csv", "--grid", "64"],
    "cost_sweep_mode1": ["cost-sweep", "--alphas", "0,0.5,0.9", "--modes", "8",
                         "--u0", "mode:1"],
    "cost_sweep_bump_csv": ["cost-sweep", "--alphas", "0.5,0.95", "--modes", "8",
                            "--u0", "poly:x(1-x)", "--format", "csv"],
    "cost_sweep_csv_state": ["cost-sweep", "--alphas", "0.3", "--modes", "6",
                             "--u0", "csv:profile.csv"],
    "verify_a0_n8": ["verify", "--alpha", "0", "--modes", "8"],
    "verify_a05_n8": ["verify", "--alpha", "0.5", "--modes", "8"],
    "verify_a05_n8_seed3": ["verify", "--alpha", "0.5", "--modes", "8", "--seed", "3"],
    "verify_a09_n8": ["verify", "--alpha", "0.9", "--modes", "8"],
    "verify_a05_n10": ["verify", "--alpha", "0.5", "--modes", "10"],
    "verify_a0_n10_t2": ["verify", "--alpha", "0", "--modes", "10", "--horizon", "2"],
    "verify_a03_n6_t05": ["verify", "--alpha", "0.3", "--modes", "6",
                          "--horizon", "0.5", "--tol", "1e-7"],
    "verify_config_file": ["verify", "--config", "verify.cfg", "--modes", "6"],
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
}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    checkout, outdir = (os.path.abspath(p) for p in argv)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "profile.csv"), "w") as fh:
        fh.write(PROFILE_CSV)
    with open(os.path.join(outdir, "verify.cfg"), "w") as fh:
        fh.write(CONFIG_FILE)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
