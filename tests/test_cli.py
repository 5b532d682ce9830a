import json
import subprocess
import sys

import numpy as np
import pytest

from degctrl.cli import main


def run_cli(args):
    return main(list(args))


class TestSpectrumCommand:
    def test_laplace_eigenvalues_printed(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--alpha", "0", "--modes", "3",
                        "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "9.869604401" in out
        assert "39.4784176" in out
        assert "88.82643961" in out
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert data["config"]["alpha"] == 0.0
        assert len(data["modes"]) == 3

    def test_csv_format(self, tmp_path):
        code = run_cli(["spectrum", "--alpha", "0.5", "--modes", "2",
                        "--format", "csv", "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "n,zero,eigenvalue,norm_const,neumann_trace"
        assert len(lines) == 4

    def test_limit_basis_at_one(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--alpha", "1", "--modes", "2",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "limit basis" in capsys.readouterr().out


class TestVerifyCommand:
    def test_full_battery_passes(self, tmp_path, capsys):
        code = run_cli(["verify", "--alpha", "0.5", "--modes", "8",
                        "--horizon", "1", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: PASS" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert report["all_passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_deterministic_artifacts(self, tmp_path):
        outdir = tmp_path / "out"
        args = ["verify", "--alpha", "0.3", "--modes", "6", "--horizon", "1",
                "--seed", "5", "--out-dir", str(outdir)]
        assert run_cli(args) == 0
        first = (outdir / "verify.json").read_bytes()
        assert run_cli(args) == 0
        assert (outdir / "verify.json").read_bytes() == first


class TestSynthesizeCommand:
    def test_null_control(self, tmp_path, capsys):
        code = run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                        "--horizon", "1", "--u0", "mode:1",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        data = json.loads((tmp_path / "control.json").read_text())
        assert len(data["d"]) == 6
        samples = (tmp_path / "control_samples.csv").read_text().splitlines()
        assert samples[0] == "t,g,G"

    def test_reachable_target(self, tmp_path):
        code = run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                        "--horizon", "1", "--u0", "mode:1",
                        "--target", "mode:2", "--out-dir", str(tmp_path)])
        assert code == 0

    def test_stiff_target_fails_numerically(self, tmp_path, capsys):
        code = run_cli(["synthesize", "--alpha", "0", "--modes", "10",
                        "--horizon", "1", "--u0", "mode:1",
                        "--target", "mode:10", "--reach-K", "0.3",
                        "--out-dir", str(tmp_path)])
        assert code == 1


class TestSimulateCommand:
    def test_trajectory_artifacts(self, tmp_path):
        code = run_cli(["simulate", "--alpha", "0.8", "--modes", "6",
                        "--horizon", "1", "--u0", "poly:x(1-x)",
                        "--grid", "128", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
        assert len(rows) == 130
        summary = json.loads((tmp_path / "trajectory.json").read_text())
        assert summary["oracle_deviation"] < 1e-6


class TestCostSweepCommand:
    def test_rows_and_certification(self, tmp_path, capsys):
        code = run_cli(["cost-sweep", "--alphas", "0,0.5,0.9",
                        "--u0", "mode:1", "--modes", "6",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "cost_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header comment + column row + 3 alphas
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["lower"]) <= float(row["upper"])


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\nmodes=4\nhorizon=1\n")
        code = run_cli(["spectrum", "--config", str(cfg),
                        "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(data["modes"]) == 4
        # flag overrides the file
        code = run_cli(["spectrum", "--config", str(cfg), "--modes", "2",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(data["modes"]) == 2

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.5\n")
        assert run_cli(["spectrum", "--config", str(cfg)]) == 2

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("omega=1\n")
        assert run_cli(["spectrum", "--config", str(cfg)]) == 2


class TestExitCodes:
    def test_alpha_out_of_range(self, capsys):
        assert run_cli(["spectrum", "--alpha", "2", "--modes", "3"]) == 2
        assert run_cli(["verify", "--alpha", "1.0", "--modes", "4"]) == 2

    def test_missing_alpha(self, capsys):
        assert run_cli(["spectrum", "--modes", "3"]) == 2

    def test_conditioning_failure_is_numerical(self, tmp_path, capsys):
        code = run_cli(["biortho", "--alpha", "0", "--modes", "16",
                        "--horizon", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_u0_csv_profile(self, tmp_path):
        xs = np.linspace(0.0, 1.0, 101)
        path = tmp_path / "profile.csv"
        np.savetxt(path, np.column_stack([xs, np.sin(np.pi * xs)]), delimiter=",")
        code = run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                        "--horizon", "1", "--u0", f"csv:{path}",
                        "--out-dir", str(tmp_path)])
        assert code == 0


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "degctrl.cli", "spectrum", "--alpha", "0",
             "--modes", "2", "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "9.869604401" in proc.stdout


class TestMalformedInput:
    @pytest.mark.parametrize("case", ["mode_index", "mode_beyond_limit_basis",
                                      "alphas", "config_value", "csv_cell"])
    def test_named_usage_error(self, case, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("alpha=0.5\nmodes=abc\n")
        (tmp_path / "bad.csv").write_text("0,0\n0.5,abc\n1,0\n")
        argv = {
            "mode_index": ["synthesize", "--alpha", "0.5", "--u0", "mode:x"],
            "mode_beyond_limit_basis": ["cost-sweep", "--alphas", "0.5",
                                        "--modes", "12", "--u0", "mode:13"],
            "alphas": ["cost-sweep", "--alphas", "0.5,abc"],
            "config_value": ["spectrum", "--config", str(tmp_path / "bad.cfg")],
            "csv_cell": ["simulate", "--alpha", "0.5",
                         "--u0", f"csv:{tmp_path / 'bad.csv'}"],
        }[case]
        assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_config_format_outside_choices(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("alpha=0.5\nmodes=3\nformat=xml\n")
        assert run_cli(["spectrum", "--config", str(tmp_path / "bad.cfg"),
                        "--out-dir", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not list(tmp_path.glob("spectrum.*"))


class TestSigmaReplay:
    def test_sound_family_passes(self, tmp_path, capsys):
        # this family's residual on a finer graded rule is ~3e-8; the
        # replay rule must not report it above the 1e-6 limit
        code = run_cli(["verify", "--alpha", "0", "--modes", "10",
                        "--horizon", "2", "--seed", "3",
                        "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify.json").read_text())
        replay = next(c for c in report["checks"] if c["name"] == "sigma_replay")
        assert replay["passed"] and replay["metric"] <= 1e-6
