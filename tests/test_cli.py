import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from degctrl import biortho, build_biortho, cli, cost, make_basis, resolve_u0, verify
from degctrl._fmt import write_csv
from degctrl.cli import main
from degctrl.cost import cost_upper, null_control
from degctrl.errors import AccuracyError
from degctrl.spectrum import unit_moment

from conftest import eval_g


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

    def test_limit_basis_csv_holds_the_json_fields(self, tmp_path, capsys):
        assert run_cli(["spectrum", "--alpha", "1", "--modes", "3",
                        "--out-dir", str(tmp_path / "json")]) == 0
        assert run_cli(["spectrum", "--alpha", "1", "--modes", "3", "--format", "csv",
                        "--out-dir", str(tmp_path / "csv")]) == 0
        assert [p.name for p in (tmp_path / "csv").iterdir()] == ["spectrum.csv"]
        lines = (tmp_path / "csv" / "spectrum.csv").read_text().splitlines()
        config = json.loads(lines[0].removeprefix("# "))
        assert config["format"] == "csv" and config["alpha"] == 1.0
        assert lines[1] == "n,zero,eigenvalue"
        data = json.loads((tmp_path / "json" / "spectrum.json").read_text())
        assert lines[2:] == [f"{n},{z!r},{lam!r}" for n, (z, lam)
                             in enumerate(zip(data["zeros"], data["eigenvalues"]), 1)]


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

    def test_long_horizon_battery_passes(self, tmp_path, capsys):
        # T = 4: the boundary layers of e^{lambda (t-T)} at t = T are resolved
        # by the graded sigma replay and certified by the closed-form Gram
        code = run_cli(["verify", "--alpha", "0", "--modes", "10",
                        "--horizon", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "verify: PASS (13/13 checks)" in capsys.readouterr().out
        checks = {c["name"]: c["metric"]
                  for c in json.loads((tmp_path / "verify.json").read_text())["checks"]}
        assert checks["sigma_replay"] < 1e-8 and checks["biorthogonality"] < 1e-7

    def test_deterministic_artifacts(self, tmp_path):
        outdir = tmp_path / "out"
        args = ["verify", "--alpha", "0.3", "--modes", "6", "--horizon", "1",
                "--seed", "5", "--out-dir", str(outdir)]
        assert run_cli(args) == 0
        first = (outdir / "verify.json").read_bytes()
        assert run_cli(args) == 0
        assert (outdir / "verify.json").read_bytes() == first

    def test_library_battery_is_the_artifact(self, tmp_path):
        assert run_cli(["verify", "--alpha", "0.5", "--modes", "8", "--seed", "3",
                        "--out-dir", str(tmp_path)]) == 0
        written = json.loads((tmp_path / "verify.json").read_text())["checks"]
        basis = make_basis(0.5, 8)
        fam = build_biortho(basis.eigenvalues, 1.0, tol=1e-6)
        checks = verify(basis, fam, resolve_u0("mode:1", basis), 1e-6, seed=3)
        assert json.loads(json.dumps(checks)) == written

    def test_u0_and_grid_flags_match_the_config_file(self, tmp_path, capsys):
        args = ["verify", "--alpha", "0.5", "--modes", "6", "--out-dir", str(tmp_path)]
        assert run_cli(args + ["--u0", "poly:x(1-x)", "--grid", "64"]) == 0
        from_flags = (tmp_path / "verify.json").read_bytes()
        (tmp_path / "run.cfg").write_text("u0=poly:x(1-x)\ngrid=64\n")
        assert run_cli(args + ["--config", str(tmp_path / "run.cfg")]) == 0
        assert (tmp_path / "verify.json").read_bytes() == from_flags
        config = json.loads(from_flags)["config"]
        assert (config["u0"], config["grid"]) == ("poly:x(1-x)", 64)


class TestBiorthoCommand:
    @pytest.mark.parametrize("modes, profiled", [(8, True), (2, False)])
    def test_bound_profile_from_three_modes(self, modes, profiled, tmp_path, capsys):
        assert run_cli(["biortho", "--alpha", "0.5", "--modes", str(modes),
                        "--out-dir", str(tmp_path)]) == 0
        assert "| PASS" in capsys.readouterr().out
        payload = json.loads((tmp_path / "biortho.json").read_text())
        assert ("bound_profile" in payload) is profiled

    def test_zero_mean_failure_exits_one(self, tmp_path, capsys):
        # the family certifies at T = 0.05, but its zero-mean value does not
        assert run_cli(["biortho", "--alpha", "0.5", "--modes", "6", "--horizon",
                        "0.05", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().out.rstrip().endswith("| FAIL")
        assert (tmp_path / "biortho.json").exists()


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

    def test_negative_fitted_k_is_a_numerical_failure(self, tmp_path, capsys):
        # no --reach-K: the fit over 6 modes at T = 0.05 gives K < 0
        code = run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                        "--horizon", "0.05", "--u0", "mode:1",
                        "--target", "mode:1", "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("numerical failure:")
        assert "--reach-K" in err

    def test_missing_u0_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                        "--out-dir", str(tmp_path)]) == 2
        assert "--u0 is required" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_infinite_reach_k_is_a_usage_error(self, tmp_path, capsys):
        # rejected before any NaN partial sum can reach the verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                            "--u0", "mode:1", "--target", "mode:2",
                            "--reach-K", "inf", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "K must be finite and positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_overflowing_reach_k_fails_numerically(self, tmp_path, capsys):
        # K = 1000 takes the reachability terms beyond double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                            "--u0", "mode:1", "--target", "mode:2",
                            "--reach-K", "1000", "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: reachability term 2")
        assert not list(tmp_path.iterdir())

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

    def test_failed_point_row(self, tmp_path, capsys):
        # T = 0.07: alpha = 0.5 backs off to a passing N = 6, alpha = 0.9
        # finds none
        assert run_cli(["cost-sweep", "--alphas", "0.5,0.9", "--modes", "8",
                        "--horizon", "0.07", "--u0", "mode:1",
                        "--out-dir", str(tmp_path)]) == 1
        assert "lower<=upper FAIL" in capsys.readouterr().out
        passed, failed = json.loads((tmp_path / "cost_sweep.json").read_text())["rows"]
        assert passed["ok"] is True and passed["upper"] is not None
        assert passed["N_used"] == 6
        assert (failed["alpha"], failed["upper"], failed["ok"]) == (0.9, None, False)
        assert all(f"N={n}:" in failed["message"] for n in range(4, 9))


    def test_single_alpha_flag_is_a_one_point_sweep(self, tmp_path, capsys):
        assert run_cli(["cost-sweep", "--alpha", "0.5", "--modes", "6",
                        "--u0", "mode:1", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("1 alphas,")
        rows = json.loads((tmp_path / "cost_sweep.json").read_text())["rows"]
        assert [(r["alpha"], r["ok"]) for r in rows] == [(0.5, True)]

    @pytest.mark.parametrize("flags,message", [
        ([], "--alphas (or --alpha) is required"),
        (["--alphas", "0.5,1.0"], "alpha must lie in [0, 1), got 1.0")],
        ids=["no_alpha", "alpha_one"])
    def test_alpha_flags_are_checked(self, flags, message, tmp_path, capsys):
        assert run_cli(["cost-sweep", *flags, "--u0", "mode:1",
                        "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


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


    def test_u0_csv_profile_with_decreasing_x(self, tmp_path, capsys):
        # the samples x(1-x) listed from x = 1 down to 0 once gave
        # ||G||_H1 = 0 and PASS: np.interp projected them to zero
        xs = np.linspace(1.0, 0.0, 41)
        path = tmp_path / "reversed.csv"
        np.savetxt(path, np.column_stack([xs, xs * (1.0 - xs)]), delimiter=",")
        assert run_cli(["synthesize", "--alpha", "0.5", "--modes", "6",
                        "--u0", f"csv:{path}", "--out-dir", str(tmp_path)]) == 2
        assert "needs strictly increasing x" in capsys.readouterr().err


class TestOneRuleGatesEveryConsumer:
    """A check appended to ``_synthesis_step``'s list gates synthesize,
    simulate, verify and the cost_upper back-off with no edit to any of them."""

    @pytest.fixture
    def synthetic(self, monkeypatch):
        step = cost._synthesis_step

        def failing(*args, **kwargs):
            signal, res, checks = step(*args, **kwargs)
            return signal, res, (*checks, ("synthetic", 1.0, 0.0))

        # null_control looks the name up in cost, synthesize in cli
        monkeypatch.setattr(cost, "_synthesis_step", failing)
        monkeypatch.setattr(cli, "_synthesis_step", failing)

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_command_fails(self, synthetic, command, tmp_path, capsys):
        assert run_cli([command, "--alpha", "0.5", "--modes", "6", "--u0", "mode:1",
                        "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().out.endswith(" | FAIL\n")

    def test_verify_records_it_failed(self, synthetic, tmp_path, capsys):
        assert run_cli(["verify", "--alpha", "0.5", "--modes", "6",
                        "--out-dir", str(tmp_path)]) == 1
        record = json.loads((tmp_path / "verify.json").read_text())
        assert {c["name"]: c["passed"] for c in record["checks"]}["synthetic"] is False

    def test_cost_upper_trail_names_it_for_every_n(self, synthetic):
        with pytest.raises(AccuracyError) as err:
            cost_upper(0.5, unit_moment(make_basis(0.5, 6), 1), 1.0, 6)
        for n in (4, 5, 6):
            assert (f"N={n}: null-control oracles failed: synthetic 1.00e+00 > 0e+00"
                    in str(err.value))


class TestLibraryVerdicts:
    """biortho and cost-sweep print the verdict of the library's own checks."""

    @pytest.mark.parametrize("limit, code", [(cost.ZERO_MEAN_TOL, 0), (1e-300, 1)])
    def test_zero_mean_limit_flips_biortho_and_verify_together(
            self, limit, code, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cost, "ZERO_MEAN_TOL", limit)
        args = ["--alpha", "0.5", "--modes", "6", "--out-dir", str(tmp_path)]
        assert run_cli(["biortho", *args]) == code
        assert run_cli(["verify", *args]) == code
        record = json.loads((tmp_path / "verify.json").read_text())
        zero_mean = {c["name"]: c for c in record["checks"]}["zero_mean"]
        assert zero_mean["passed"] is (code == 0)
        assert zero_mean["metric"] > 1e-300

    @pytest.mark.parametrize("certified, code", [(True, 0), (False, 1)])
    def test_cost_sweep_verdict_is_the_reports(self, certified, code, monkeypatch,
                                               tmp_path, capsys):
        monkeypatch.setattr(cost.CostReport, "certified", property(lambda _: certified))
        assert run_cli(["cost-sweep", "--alphas", "0.5", "--modes", "6", "--u0",
                        "mode:1", "--out-dir", str(tmp_path)]) == code
        verdict = "PASS" if certified else "FAIL"
        assert capsys.readouterr().out.endswith(f"lower<=upper {verdict}\n")


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
                                      "alphas", "config_value", "csv_cell",
                                      "tol_nan", "tol_negative", "horizon_inf",
                                      "alphas_comma", "alphas_empty",
                                      "seed_negative"])
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
            "tol_nan": ["synthesize", "--alpha", "0.5", "--u0", "mode:1",
                        "--tol", "nan"],
            "tol_negative": ["verify", "--alpha", "0.5", "--tol", "-1"],
            "horizon_inf": ["simulate", "--alpha", "0.5", "--u0", "mode:1",
                            "--horizon", "inf"],
            "alphas_comma": ["cost-sweep", "--alphas", ",", "--u0", "mode:1"],
            "alphas_empty": ["cost-sweep", "--alphas=", "--u0", "mode:1"],
            "seed_negative": ["verify", "--alpha", "0.5", "--seed", "-1"],
        }[case]
        assert run_cli(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_config_format_outside_choices(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text("alpha=0.5\nmodes=3\nformat=xml\n")
        assert run_cli(["spectrum", "--config", str(tmp_path / "bad.cfg"),
                        "--out-dir", str(tmp_path)]) == 2
        assert "usage error" in capsys.readouterr().err
        assert not list(tmp_path.glob("spectrum.*"))

    def test_sweep_below_minimum_modes_writes_nothing(self, tmp_path, capsys):
        assert run_cli(["cost-sweep", "--alphas", "0.5", "--modes", "2",
                        "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "usage error" in err and "at least 4 modes" in err
        assert not list(tmp_path.iterdir())


class TestFlagsPerSubcommand:
    @pytest.mark.parametrize("argv", [
        ["biortho", "--alpha", "0.5", "--format", "csv"],
        ["biortho", "--alpha", "0.5", "--seed", "9"],
        ["verify", "--alpha", "0.5", "--format", "csv"],
        ["cost-sweep", "--alphas", "0.5", "--seed", "9"],
        ["spectrum", "--alpha", "0.5", "--horizon", "2"],
        ["spectrum", "--alpha", "0.5", "--tol", "1e-3"],
    ])
    def test_unread_flag_is_a_usage_error(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--out-dir", str(tmp_path)])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_config_file_sets_every_key(self, tmp_path):
        (tmp_path / "all.cfg").write_text(
            "alpha=0.5\nmodes=3\nhorizon=2\ntol=1e-3\nseed=9\nformat=json\n")
        assert run_cli(["spectrum", "--config", str(tmp_path / "all.cfg"),
                        "--out-dir", str(tmp_path)]) == 0
        cfg = json.loads((tmp_path / "spectrum.json").read_text())["config"]
        assert (cfg["horizon"], cfg["tol"], cfg["seed"]) == (2.0, 1e-3, 9)


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


def _reference_cell(v) -> str:
    """Per-cell CSV formatting, checked type by type."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _reference_csv(path, columns, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_reference_cell(v) for v in row) + "\n")


class TestCsvWriter:
    def test_cells_match_per_cell_reference(self, tmp_path):
        rows = [[-0.0, 5e-324, 1e300, float("nan"), float("inf"), -float("inf")],
                [np.float64(0.1), np.int64(-7), True, None, 3, 2.5],
                np.array([1.0 / 3.0, -2.0, 1e-300, 0.0, 7.0, -1e16]).tolist()]
        write_csv(tmp_path / "new.csv", list("abcdef"), rows)
        _reference_csv(tmp_path / "ref.csv", list("abcdef"), rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_trajectory_and_control_tables(self, tmp_path):
        basis = make_basis(0.3, 6)
        fam = build_biortho(basis.eigenvalues, 1.0)
        mu0 = resolve_u0("poly:x(1-x)", basis)
        sig, _, traj, _ = null_control(basis, fam, mu0, 1e-6, grid_size=64)
        traj.save_csv(tmp_path / "traj.csv")
        cols = ["t"] + [f"v{i + 1}" for i in range(6)] + ["G"]
        _reference_csv(tmp_path / "traj_ref.csv", cols, zip(traj.t, *traj.v, traj.G_trace))
        sig.save_csv(tmp_path / "ctrl.csv")
        t = np.linspace(0.0, sig.T, 257)
        _reference_csv(tmp_path / "ctrl_ref.csv", ("t", "g", "G"),
                       zip(t, eval_g(sig, t), sig.eval_G(t)))
        for name in ("traj", "ctrl"):
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_ref.csv").read_bytes())


class TestChainReuse:
    """verify, synthesize and simulate on one argv, in one process: the
    second and third commands reuse the first one's basis and certified
    family from the CLI chain cache and write what each command writes on
    cold caches, byte for byte."""

    COMMANDS = ("verify", "synthesize", "simulate")

    @staticmethod
    def argv(command, out_dir):
        args = [command, "--alpha", repr(0.4371), "--modes", "8", "--horizon", "1",
                "--seed", "1100013", "--out-dir", str(out_dir)]
        return args if command == "verify" else args + ["--u0", "poly:x(1-x)"]

    @staticmethod
    def cold_caches():
        cli._chain.cache_clear()

    @staticmethod
    def artifacts(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_artifacts_match_cold_runs(self, tmp_path, monkeypatch, capsys):
        out_dir = tmp_path / "out"
        for command in self.COMMANDS:
            self.cold_caches()
            assert run_cli(self.argv(command, out_dir)) == 0
        cold = self.artifacts(out_dir), capsys.readouterr()
        self.cold_caches()
        solves, solve = [], biortho._solve_spd

        def counting(G, B, G_ld):
            solves.append(len(G))
            return solve(G, B, G_ld)

        monkeypatch.setattr(biortho, "_solve_spd", counting)
        for command in self.COMMANDS:
            assert run_cli(self.argv(command, out_dir)) == 0
        warm = self.artifacts(out_dir), capsys.readouterr()
        assert solves == [9]
        assert sorted(cold[0]) == ["control.json", "control_samples.csv",
                                   "trajectory.csv", "trajectory.json", "verify.json"]
        assert warm == cold

    def test_signed_zero_alphas_keep_their_own_pair(self, tmp_path):
        # control.json embeds alpha: -0.0 after 0.0 must not reuse 0.0's pair
        def control(alpha):
            out_dir = tmp_path / alpha
            assert run_cli(["synthesize", "--alpha", alpha, "--modes", "6",
                            "--u0", "mode:1", "--out-dir", str(out_dir)]) == 0
            return json.loads((out_dir / "control.json").read_text())["alpha"]

        self.cold_caches()
        first, second = control("0.0"), control("-0.0")
        assert (math.copysign(1.0, first), math.copysign(1.0, second)) == (1.0, -1.0)


class TestParserReuse:
    def test_repeated_calls_parse_alike(self, tmp_path, capsys):
        # one parser serves every call in a process; it must carry nothing over
        bad = ["spectrum", "--alpha", "0.5", "--format", "xml"]
        with pytest.raises(SystemExit) as first:
            main(bad)
        err = capsys.readouterr().err
        assert run_cli(["spectrum", "--alpha", "0", "--modes", "2",
                        "--format", "csv", "--out-dir", str(tmp_path)]) == 0
        assert run_cli(["spectrum", "--alpha", "0.5", "--modes", "2",
                        "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "spectrum.json").exists()
        capsys.readouterr()
        with pytest.raises(SystemExit) as second:
            main(bad)
        assert first.value.code == second.value.code == 2
        assert capsys.readouterr().err == err
