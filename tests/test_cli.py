"""Command line: argument wiring, exit codes, reproducible output files."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from swarmfl.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK, EXIT_RUNTIME, build_parser, main


@pytest.fixture()
def config_path(tmp_path):
    """A two-follower scenario file sized for fast CLI runs."""
    cfg = {
        "n_followers": 2,
        "distances": [55.0, 75.0],
        "control": {"tau": [0.05, 0.05]},
        "saa": {"samples_k": 150, "max_cycles": 40, "xtol": 1e-4},
        "mc_runs": 3,
        "n_success_samples": 4000,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# each command's own sample-count flag; the other one is not accepted
OWN_FLAG = {
    "validate-theorem": "--mc-runs",
    "sweep-sigma": "--mc-runs",
    "simulate": "--mc-runs",
    "compare-designs": "--samples-k",
    "optimize": "--samples-k",
}


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        assert set(sub.choices) == {
            "validate-theorem", "sweep-sigma", "compare-designs", "optimize", "simulate",
        }

    @pytest.mark.parametrize("command", [
        "validate-theorem", "sweep-sigma", "compare-designs", "optimize", "simulate",
    ])
    def test_common_flags_parse(self, command, capsys):
        own = OWN_FLAG[command]
        args = build_parser().parse_args([
            command, "--config", "c.json", "--seed", "7", "--out", "x.csv", own, "4",
        ])
        assert args.command == command
        assert args.config == "c.json"
        assert args.seed == 7
        assert args.out == "x.csv"
        assert getattr(args, own[2:].replace("-", "_")) == 4
        other = ({"--mc-runs", "--samples-k"} - {own}).pop()
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, other, "4"])
        assert err.value.code == 2
        assert f"unrecognized arguments: {other}" in capsys.readouterr().err

    def test_missing_subcommand_exits(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([])
        assert err.value.code == 2
        capsys.readouterr()

    def test_bad_float_list_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-sigma", "--sigma2", "a,b"])
        capsys.readouterr()


class TestRuns:
    def test_validate_theorem_writes_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "vt.csv"
        code = main([
            "validate-theorem", "--config", str(config_path), "--mc-runs", "2",
            "--eps-fracs", "0.25", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("experiment,schema_version,epsilon_frac")
        assert len(lines) == 2
        stdout = capsys.readouterr().out
        assert re.fullmatch(rf"validate-theorem: wrote 1 rows to {re.escape(str(out))} in \d+\.\d s\n", stdout)

    def test_sweep_sigma_grid(self, config_path, tmp_path, capsys):
        out = tmp_path / "ss.csv"
        code = main([
            "sweep-sigma", "--config", str(config_path), "--mc-runs", "2",
            "--sigma2", "0.05,0.2", "--bw", "1e6", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3
        capsys.readouterr()

    def test_compare_designs_smoke(self, config_path, tmp_path, capsys):
        out = tmp_path / "cd.csv"
        code = main([
            "compare-designs", "--config", str(config_path), "--samples-k", "100",
            "--baseline-draws", "2", "--bw", "1e6", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        capsys.readouterr()

    def test_optimize_smoke(self, config_path, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        code = main(["optimize", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_OK
        text = out.read_text(encoding="utf-8")
        assert "result" in text
        capsys.readouterr()

    def test_simulate_reruns_byte_identical(self, config_path, tmp_path, capsys):
        args = ["simulate", "--config", str(config_path), "--seed", "99",
                "--mc-runs", "3", "--eps-frac", "0.25"]
        code_a = main(args + ["--out", str(tmp_path / "a.csv")])
        code_b = main(args + ["--out", str(tmp_path / "b.csv")])
        assert code_a == EXIT_OK and code_b == EXIT_OK
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        capsys.readouterr()


class TestFailureModes:
    def test_malformed_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_folowers": 3}), encoding="utf-8")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "n_folowers" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, field", [
        ({"distance": 100.0}, "uplink_interference[0].power"),
        ({}, "uplink_interference[0].distance"),
    ])
    def test_interferer_missing_field(self, config_path, tmp_path, capsys, entry, field):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["uplink_interference"] = [entry]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"{field} is required" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("noise_std", float("nan")),
        ("noise_std", float("inf")),
        ("w_scale", float("nan")),
        ("w_scale", float("inf")),
        ("w_scale", 0.0),
        ("seed", -1),
        ("samples_per", 3),
    ])
    def test_bad_dataset_value(self, config_path, tmp_path, capsys, key, value):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["dataset"] = {key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")  # NaN / Infinity literals
        out = tmp_path / "x.csv"
        code = main(["simulate", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"dataset.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("flight", "mass"),
        (None, "round_time"),
        ("energy_budget", "e_bar"),
        (None, "p_max"),
        ("flight", "v_max"),
        ("dataset", "signal_scale"),
    ])
    def test_infinite_value_rejected(self, config_path, tmp_path, capsys, section, key):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        (cfg.setdefault(section, {}) if section else cfg)[key] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")  # an Infinity literal
        out = tmp_path / "x.csv"
        code = main(["validate-theorem", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        name = f"{section}.{key}" if section else key
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_w_scale_accepted(self, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["dataset"] = {"w_scale": -1.0}
        flipped = tmp_path / "flipped.json"
        flipped.write_text(json.dumps(cfg), encoding="utf-8")
        code = main([
            "simulate", "--config", str(flipped), "--mc-runs", "2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed(self, config_path, tmp_path, capsys, seed):
        """A seed outside [0, 2**64) is rejected, not wrapped onto another seed."""
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["base_seed"] = seed
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "x.csv"
        for argv in (["--config", str(bad)], ["--config", str(config_path), "--seed", str(seed)]):
            code = main(["simulate", *argv, "--mc-runs", "2", "--out", str(out)])
            assert code == EXIT_CONFIG
            assert "base_seed must be in [0, 2**64)" in capsys.readouterr().err
            assert not out.exists()

    def test_nonpositive_mc_runs(self, config_path, tmp_path, capsys):
        code = main([
            "simulate", "--config", str(config_path), "--mc-runs", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("args, field", [
        (["sweep-sigma", "--sigma2", "-1", "--bw", "1e6"], "sigma2"),
        (["sweep-sigma", "--sigma2", "0.01", "--bw", "0"], "bw_up"),
        (["simulate", "--eps-frac", "1.5"], "eps_frac"),
        (["simulate", "--eps-frac", "0"], "eps_frac"),
        (["validate-theorem", "--eps-fracs", "0.1,1.5"], "eps_fracs[1]"),
        (["compare-designs", "--bw", "1e6", "--baseline-draws", "0"], "n_baseline_draws"),
    ])
    def test_out_of_range_experiment_input(self, config_path, tmp_path, capsys, args, field):
        out = tmp_path / "x.csv"
        code = main(args + ["--config", str(config_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, field", [
        (["sweep-sigma", "--sigma2", ""], "sigma2_list"),
        (["sweep-sigma", "--bw", ","], "bw_list"),
        (["compare-designs", "--bw", ""], "bw_list"),
        (["validate-theorem", "--eps-fracs", ""], "eps_fracs"),
    ])
    def test_empty_grid_rejected(self, config_path, tmp_path, capsys, args, field):
        """A grid given empty is an error, not a request for the default grid."""
        out = tmp_path / "x.csv"
        code = main(args + ["--config", str(config_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"{field} must not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_design_problem(self, config_path, tmp_path, capsys):
        cfg = json.loads(config_path.read_text(encoding="utf-8"))
        cfg["energy_budget"] = {"e_bar": 1e-6}
        starved = tmp_path / "starved.json"
        starved.write_text(json.dumps(cfg), encoding="utf-8")
        code = main(["optimize", "--config", str(starved), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_unwritable_output_path(self, config_path, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        code = main([
            "simulate", "--config", str(config_path), "--mc-runs", "2",
            "--eps-frac", "0.25", "--out", str(out),
        ])
        assert code == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("swarmfl")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert "validate-theorem" in proc.stdout

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swarmfl.cli", "--help"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout


# Runs in a fresh interpreter: after importing swarmfl and after each command,
# records whether scipy is loaded and the command's exit code.
SCIPY_PROBE = """
import json, sys
from swarmfl.cli import main
loaded = {"import": "scipy" in sys.modules}
config, out = sys.argv[1:3]
for command in ("validate-theorem", "sweep-sigma", "simulate"):
    code = main([command, "--config", config, "--mc-runs", "2", "--out", out])
    loaded[command] = [code, "scipy" in sys.modules]
loaded["optimize"] = [main(["optimize", "--config", config, "--out", out]), "scipy" in sys.modules]
print(json.dumps(loaded))
"""


class TestImportPath:
    def test_scipy_loads_only_for_the_design_commands(self, config_path, tmp_path):
        """Importing swarmfl and the training commands leave scipy unloaded;
        optimize loads it (for the sigmoid) on its first solve."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, str(config_path), str(tmp_path / "x.csv")],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "import": False,
            "validate-theorem": [EXIT_OK, False],
            "sweep-sigma": [EXIT_OK, False],
            "simulate": [EXIT_OK, False],
            "optimize": [EXIT_OK, True],
        }
