"""tools/csv_identity.py, tools/ab_bench.py and tools/seed_scan.py, which compare source trees, and the pytest
settings."""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


csv_identity = load_tool("csv_identity")
ab_bench = load_tool("ab_bench")
seed_scan = load_tool("seed_scan")

OPTIMIZE_AT_DEFAULT = ["--seeds", "1", "--only", "optimize", "--default-scenario"]


def test_same_tree_writes_the_same_bytes(capsys):
    assert csv_identity.main([str(ROOT), str(ROOT), *OPTIMIZE_AT_DEFAULT]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("same  seed 1  optimize  ")
    base_hash, new_hash = line.split()[-2:]
    assert base_hash == new_hash and len(base_hash) == 64


@pytest.mark.parametrize("hashes", [("a" * 64, "b" * 64), (None, None)])
def test_mismatch_or_failed_command_exits_one(monkeypatch, capsys, hashes):
    """Two CSVs that differ are reported with what moved; failed commands only as DIFFERENT."""
    produced = iter(hashes)

    def fake_hash(tree, command, args, seed, out):
        digest = next(produced)
        if digest is not None:  # a run that writes a one-cell CSV
            Path(out).write_text(f"h\n{digest}\n", encoding="utf-8")
        return digest

    monkeypatch.setattr(csv_identity, "csv_hash", fake_hash)
    assert csv_identity.main([str(ROOT), str(ROOT), *OPTIMIZE_AT_DEFAULT]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("DIFFERENT  seed 1  optimize")
    moved = ["    1 of 1 rows moved, 1 cells", "    h: 1 cells, largest relative change text"]
    assert lines[1:] == (moved if hashes[0] else [])


def test_moved_cells_count_rows_cells_and_each_columns_largest_change():
    base = "iter,p_1,beta,stop\n1,0.5,0.25,gap\n2,0.5,0.25,gap\n3,2,0,gap\n"
    new = "iter,p_1,beta,stop\n1,0.5,0.25,gap\n2,0.5002,0.2501,gap\n3,1,0,max_iters\n"
    assert csv_identity.moved_cells(base, new) == [
        "2 of 3 rows moved, 4 cells",
        "p_1: 2 cells, largest relative change 0.5",
        "beta: 1 cells, largest relative change 0.0004",
        "stop: 1 cells, largest relative change text",
    ]
    assert csv_identity.moved_cells(base, "iter,p_1,beta,stop\n1,0,0.25,gap\n") == [
        "1 of 1 rows moved, 1 cells", "row count 3 -> 1", "p_1: 1 cells, largest relative change 1",
    ]
    assert csv_identity.moved_cells(base, base.replace("beta", "b")) == ["headers differ"]
    assert csv_identity.moved_cells("x\n0\n", "x\n1e-9\n") == ["1 of 1 rows moved, 1 cells",
                                                               "x: 1 cells, largest relative change inf"]


def test_commands_come_from_the_benchmark():
    commands = csv_identity.benchmark_commands(str(ROOT))
    assert set(commands) == {"validate-theorem", "sweep-sigma", "simulate", "optimize", "compare-designs"}
    assert commands["optimize"] == ("design-solve.json", ["--method", "subgradient"])
    assert commands["sweep-sigma"][0] == "mc-train.json"


def test_unknown_command_exits_two(capsys):
    assert csv_identity.main([str(ROOT), str(ROOT), "--only", "train"]) == 2
    assert "unknown commands ['train']" in capsys.readouterr().err


def test_extra_runs_compare_like_the_benchmark_commands(monkeypatch, capsys):
    """An --extra run takes its workload's scenario file and every seed, unless it gives its own."""
    calls = []
    monkeypatch.setattr(csv_identity, "csv_hash", lambda tree, *run: calls.append(run[:3]) or "a" * 64)
    extras = ["--extra", "simulate --eps-frac 0.002 --seed 5", "--extra", "optimize --method ellipsoid",
              "--extra", "sweep-sigma --config 'my scenario.json'",
              "--extra", "simulate --seed=7 --config=own.json"]
    assert csv_identity.main([str(ROOT), str(ROOT), "--seeds", "1,2", "--only", "optimize", *extras]) == 0
    scenarios = ROOT / "perfbench" / "scenarios"
    want = [
        ("optimize", ["--method", "subgradient", "--config", str(scenarios / "design-solve.json")], 1),
        ("optimize", ["--method", "subgradient", "--config", str(scenarios / "design-solve.json")], 2),
        ("optimize", ["--config", str(scenarios / "design-solve.json")], 9091),  # the binding runs
        ("optimize", ["--method", "ellipsoid", "--config", str(scenarios / "design-solve.json")], 1),
        ("simulate", ["--eps-frac", "0.002", "--config", str(scenarios / "mc-train.json")], 5),
        ("optimize", ["--method", "ellipsoid", "--config", str(scenarios / "design-solve.json")], 1),
        ("optimize", ["--method", "ellipsoid", "--config", str(scenarios / "design-solve.json")], 2),
        ("sweep-sigma", ["--config", "my scenario.json"], 1),
        ("sweep-sigma", ["--config", "my scenario.json"], 2),
        ("simulate", ["--config", "own.json"], 7),
    ]
    assert calls == [run for run in want for _ in ("base", "new")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[4].startswith("same  seed 5  simulate --eps-frac 0.002 --seed 5  ")
    assert lines[5].startswith("same  seed 1  optimize --method ellipsoid  ")


def test_late_runs_are_compared_by_default(monkeypatch, capsys):
    """The late and binding runs follow the benchmark commands at their own seeds, only for the commands run,
    and once each."""
    calls = []
    monkeypatch.setattr(csv_identity, "csv_hash", lambda tree, *run: calls.append(run[:3]) or "a" * 64)
    mc_train = str(ROOT / "perfbench" / "scenarios" / "mc-train.json")
    design_solve = str(ROOT / "perfbench" / "scenarios" / "design-solve.json")
    late = [
        ("simulate", ["--eps-frac", "0.002", "--config", mc_train], 5),
        ("sweep-sigma", ["--sigma2", "0.01,0.1,0.2,0.3,0.4", "--bw", "1e6,2e6,5e6", "--eps-frac", "0.02",
                         "--config", mc_train], 1),
        ("validate-theorem", ["--eps-fracs", "0.05,0.002", "--config", mc_train], 1),
        ("optimize", ["--config", design_solve], 9091),
        ("optimize", ["--method", "ellipsoid", "--config", design_solve], 1),
    ]
    assert csv_identity.main([str(ROOT), str(ROOT), "--seeds", "1,2"]) == 0
    assert len(calls) == 2 * (5 * 2 + 5) and calls[-10:] == [run for run in late for _ in ("base", "new")]
    lines = capsys.readouterr().out.splitlines()
    default_runs = csv_identity.LATE_RUNS + csv_identity.BINDING_RUNS
    assert [line.split("  ")[2] for line in lines[-len(default_runs):]] == list(default_runs)
    calls.clear()
    argv = ["--only", "simulate", "--extra", csv_identity.LATE_RUNS[0]]  # an --extra naming a late run runs once
    assert csv_identity.main([str(ROOT), str(ROOT), *argv]) == 0
    simulate = ("simulate", ["--config", mc_train], 1)
    assert calls == [run for run in (simulate, late[0]) for _ in ("base", "new")]
    calls.clear()
    assert csv_identity.main([str(ROOT), str(ROOT), "--only", "sweep-sigma", "--default-scenario"]) == 0
    assert calls[-2:] == [("sweep-sigma", late[1][1][:-2], 1)] * 2
    calls.clear()  # the binding runs bind only at design-solve's budget
    assert csv_identity.main([str(ROOT), str(ROOT), "--only", "optimize", "--default-scenario"]) == 0
    assert calls == [("optimize", ["--method", "subgradient"], 1)] * 2


def test_extra_run_at_the_default_scenario_writes_the_same_bytes(capsys):
    argv = ["--only", "optimize", "--default-scenario", "--extra", "optimize --method ellipsoid --seed 3"]
    assert csv_identity.main([str(ROOT), str(ROOT), *argv]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("same  seed 3  optimize --method ellipsoid --seed 3  ")
    assert len(set(line.split()[-2:])) == 1


@pytest.mark.parametrize("extra", ["train --seed 1", ""])
def test_extra_of_an_unknown_command_exits_two(capsys, extra):
    assert csv_identity.main([str(ROOT), str(ROOT), "--extra", extra]) == 2
    assert "unknown commands" in capsys.readouterr().err


def test_extra_seed_must_be_an_integer(capsys):
    with pytest.raises(SystemExit) as stop:
        csv_identity.main([str(ROOT), str(ROOT), "--extra", "simulate --seed x"])
    assert stop.value.code == 2 and "--seed needs an integer" in capsys.readouterr().err


def test_seeds_take_inclusive_ranges_next_to_single_seeds():
    args = csv_identity.parse_args([str(ROOT), str(ROOT), "--seeds", "4-6, 77,9-9,1"])
    assert args.seeds == [4, 5, 6, 77, 9, 1]


@pytest.mark.parametrize("seeds", ["6-4", "1-", "-3", "1-2-3", "a-b", "1,x", ","])
def test_a_reversed_or_malformed_seed_range_exits_two(capsys, seeds):
    with pytest.raises(SystemExit) as stop:
        csv_identity.parse_args([str(ROOT), str(ROOT), "--seeds", seeds])
    assert stop.value.code == 2 and "--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["simulate --seed=", "simulate --se 5", "simulate --conf=own.json"])
def test_extra_own_seed_and_config_spelled_so_they_win(capsys, extra):
    """An empty --seed= or an abbreviation the appended option would override is a usage error."""
    with pytest.raises(SystemExit) as stop:
        csv_identity.main([str(ROOT), str(ROOT), "--extra", extra])
    assert stop.value.code == 2 and "--extra" in capsys.readouterr().err


def test_failing_property_test_reports_its_example(tmp_path):
    """Under the repo's warning filters a failing @given test shows its example and the session goes on."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n < 5


        def test_passes():
            pass
    """))
    cmd = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", "test_probe.py"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 passed" in out


# perfbench/run.py of a fake tree: logs which tree ran, then prints the next canned record of that tree
FAKE_RUN = textwrap.dedent("""
    import json, os, sys
    tree = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(tree, "..", "order.log"), "a") as fh:
        fh.write(os.path.basename(tree) + " " + " ".join(sys.argv[1:]) + "\\n")
    with open(os.path.join(tree, "canned.json")) as fh:
        canned = json.load(fh)
    record = canned.pop(0) if len(canned) > 1 else canned[0]
    with open(os.path.join(tree, "canned.json"), "w") as fh:
        json.dump(canned, fh)
    print("command ... = 1 s")
    print(json.dumps(record))
""")

FAKE_SPEC = {
    "workloads": [{"name": "toy"}],
    "end_to_end": [{"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}],
    "per_layer": [{"name": "channel.draws", "unit": "count", "better": "lower"}],
}


def record(round_s, rss=50.0, correct=True, failed=0):
    metrics = {"round_s": {"value": round_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
               "channel.draws": {"value": 100 * round_s, "unit": "count"}}
    return {"correct": correct, "attempted": 3, "failed": failed, "metrics": metrics}


def fake_tree(root, name, canned, run_py=FAKE_RUN):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(run_py)
    (tree / "BENCHMARK.json").write_text(json.dumps(FAKE_SPEC))
    (tree / "canned.json").write_text(json.dumps(canned))
    return str(tree)


def test_pairs_alternate_and_the_file_holds_the_comparison(tmp_path):
    base = fake_tree(tmp_path, "base", [record(v) for v in (1.0, 1.2, 0.9, 1.1)] + [record(1.0)])
    new = fake_tree(tmp_path, "new", [record(v) for v in (0.7, 0.8, 1.3, 0.75)] + [record(0.6)])
    assert ab_bench.main([base, new, "--label", "toy", "--pairs", "4", "--seconds", "1"]) == 0
    runs = (tmp_path / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in runs] == ["base", "new", "new", "base", "base", "new", "new", "base",
                                                  "base", "new", "new", "base", "base", "new"]
    assert all("--trace 0" in line for line in runs[:8]) and all("--trace 1" in line for line in runs[8:])
    out = json.loads((tmp_path / "new" / "BENCH_toy.json").read_text())
    toy = out["workloads"]["toy"]
    assert [r["first"] for r in toy["runs"]] == ["base", "new", "base", "new"]
    m = toy["metrics"]["round_s"]
    assert (m["base"], m["new"]) == ([1.0, 1.2, 0.9, 1.1], [0.7, 0.8, 1.3, 0.75])
    assert (m["base_median"], m["new_median"], m["new_won"], m["pairs"]) == (1.05, 0.775, 3, 4)
    assert m["base_quartiles"] == pytest.approx([0.925, 1.175])
    assert m["change"] == pytest.approx(0.775 / 1.05 - 1.0)
    assert m["within_bound"] is True and m["gain_resolved"] is False  # 3 of 4 pairs is under nine tenths
    assert toy["metrics"]["peak_rss_mb"]["new_won"] == 0  # ties count for neither side
    assert toy["per_layer"] == {"channel.draws": {"base": 100.0, "new": 60.0}}


def test_each_run_records_the_round_count_of_its_run_file(tmp_path):
    """Rounds come from the run file perfbench writes for the run's arguments, next to the machine block."""
    writes_run_file = FAKE_RUN.replace("print(json.dumps(record))", textwrap.dedent("""
        args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
        out = os.path.join(tree, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
        with open(os.path.join(out, name), "w") as fh:
            json.dump({"machine": {"tree": os.path.basename(tree)}, "rounds": record.pop("rounds")}, fh)
        print(json.dumps(record))
    """))
    base = fake_tree(tmp_path, "base", [{**record(1.0), "rounds": n} for n in (10, 11)], writes_run_file)
    new = fake_tree(tmp_path, "new", [{**record(0.8), "rounds": n} for n in (12, 14)], writes_run_file)
    assert ab_bench.main([base, new, "--label", "rounds", "--pairs", "2", "--seconds", "1", "--no-trace"]) == 0
    toy = json.loads((tmp_path / "new" / "BENCH_rounds.json").read_text())["workloads"]["toy"]
    assert [(r["base"]["rounds"], r["new"]["rounds"]) for r in toy["runs"]] == [(10, 12), (11, 14)]
    assert toy["machine"] == {"tree": "new"}


# FAKE_RUN that also writes the run file, with the round wall times a canned record carries as "walls"
WRITES_WALLS = FAKE_RUN.replace("print(json.dumps(record))", textwrap.dedent("""
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    out = os.path.join(tree, "perfbench", "out")
    os.makedirs(out, exist_ok=True)
    name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
    with open(os.path.join(out, name), "w") as fh:
        json.dump({"rounds": 3, "round_walls_s": record.pop("walls")}, fh)
    print(json.dumps(record))
"""))


def test_runs_record_the_median_wall_round_time_of_their_run_file(tmp_path):
    """Each run, and each side's traced run beside its per-layer metrics, keeps the median of round_walls_s."""
    base = fake_tree(tmp_path, "base", [{**record(1.0), "walls": w} for w in ([0.3, 0.1, 0.2], [0.5, 0.4, 0.9],
                                                                              [0.7, 0.6, 0.8])], WRITES_WALLS)
    new = fake_tree(tmp_path, "new", [{**record(0.8), "walls": w} for w in ([0.2, 0.2, 0.1], [0.3],
                                                                            [0.4, 0.5])], WRITES_WALLS)
    assert ab_bench.main([base, new, "--label", "walls", "--pairs", "2", "--seconds", "1"]) == 0
    toy = json.loads((tmp_path / "new" / "BENCH_walls.json").read_text())["workloads"]["toy"]
    assert [(r["base"]["round_wall_s"], r["new"]["round_wall_s"]) for r in toy["runs"]] == [(0.2, 0.2), (0.5, 0.3)]
    assert toy["traced_round_wall_s"] == {"base": 0.7, "new": 0.45}
    assert toy["per_layer"] == {"channel.draws": {"base": 100.0, "new": 80.0}}


def test_per_layer_metrics_are_medians_of_three_traced_runs_a_side(tmp_path):
    """Three --trace 1 runs a side, alternating sides, after the pairs: per_layer and traced_round_wall_s hold
    each side's medians, and traced_runs every traced run's values in the order each side ran them."""
    base_traced = [{**record(v), "walls": w} for v, w in ((0.5, [0.3]), (0.9, [0.1, 0.2, 0.6]), (0.7, [0.4]))]
    new_traced = [{**record(v), "walls": w} for v, w in ((0.2, [0.2]), (0.6, [0.9]), (0.3, [0.5, 0.1]))]
    base = fake_tree(tmp_path, "base", [{**record(1.0), "walls": [1.0]}] * 2 + base_traced, WRITES_WALLS)
    new = fake_tree(tmp_path, "new", [{**record(0.8), "walls": [1.0]}] * 2 + new_traced, WRITES_WALLS)
    assert ab_bench.main([base, new, "--label", "medians", "--pairs", "2", "--seconds", "1"]) == 0
    traced = [line.split()[0] for line in (tmp_path / "order.log").read_text().splitlines() if "--trace 1" in line]
    assert traced == ["base", "new", "new", "base", "base", "new"]
    toy = json.loads((tmp_path / "new" / "BENCH_medians.json").read_text())["workloads"]["toy"]
    assert toy["per_layer"] == {"channel.draws": {"base": 70.0, "new": 30.0}}
    assert toy["traced_round_wall_s"] == {"base": 0.3, "new": 0.3}
    assert toy["traced_runs"] == {
        "per_layer": {"channel.draws": {"base": [50.0, 90.0, 70.0], "new": [20.0, 60.0, 30.0]}},
        "round_wall_s": {"base": [0.3, 0.2, 0.4], "new": [0.2, 0.9, 0.3]},
    }


def test_wall_round_time_is_compared_and_printed_next_to_round_s(tmp_path, capsys):
    """Both sides' medians of the per-run wall round times, their change and the pairs won, beside round_s:
    here round_s gains 20% in every pair, wall time 5% in two of three."""
    base_walls, new_walls = ([0.10, 0.30], [0.20], [0.40, 0.40]), ([0.15], [0.19, 0.19], [0.50])
    base = fake_tree(tmp_path, "base", [{**record(1.0), "walls": w} for w in base_walls], WRITES_WALLS)
    new = fake_tree(tmp_path, "new", [{**record(0.8), "walls": w} for w in new_walls], WRITES_WALLS)
    assert ab_bench.main([base, new, "--label", "wall", "--pairs", "3", "--seconds", "1", "--no-trace"]) == 0
    toy = json.loads((tmp_path / "new" / "BENCH_wall.json").read_text())["workloads"]["toy"]
    wall = toy["round_wall_s"]
    assert (wall["base"], wall["new"]) == ([0.2, 0.2, 0.4], [0.15, 0.19, 0.5])
    assert (wall["base_median"], wall["new_median"], wall["new_won"], wall["pairs"]) == (0.2, 0.19, 2, 3)
    assert wall["change"] == pytest.approx(0.19 / 0.2 - 1.0)
    assert wall["within_bound"] is None and wall["gain_resolved"] is False
    assert toy["metrics"]["round_s"]["new_won"] == 3
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("toy round_s: 1 -> 0.8 s (-20.0%;"))
    assert lines[at + 1].startswith("toy round_wall_s: 0.2 -> 0.19 s (-5.0%;")
    assert "new won 2/3" in lines[at + 1]


def test_a_regression_beyond_the_bound_is_marked(tmp_path):
    base = fake_tree(tmp_path, "base", [record(1.0, rss=50.0)])
    new = fake_tree(tmp_path, "new", [record(1.3, rss=50.0)])
    assert ab_bench.main([base, new, "--label", "slow", "--pairs", "2", "--seconds", "1", "--no-trace"]) == 0
    m = json.loads((tmp_path / "new" / "BENCH_slow.json").read_text())["workloads"]["toy"]["metrics"]
    assert m["round_s"]["within_bound"] is False and m["peak_rss_mb"]["within_bound"] is True
    assert "per_layer" not in json.loads((tmp_path / "new" / "BENCH_slow.json").read_text())["workloads"]["toy"]


@pytest.mark.parametrize("bad", [record(1.0, correct=False), record(1.0, failed=1), "crash"])
def test_a_bad_run_on_either_side_exits_one(tmp_path, capsys, bad):
    crash = FAKE_RUN.replace("print(json.dumps(record))", "sys.exit(3) if record == 'crash' else print(json.dumps(record))")
    base = fake_tree(tmp_path, "base", [record(1.0)], crash)
    new = fake_tree(tmp_path, "new", [bad], crash)
    assert ab_bench.main([base, new, "--label", "bad", "--pairs", "1", "--seconds", "1", "--no-trace"]) == 1
    assert "FAILED: toy pair 0 new" in capsys.readouterr().err
    assert json.loads((tmp_path / "new" / "BENCH_bad.json").read_text())["failures"]


def test_different_benchmarks_or_unknown_workload_exit_two(tmp_path, capsys):
    base = fake_tree(tmp_path, "base", [record(1.0)])
    new = fake_tree(tmp_path, "new", [record(1.0)])
    assert ab_bench.main([base, new, "--label", "x", "--workloads", "toy,train"]) == 2
    assert "unknown workloads ['train']" in capsys.readouterr().err
    (tmp_path / "new" / "perfbench" / "out").mkdir()  # outputs do not count
    (tmp_path / "new" / "perfbench" / "out" / "toy.json").write_text("{}")
    (tmp_path / "new" / "perfbench" / "checks.py").write_text("# another check\n")
    assert ab_bench.main([base, new, "--label", "x"]) == 2
    assert "perfbench/ differ" in capsys.readouterr().err
    assert not (tmp_path / "order.log").exists()  # nothing ran
    assert not (tmp_path / "new" / "BENCH_x.json").exists()


def test_the_file_holds_each_trees_source_line_count(tmp_path, capsys):
    """src_lines counts what `cat src/swarmfl/*.py | wc -l` counts: newlines of the package's .py files only."""
    base = fake_tree(tmp_path, "base", [record(1.0)])
    new = fake_tree(tmp_path, "new", [record(1.0)])
    for tree, files in ((base, {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n", "notes.txt": "1\n2\n3\n"}),
                        (new, {"a.py": "x = 1\n", "b.py": "z = 3", "sub/c.py": "w = 4\n"})):
        for name, text in files.items():
            path = Path(tree) / "src" / "swarmfl" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    assert ab_bench.main([base, new, "--label", "lines", "--pairs", "1", "--seconds", "1", "--no-trace"]) == 0
    assert json.loads((tmp_path / "new" / "BENCH_lines.json").read_text())["src_lines"] == {"base": 3, "new": 1}
    assert "src/swarmfl/*.py lines: 3 -> 1" in capsys.readouterr().out
    for tree, lines in ((base, 3), (new, 1)):
        wc = subprocess.run(f"cat {tree}/src/swarmfl/*.py | wc -l", shell=True, capture_output=True, text=True)
        assert int(wc.stdout) == lines


def scan_output(*checks, failed=0):
    """stdout of a perfbench run whose checks found checks."""
    lines = [f"CHECK FAILED: {check}" for check in checks] + ["rounds 1, operations attempted 1, failed 0"]
    return "\n".join(lines + [json.dumps({"correct": not checks, "attempted": 1, "failed": failed})]) + "\n"


def test_seed_scan_prints_each_failing_check_and_tallies_them_by_kind(monkeypatch, capsys):
    runs = {
        ("mc-train", 1): (0, scan_output("sweep-sigma sigma2 0.2 bw 1e+06: predicted 62 vs empirical mean 65.22"), ""),
        ("mc-train", 2): (0, scan_output("sweep-sigma sigma2 0.1 bw 2e+06: predicted 60 vs empirical mean 63.5"), ""),
        ("mc-train", 3): (0, scan_output(), ""),
        ("design-solve", 1): (0, scan_output(failed=1), ""),
        ("design-solve", 2): (1, "", "Traceback: boom\n"),
        ("design-solve", 3): (0, scan_output("optimize: 2 result rows, 0 iterations"), ""),
    }
    calls = []
    monkeypatch.setattr(seed_scan, "run_round", lambda tree, w, seed: calls.append((tree, w, seed)) or runs[w, seed])
    assert seed_scan.main([str(ROOT), "--workloads", "mc-train,design-solve", "--seeds", "1-3"]) == 1
    assert calls == [(str(ROOT), w, seed) for w in ("mc-train", "design-solve") for seed in (1, 2, 3)]
    assert capsys.readouterr().out.splitlines() == [
        "mc-train  seed 1  sweep-sigma sigma2 0.2 bw 1e+06: predicted 62 vs empirical mean 65.22",
        "mc-train  seed 2  sweep-sigma sigma2 0.1 bw 2e+06: predicted 60 vs empirical mean 63.5",
        "design-solve  seed 1  1 failed operations",
        "design-solve  seed 2  no record (exit 1): Traceback: boom",
        "design-solve  seed 3  optimize: 2 result rows, 0 iterations",
        "6 runs, 5 failures",
        "     2  sweep-sigma sigma2 # bw #: predicted # vs empirical mean #",
        "     1  # failed operations",
        "     1  no record (exit #): Traceback: boom",
        "     1  optimize: # result rows, # iterations",
    ]


def test_seed_scan_of_clean_runs_exits_zero_and_unknown_workloads_two(monkeypatch, capsys):
    monkeypatch.setattr(seed_scan, "run_round", lambda *run: (0, scan_output(), ""))
    assert seed_scan.main([str(ROOT), "--workloads", "design-compare", "--seeds", "4,9"]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 runs, 0 failures"]
    assert seed_scan.main([str(ROOT), "--workloads", "design-compare,train", "--seeds", "1"]) == 2
    assert "unknown workloads ['train']" in capsys.readouterr().err
