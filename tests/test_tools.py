"""tools/csv_identity.py: compares the CSV bytes two source trees write."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("csv_identity", ROOT / "tools" / "csv_identity.py")
csv_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_identity)

OPTIMIZE_AT_DEFAULT = ["--seeds", "1", "--only", "optimize", "--default-scenario"]


def test_same_tree_writes_the_same_bytes(capsys):
    assert csv_identity.main([str(ROOT), str(ROOT), *OPTIMIZE_AT_DEFAULT]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("same  seed 1  optimize  ")
    base_hash, new_hash = line.split()[-2:]
    assert base_hash == new_hash and len(base_hash) == 64


@pytest.mark.parametrize("hashes", [("a" * 64, "b" * 64), (None, None)])
def test_mismatch_or_failed_command_exits_one(monkeypatch, capsys, hashes):
    produced = iter(hashes)
    monkeypatch.setattr(csv_identity, "csv_hash", lambda *args: next(produced))
    assert csv_identity.main([str(ROOT), str(ROOT), *OPTIMIZE_AT_DEFAULT]) == 1
    assert capsys.readouterr().out.startswith("DIFFERENT  seed 1  optimize")


def test_commands_come_from_the_benchmark():
    commands = csv_identity.benchmark_commands(str(ROOT))
    assert set(commands) == {"validate-theorem", "sweep-sigma", "simulate", "optimize", "compare-designs"}
    assert commands["optimize"] == ("design-solve.json", ["--method", "subgradient"])
    assert commands["sweep-sigma"][0] == "mc-train.json"


def test_unknown_command_exits_two(capsys):
    assert csv_identity.main([str(ROOT), str(ROOT), "--only", "train"]) == 2
    assert "unknown commands ['train']" in capsys.readouterr().err
