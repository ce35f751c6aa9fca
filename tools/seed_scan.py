"""Scan the output checks of perfbench over seeds, for one source tree.

    python3 tools/seed_scan.py TREE --workloads design-solve,design-compare --seeds 1-40

--seeds takes comma-separated seeds and inclusive ranges A-B, as
tools/csv_identity.py does.  For each workload and seed it runs one round
of TREE's `perfbench/run.py` (`--seconds 0.01 --trace 0`, from TREE's root,
so the run imports TREE's own sources) and reads what that round's checks
found: each `CHECK FAILED:` line, and the failed-operation count of the JSON
record the run prints last.  It prints one line per failing check, then the
tally of failures per check kind, where a kind is the check's message with
every number written as #.  Nothing is timed: the scan asks only which
checks fail where, so two trees can be compared seed by seed.

Exits 1 when a check failed, an operation failed or a run printed no
record; 2 on a workload TREE's BENCHMARK.json does not name; 0 otherwise.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from csv_identity import parse_seeds  # noqa: E402

# a number that is not part of a name (the 2 of sigma2 and the 1 of p_1 stay), written as # in a check kind
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def workloads_of(tree: str) -> list[str]:
    """The workloads of tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run_round(tree: str, workload: str, seed: int) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one untraced round of tree's perfbench at seed."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.01", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports its own tree
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def failures(code: int, stdout: str, stderr: str) -> list[str]:
    """What one run found wrong: its failing checks, its failed operations, or that it gave no record."""
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if not isinstance(record, dict):
        return [f"no record (exit {code}): {stderr.strip()[-300:]}"]
    found = [line.removeprefix("CHECK FAILED: ") for line in lines if line.startswith("CHECK FAILED: ")]
    if record.get("failed"):
        found.append(f"{record['failed']} failed operations")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", help="source tree whose perfbench/run.py is run")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds and ranges A-B")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as err:
        parser.error(str(err))
    workloads, known = [w.strip() for w in args.workloads.split(",") if w.strip()], workloads_of(args.tree)
    unknown = sorted(set(workloads) - set(known))
    if not workloads or unknown:
        print(f"unknown workloads {unknown}; the benchmark runs {known}", file=sys.stderr)
        return 2
    tally = collections.Counter()
    for workload in workloads:
        for seed in seeds:
            for message in failures(*run_round(args.tree, workload, seed)):
                print(f"{workload}  seed {seed}  {message}")
                tally[NUMBER.sub("#", message)] += 1  # its check kind
    print(f"{len(workloads) * len(seeds)} runs, {sum(tally.values())} failures")
    for kind, count in sorted(tally.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {kind}")
    return 1 if tally else 0


if __name__ == "__main__":
    sys.exit(main())
