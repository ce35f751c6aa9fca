"""Check that two source trees write byte-identical benchmark CSVs.

    python3 tools/csv_identity.py BASE_TREE NEW_TREE --seeds 1,77,4242

--seeds is a comma-separated list of seeds and inclusive ranges A-B, so
one command scans a range: `--seeds 1-60 --only optimize`.

Runs the five CLI commands of the benchmark workloads (validate-theorem,
sweep-sigma and simulate on mc-train, optimize on design-solve and
compare-designs on design-compare), with the arguments BASE_TREE's
`perfbench/run.py` gives them, once per seed in each tree, each as
`python3 -m swarmfl` with that tree's `src/` on PYTHONPATH, and compares
the sha256 of every CSV.  Both trees read the scenario files of BASE_TREE
(`perfbench/scenarios/`), so only the program differs.  Prints one line per
command and seed, and exits 1 on any mismatch or failed command, 2 on an
unknown command, 0 otherwise.  Under the line of two CSVs that differ it
says what moved: how many rows and cells, and the largest relative change
of each column that moved (see moved_cells).

After the benchmark commands it compares the late runs (LATE_RUNS), whose
repetitions train past one 128-round block of channel draws, which no
workload does: `simulate --eps-frac 0.002 --seed 5`, a wide sweep-sigma and
`validate-theorem --eps-fracs 0.05,0.002 --seed 1`.  Then the binding runs
(BINDING_RUNS), whose dual steps evaluate the Lagrangian at nonzero
multipliers, which no benchmark seed does past step 2: `optimize --seed
9091` (32 dual steps) and `optimize --method ellipsoid --seed 1` (27 steps
and 173 cuts).

--only restricts the run to the named commands, the late and binding runs
of those commands included; --default-scenario runs them at the built-in
default scenario instead of the workload's file, and leaves out the binding
runs, whose energy rows bind only at design-solve's budget.

--extra "COMMAND ARGS..." (repeatable) compares one more run, such as a
path no workload reaches:

    python3 tools/csv_identity.py BASE NEW --only simulate \
        --extra "simulate --eps-frac 0.002 --seed 5" --extra "optimize --method ellipsoid"

It runs like the benchmark command of the same name: at that workload's
scenario file (unless ARGS give --config, or --default-scenario is set)
and at every seed of --seeds, or only at its own seed if ARGS give --seed.
ARGS may write --seed=N and --config=PATH; an abbreviation of either
(--conf) is a usage error, since the seed or scenario file appended after
it would win.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

# Runs compared by default after the benchmark commands, each at its own seed,
# read like --extra runs: the only ones that draw more than one channel block.
LATE_RUNS = (
    "simulate --eps-frac 0.002 --seed 5",
    "sweep-sigma --sigma2 0.01,0.1,0.2,0.3,0.4 --bw 1e6,2e6,5e6 --eps-frac 0.02 --seed 1",
    "validate-theorem --eps-fracs 0.05,0.002 --seed 1",
)
# Runs compared by default after the late runs, at design-solve's scenario:
# many dual steps at nonzero multipliers, where the benchmark seeds stop at step 2.
BINDING_RUNS = ("optimize --seed 9091", "optimize --method ellipsoid --seed 1")


def benchmark_commands(tree: str) -> dict:
    """command -> (workload scenario file, CLI arguments after the command), from tree's perfbench/run.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(tree, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return {
        argv[0]: (f"{workload}.json", argv[1:])
        for workload, ops in run.WORKLOADS.items()
        for _, argv in ops
    }


def csv_hash(tree: str, command: str, args: list, seed: int, out: str) -> str | None:
    """sha256 of the CSV that command writes to out at seed from tree's sources; None if it fails."""
    argv = [sys.executable, "-m", "swarmfl", command, *args, "--seed", str(seed), "--out", out]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(f"  {tree}: {command} exited {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
        return None
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _relative_change(old: str, new: str) -> float | None:
    """|new - old| / |old| of two numeric cells (inf from 0); None unless both are numbers."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def moved_cells(base_text: str, new_text: str) -> list[str]:
    """What moved from one CSV to another, as report lines: the rows and cells
    that differ, matched by position under a shared header, then each column
    that moved with its largest relative change ("text" where a cell is not
    a number)."""
    base, new = (list(csv.reader(text.splitlines())) for text in (base_text, new_text))
    if not base or not new or base[0] != new[0]:
        return ["headers differ"]
    header, pairs = base[0], list(zip(base[1:], new[1:]))
    changes = {}  # column -> relative changes of its moved cells
    rows = 0
    for old_row, new_row in pairs:
        moved = [(col, a, b) for col, a, b in zip(header, old_row, new_row) if a != b]
        rows += bool(moved)
        for col, a, b in moved:
            changes.setdefault(col, []).append(_relative_change(a, b))
    lines = [f"{rows} of {len(pairs)} rows moved, {sum(map(len, changes.values()))} cells"]
    if len(base) != len(new):
        lines.append(f"row count {len(base) - 1} -> {len(new) - 1}")
    for col in header:
        if col in changes:
            values = changes[col]
            largest = "text" if None in values else f"{max(values):.2g}"
            lines.append(f"{col}: {len(values)} cells, largest relative change {largest}")
    return lines


def parse_seeds(text: str) -> list[int]:
    """The seeds of a --seeds value: comma-separated seeds and inclusive ranges A-B, in order."""
    seeds = []
    for item in filter(None, (s.strip() for s in text.split(","))):
        bounds = re.fullmatch(r"(\d+)(?:-(\d+))?", item)
        if bounds is None:
            raise ValueError(f"--seeds must be comma-separated seeds or ranges A-B, got {text!r}")
        lo, hi = int(bounds[1]), int(bounds[2] or bounds[1])
        if hi < lo:
            raise ValueError(f"--seeds range {item!r} is reversed")
        seeds += range(lo, hi + 1)
    if not seeds:
        raise ValueError("--seeds must name at least one seed")
    return seeds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="source tree whose CSVs are the reference")
    parser.add_argument("new", help="source tree to compare against it")
    parser.add_argument("--seeds", default="1", help="comma-separated base seeds and ranges A-B (default 1)")
    parser.add_argument("--only", action="append", help="run only this command (repeatable)")
    parser.add_argument("--default-scenario", action="store_true",
                        help="run at the built-in default scenario, without --config")
    parser.add_argument("--extra", action="append", default=[], metavar='"COMMAND ARGS..."',
                        help="compare one more run of COMMAND with ARGS (repeatable)")
    args = parser.parse_args(argv)
    try:
        args.seeds = parse_seeds(args.seeds)
    except ValueError as err:
        parser.error(str(err))
    extras = []
    default_runs = LATE_RUNS if args.default_scenario else LATE_RUNS + BINDING_RUNS
    late = [text for text in default_runs if not args.only or text.split()[0] in args.only]
    for text in dict.fromkeys([*late, *args.extra]):  # an --extra naming a late run runs once
        command, *given = shlex.split(text) or [""]
        words = []
        for word in given:  # --seed=N and --config=PATH become two words each
            name, eq, value = word.partition("=")
            if name in ("--seed", "--config"):
                words += [name, value] if eq else [name]
            elif len(name) > 2 and ("--seed".startswith(name) or "--config".startswith(name)):
                parser.error(f"--extra {text!r}: spell out {name} as --seed or --config")
            else:
                words.append(word)
        seeds = args.seeds
        if "--seed" in words:
            at = words.index("--seed")
            try:
                seeds, words = [int(words[at + 1])], words[:at] + words[at + 2:]
            except (IndexError, ValueError):
                parser.error(f"--extra {text!r}: --seed needs an integer")
        extras.append((text, command, words, seeds))
    args.extra = extras
    return args


def planned_runs(args, commands: dict) -> list:
    """(label, command, CLI arguments, seed) of every comparison: each
    benchmark command (or each --only) at each seed, then each late and
    binding run of those commands and each --extra."""
    runs = [(c, c, commands[c][1], seed) for seed in args.seeds for c in args.only or commands]
    runs += [(text, command, words, seed) for text, command, words, seeds in args.extra for seed in seeds]
    scenarios = os.path.join(os.path.abspath(args.base), "perfbench", "scenarios")
    planned = []
    for label, command, cli_args, seed in runs:
        if not (args.default_scenario or "--config" in cli_args):
            cli_args = [*cli_args, "--config", os.path.join(scenarios, commands[command][0])]
        planned.append((label, command, cli_args, seed))
    return planned


def main(argv=None) -> int:
    args = parse_args(argv)
    commands = benchmark_commands(args.base)
    unknown = set(args.only or ()) | {command for _, command, _, _ in args.extra}
    unknown -= set(commands)
    if unknown:
        print(f"unknown commands {sorted(unknown)}; the benchmark runs {sorted(commands)}", file=sys.stderr)
        return 2
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, cli_args, seed in planned_runs(args, commands):
            outs = [os.path.join(tmp, f"{side}-{command}-{seed}.csv") for side in ("base", "new")]
            hashes = [csv_hash(tree, command, cli_args, seed, out) for tree, out in zip((args.base, args.new), outs)]
            same = hashes[0] is not None and hashes[0] == hashes[1]
            mismatches += not same
            print(f"{'same' if same else 'DIFFERENT'}  seed {seed}  {label}  {hashes[0]}  {hashes[1]}")
            if not same and None not in hashes:
                for line in moved_cells(*(Path(out).read_text(encoding="utf-8") for out in outs)):
                    print(f"    {line}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
