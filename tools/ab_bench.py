"""A/B benchmark of two source trees, written to BENCH_<label>.json.

    python3 tools/ab_bench.py BASE_TREE NEW_TREE --label L --pairs 10 --seconds 10 --seed 1

Runs `perfbench/run.py --trace 0` from the root of each tree, in pairs: BASE
runs first in even-numbered pairs and NEW in odd-numbered ones.  Every run
reads its end-to-end metrics from the last stdout line, the JSON record
perfbench prints, and its round count and the median of its wall round
times (`round_walls_s`) from the run file perfbench writes; the medians
of those per-run wall times are compared like an end-to-end metric
without a bound (`round_wall_s`) and printed next to `round_s`, so a
scaled gain that wall time does not bear out shows.  Then three
`--trace 1` runs per side, alternating sides as the pairs do, put the
medians of their per-layer metrics side by side (`per_layer`), with the
medians of their median wall round times (`traced_round_wall_s`); every
traced run's values are kept beside them (`traced_runs`).  Per-layer
`self_s` are wall seconds, where `round_s` is scaled to a reference core.
The file, at NEW_TREE's root, holds per workload each run's round count
and median wall round time, and per end-to-end metric both sides' raw
values, the medians, BASE's quartiles, the pairs NEW won (ties count for
neither side), whether the change in the median is within the metric's
BENCHMARK.json bound, and whether a gain is resolved: NEW won at least
nine in ten pairs and the medians differ by more than BASE's
interquartile range.  The file also holds each tree's line count of
src/swarmfl/*.py (`src_lines`), as `cat src/swarmfl/*.py | wc -l` counts
it, which the script prints too.

Exits 2 when the two trees' perfbench/ differ (so both sides would not run
the same benchmark) or a workload is unknown; 1 when a run on either side
exits non-zero, prints no record, reports `correct: false` or a failed
operation; 0 otherwise.  The file is written in every case but the first.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

SKIPPED_DIRS = {"out", "__pycache__"}  # perfbench's outputs and bytecode, not the benchmark
RUN_KEYS = ("correct", "attempted", "failed", "rounds", "round_wall_s", "error")  # kept of each run's record
TRACED_RUNS = 3  # --trace 1 runs per side; one cannot place a saving of a few percent of a round


def bench_files(tree: str) -> dict:
    """relative path -> bytes of every file of tree's perfbench/, outputs and caches left out."""
    root = os.path.join(tree, "perfbench")
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIPPED_DIRS and not d.startswith(".")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def src_lines(tree: str) -> int:
    """Newlines in tree's src/swarmfl/*.py, the count `cat src/swarmfl/*.py | wc -l` prints."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "swarmfl", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_bench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON record perfbench prints last, with the run file's round count and median wall round time;
    {"error": ...} when the run gives none."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py imports its own tree
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"last stdout line is not JSON: {lines[-1][:200]}"}
    run = run_file(tree, workload, seed, trace)
    # how many rounds the run fit, which perfbench keeps in memory until it ends (peak_rss_mb grows with it)
    record["rounds"] = run.get("rounds")
    # the median wall seconds of its rounds: unscaled, like the self_s of a traced run's per-layer metrics
    walls = run.get("round_walls_s")
    record["round_wall_s"] = statistics.median(walls) if walls else None
    return record


def run_file(tree: str, workload: str, seed: int, trace: int) -> dict:
    """The run file perfbench wrote last for these arguments, {} if there is none."""
    path = os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace{trace}.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def failure(record: dict) -> str | None:
    """Why a run does not count as a clean run, or None."""
    if "error" in record:
        return record["error"]
    if not record.get("correct", False):
        return "correct: false"
    if record.get("failed", 0):
        return f"{record['failed']} of {record.get('attempted')} operations failed"
    return None


def median_of(values: list):
    """The median of the values a run gave, None if none gave one."""
    given = [v for v in values if v is not None]
    return statistics.median(given) if given else None


def compare(spec: dict, base: list, new: list) -> dict:
    """Medians, BASE's quartiles, pairs NEW won and the bound verdict (None without a bound) of paired values."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    pairs = [(b, n) for b, n in zip(base, new) if b is not None and n is not None]
    won = sum(sign * (n - b) < 0 for b, n in pairs)
    out = {"unit": spec["unit"], "better": spec["better"], "bound": spec.get("bound"), "base": base, "new": new,
           "pairs": len(pairs), "new_won": won}
    if not pairs:
        return out
    base_vals, new_vals = [b for b, _ in pairs], [n for _, n in pairs]
    base_med, new_med = statistics.median(base_vals), statistics.median(new_vals)
    q1, _, q3 = statistics.quantiles(base_vals, n=4) if len(base_vals) > 1 else base_vals * 3
    change = (new_med - base_med) / base_med  # perfbench reports no metric as 0
    out.update(
        base_median=base_med,
        new_median=new_med,
        base_quartiles=[q1, q3],
        change=change,
        within_bound=None if spec.get("bound") is None else sign * change <= spec["bound"],
        gain_resolved=won >= 0.9 * len(pairs) and abs(new_med - base_med) > q3 - q1,
    )
    return out


def sides_in_order(i: int) -> tuple[str, str]:
    """Which side runs first in pair (or traced run) i: BASE in even ones, NEW in odd ones."""
    return ("base", "new") if i % 2 == 0 else ("new", "base")


def bench_workload(args, spec: dict, workload: str) -> tuple[dict, list]:
    """(the workload's entry of the file, the failures seen) over args.pairs alternating pairs."""
    trees = {"base": args.base, "new": args.new}
    runs, failures = [], []
    for pair in range(args.pairs):
        order = sides_in_order(pair)
        records = {side: run_bench(trees[side], workload, args.seed, args.seconds, 0) for side in order}
        for side in order:
            why = failure(records[side])
            if why:
                failures.append(f"{workload} pair {pair} {side}: {why}")
        runs.append({"pair": pair, "first": order[0], **records})
        print(f"{workload} pair {pair} done ({order[0]} first)", file=sys.stderr)

    def values(side, name):
        return [r[side].get("metrics", {}).get(name, {}).get("value") for r in runs]

    def walls(side):
        return [r[side].get("round_wall_s") for r in runs]

    entry = {
        "machine": run_file(args.new, workload, args.seed, 0).get("machine"),
        "runs": [{"pair": r["pair"], "first": r["first"],
                  **{side: {k: r[side].get(k) for k in RUN_KEYS if k in r[side]} for side in trees}} for r in runs],
        "metrics": {e["name"]: compare(e, values("base", e["name"]), values("new", e["name"]))
                    for e in spec["end_to_end"]},
        # the unscaled twin of round_s: a scaled gain that wall time does not bear out shows here
        "round_wall_s": compare({"unit": "s", "better": "lower"}, walls("base"), walls("new")),
    }
    if args.trace:
        traced = {side: [] for side in trees}
        for run in range(TRACED_RUNS):
            for side in sides_in_order(run):
                record = run_bench(trees[side], workload, args.seed, args.seconds, 1)
                why = failure(record)
                if why:
                    failures.append(f"{workload} traced {side} run {run}: {why}")
                traced[side].append(record)
        raw = {
            "per_layer": {e["name"]: {side: [r.get("metrics", {}).get(e["name"], {}).get("value") for r in records]
                                      for side, records in traced.items()} for e in spec["per_layer"]},
            "round_wall_s": {side: [r.get("round_wall_s") for r in records] for side, records in traced.items()},
        }
        entry["per_layer"] = {name: {side: median_of(v) for side, v in sides.items()}
                              for name, sides in raw["per_layer"].items()}
        entry["traced_round_wall_s"] = {side: median_of(v) for side, v in raw["round_wall_s"].items()}
        entry["traced_runs"] = raw
    return entry, failures


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="source tree of the parent commit")
    parser.add_argument("new", help="source tree of the change; BENCH_<label>.json is written at its root")
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs per workload (default 10)")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds of every run (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="perfbench --seed of every run (default 1)")
    parser.add_argument("--workloads", help="comma-separated workloads (default: all of BENCHMARK.json)")
    parser.add_argument("--no-trace", dest="trace", action="store_false",
                        help="skip the --trace 1 runs")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if bench_files(args.base) != bench_files(args.new):
        print("the two trees' perfbench/ differ, so they would not run the same benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(args.base, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workloads is None else [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print(f"unknown workloads {unknown}; the benchmark runs {known}", file=sys.stderr)
        return 2

    result = {"label": args.label, "pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
              "src_lines": {"base": src_lines(args.base), "new": src_lines(args.new)}, "workloads": {}}
    failures = []
    for workload in workloads:
        result["workloads"][workload], seen = bench_workload(args, spec, workload)
        failures += seen
    result["failures"] = failures
    path = os.path.join(args.new, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for workload, entry in result["workloads"].items():
        metrics = dict(entry["metrics"])
        if "round_s" in metrics:  # the wall round time printed next to the scaled one
            metrics = {"round_s": metrics.pop("round_s"), "round_wall_s": entry["round_wall_s"], **metrics}
        for name, m in metrics.items():
            if "base_median" in m:
                print(f"{workload} {name}: {m['base_median']:.6g} -> {m['new_median']:.6g} {m['unit']}"
                      f" ({m['change']:+.1%}; base quartiles {m['base_quartiles'][0]:.6g},"
                      f" {m['base_quartiles'][1]:.6g}; new won {m['new_won']}/{m['pairs']};"
                      f" within bound {m['within_bound']})")
    print(f"src/swarmfl/*.py lines: {result['src_lines']['base']} -> {result['src_lines']['new']}")
    for why in failures:
        print(f"FAILED: {why}", file=sys.stderr)
    print(f"wrote {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
