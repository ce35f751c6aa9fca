"""swarmfl benchmark: runs one workload through ``swarmfl.cli.main`` and
prints its metrics; see README.md in this directory.

    python3 perfbench/run.py --workload mc-train --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (it imports ``src/swarmfl``).  The
run repeats whole rounds of the workload's CLI commands, in this process,
until --seconds have passed, checks the first round's CSV output against
reference computations and every later round's against the first, and
prints one JSON object as its last stdout line.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics.  Untraced times are
rescaled to a reference core speed by the speed probe (speed.py).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
N_SETUP = 5  # cold set-ups per run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SIGMA2_GRID = (0.01, 0.05, 0.1, 0.2)
BW_GRID = (1e6, 2e6, 5e6)
SWEEP_EPS_FRAC = 0.1
BASELINE_DRAWS = 20


def _grid(values):
    return ",".join(f"{v:g}" for v in values)


# workload -> [(command metric, CLI arguments)]; --config, --seed and --out are added
WORKLOADS = {
    "mc-train": [
        ("validate_theorem_s", ["validate-theorem"]),
        ("sweep_sigma_s", ["sweep-sigma", "--sigma2", _grid(SIGMA2_GRID), "--bw", _grid(BW_GRID),
                           "--eps-frac", str(SWEEP_EPS_FRAC)]),
        ("simulate_s", ["simulate"]),
    ],
    "design-solve": [("optimize_s", ["optimize", "--method", "subgradient"])],
    "design-compare": [
        ("compare_designs_s", ["compare-designs", "--bw", _grid(BW_GRID),
                               "--baseline-draws", str(BASELINE_DRAWS)]),
    ],
}
COMMAND_METRICS = [m for ops in WORKLOADS.values() for m, _ in ops]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_threads():
    """BLAS/OpenMP pools sized to the CPUs this process may use.

    The pools read these variables when numpy loads, so every module that
    imports numpy (swarmfl, checks, tracing's targets) is imported later.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def cold_setups(scenario_path):
    """N_SETUP set-ups, each in a fresh interpreter (import cost shows once per process)."""
    probes = []
    for _ in range(N_SETUP):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, scenario_path],
            capture_output=True, text=True, timeout=120, check=True,
        )
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


def machine_record(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def clear_memo_caches():
    """Empty swarmfl's per-process memo caches, so each round pays what a
    fresh ``swarmfl`` process pays."""
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "swarmfl" or key.startswith("swarmfl.")):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_round(cli, ops, argv_tail, probe=None, tracer=None):
    """One pass over the workload's commands: [(metric, exit code, seconds, csv bytes)].

    With a running speed probe the seconds are rescaled (speed.py); traced
    rounds run without it and report wall seconds.
    """
    results = []
    for metric, args in ops:
        out = os.path.join(OUT, f"{args[0]}.csv")
        argv = args + argv_tail + ["--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                mark = probe.mark()
                code = cli.main(argv)
                elapsed = probe.scaled(mark)
            else:
                t0 = time.perf_counter()
                code = tracer.span("cli.main", cli.main, (argv,))
                elapsed = time.perf_counter() - t0
        data = open(out, "rb").read() if code == 0 else b""
        results.append((metric, code, elapsed, data))
    return results


def layer_metrics(tr, untraced_rounds, traced_walls, untraced_walls, setup):
    """Per-layer metrics of one traced round (names as in BENCHMARK.json)."""
    dual_iters = tr.counters["saa.dual_iters"]
    feasibility_checks = tr.calls("saa.unsmoothed_feasibility")
    m = {
        "channel.draws": tr.counters["channel.draws"],
        "fl.rounds": tr.counters["fl.rounds"],
        "saa.dual_iters": dual_iters,
        "saa.lagrangian_per_dual_iter": tr.calls("saa.lagrangian") / dual_iters if dual_iters else 0.0,
        "saa.feasible_ratio": tr.counters["saa.feasible"] / feasibility_checks if feasibility_checks else 0.0,
        "experiments.self_s": tr.self_s("cli.main") + tr.self_s("experiments.experiment"),
        "experiments.csv_bytes": tr.counters["experiments.csv_bytes"],
        "swarmfl.import_s": setup["import_s"],
        "scenario.load_scenario_s": setup["load_s"],
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    for metric in COMMAND_METRICS:
        times = [t for rnd in untraced_rounds for name, _, t, _ in rnd if name == metric]
        m[metric] = statistics.median(times) if times else 0.0
    for name, (calls, _, self_s) in tr.stats.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    return m


def check_outputs(seed, scenario, first_round):
    import checks

    ctx = checks.Context(scenario, seed)
    problems = []
    rows = {metric: checks.parse_csv(data.decode("utf-8")) for metric, code, _, data in first_round
            if code == 0}
    if "validate_theorem_s" in rows:
        checks.check_validate_theorem(ctx, rows["validate_theorem_s"], problems)
    if "sweep_sigma_s" in rows:
        checks.check_sweep_sigma(ctx, rows["sweep_sigma_s"], SIGMA2_GRID, BW_GRID, SWEEP_EPS_FRAC, problems)
    if "simulate_s" in rows:
        checks.check_simulate(ctx, rows["simulate_s"], problems)
    if "optimize_s" in rows and checks.optimize_is_binding(rows["optimize_s"]):
        checks.check_optimize(ctx, rows["optimize_s"], problems)
    if "compare_designs_s" in rows:
        checks.check_compare_designs(ctx, rows["compare_designs_s"], BW_GRID, BASELINE_DRAWS, problems)
    return problems


def op_failed(metric, code, data):
    """An operation fails on a non-zero exit, or when optimize no longer
    takes the binding path its workload exists to measure."""
    if code != 0:
        return True
    if metric == "optimize_s":
        import checks

        return not checks.optimize_is_binding(checks.parse_csv(data.decode("utf-8")))
    return False


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "swarmfl", "cli.py")):
        print(f"error: no swarmfl sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    nproc = cap_threads()
    scenario_path = os.path.join(HERE, "scenarios", f"{args.workload}.json")
    setup = cold_setups(scenario_path)

    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    from swarmfl import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported swarmfl from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from speed import SpeedProbe
    from tracing import Tracer

    with open(scenario_path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    ops = WORKLOADS[args.workload]
    argv_tail = ["--config", scenario_path, "--seed", str(args.seed)]

    probe = SpeedProbe()
    rounds, walls, tracers = [], [], []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds or (args.trace and not tracers):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        clear_memo_caches()
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            try:
                rnd = run_round(cli, ops, argv_tail, tracer=tracer)
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            probe.start()
            try:
                rnd = run_round(cli, ops, argv_tail, probe)
            finally:
                probe.stop()
        walls.append((traced, time.perf_counter() - t0))
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(r) for r in rounds)
    failed = sum(op_failed(metric, code, data) for r in rounds for metric, code, _, data in r)
    problems = check_outputs(args.seed, scenario, rounds[0])
    for k, rnd in enumerate(rounds[1:], start=2):
        for (metric, code, _, data), first in zip(rnd, rounds[0]):
            if code == 0 and first[1] == 0 and data != first[3]:
                problems.append(f"round {k}: {metric} CSV differs from round 1")

    untraced = [r for r, (traced, _) in zip(rounds, walls) if not traced]
    command_s = {m: statistics.median(t for r in untraced for name, _, t, _ in r if name == m)
                 for m, _ in ops}
    if args.trace:
        per_round = [
            layer_metrics(tr, untraced, [w for t, w in walls if t], [w for t, w in walls if not t], setup)
            for tr in tracers
        ]
        values = {}
        for entry in wanted:
            name = entry["name"]
            if name.endswith(".calls") or name.endswith(".self_s"):
                values[name] = statistics.median(m.get(name, 0) for m in per_round)
            else:
                values[name] = statistics.median(m[name] for m in per_round)
    else:
        values = {
            "setup_s": setup["setup_s"],
            "round_s": statistics.median(sum(t for _, _, t, _ in r) for r in untraced),
            "peak_rss_mb": peak_rss_mb,
        }

    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(nproc),
        "rounds": len(rounds),
        "round_walls_s": [w for _, w in walls],
        "round_scaled_s": [sum(t for _, _, t, _ in r) for r in untraced],
        "probe": {"samples": len(probe.samples),
                  "loop_s_quartiles": statistics.quantiles(probe.samples, n=4) if len(probe.samples) > 1 else []},
        "command_s": command_s,
        "setup": setup,
        "problems": problems,
        "metrics": metrics,
    }
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracers:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump([tr.to_json() for tr in tracers], fh)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, secs in command_s.items():
        print(f"command {name} = {secs:.4f} s (median of {len(untraced)} untraced rounds)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"rounds {len(rounds)}, operations attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
