"""Command-line front end for the experiment harness.

Subcommands map one-to-one onto the experiment functions and write tidy
CSV.  Exit codes: 0 success, 2 bad configuration, 3 no feasible design,
1 any other runtime failure.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .experiments import (
    emit_csv,
    experiment_compare_designs,
    experiment_optimize,
    experiment_simulate,
    experiment_sweep_sigma,
    experiment_validate_theorem,
)
from .saa import NoFeasibleDesignError
from .scenario import ConfigError, SwarmScenario, load_scenario

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmfl",
        description="Federated learning over a UAV swarm: prediction, simulation, and joint link design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str):
        p.add_argument("--config", help="scenario JSON (omit for built-in defaults)")
        p.add_argument("--seed", type=int, help="base seed (overrides the scenario's)")
        p.add_argument("--out", default=default_out, help=f"output CSV path (default {default_out})")

    p_vt = sub.add_parser("validate-theorem", help="predicted vs. simulated convergence rounds")
    common(p_vt, "validate-theorem.csv")
    p_vt.add_argument("--eps-fracs", type=_float_list, help="loss targets as fractions of the initial loss sum")

    p_ss = sub.add_parser("sweep-sigma", help="round counts over a jitter/bandwidth grid")
    common(p_ss, "sweep-sigma.csv")
    p_ss.add_argument("--sigma2", type=_float_list, help="jitter variances (default 0.01,0.05,0.1,0.2)")
    p_ss.add_argument("--bw", type=_float_list, help="bandwidths in Hz (default 1e6,2e6,5e6)")
    p_ss.add_argument("--eps-frac", type=float, default=0.10, help="loss target fraction (default 0.10)")

    p_cd = sub.add_parser("compare-designs", help="joint design vs. partial baselines")
    common(p_cd, "compare-designs.csv")
    p_cd.add_argument("--bw", type=_float_list, help="bandwidths in Hz (default 1e6,2e6,5e6)")
    p_cd.add_argument("--baseline-draws", type=int, default=20, help="random baseline redraws (default 20)")

    p_opt = sub.add_parser("optimize", help="solve the joint design problem")
    common(p_opt, "optimize.csv")
    p_opt.add_argument(
        "--method", choices=("subgradient", "ellipsoid"), default="subgradient",
        help="dual solver (default subgradient)",
    )

    p_sim = sub.add_parser("simulate", help="per-run federated training telemetry")
    common(p_sim, "simulate.csv")
    p_sim.add_argument("--eps-frac", type=float, help="loss target fraction (default: first scenario entry)")

    for p in (p_vt, p_ss, p_sim):  # the commands that train
        p.add_argument("--mc-runs", type=int, dest="mc_runs", help="Monte Carlo repetitions")
    for p in (p_cd, p_opt):  # the commands that solve
        p.add_argument("--samples-k", type=int, dest="samples_k", help="frozen optimizer sample count")
    return parser


def _load(args) -> SwarmScenario:
    scenario = load_scenario(args.config) if args.config else SwarmScenario()
    if args.seed is not None:
        scenario = replace(scenario, base_seed=int(args.seed))
    if getattr(args, "mc_runs", None) is not None:
        scenario = replace(scenario, mc_runs=int(args.mc_runs))
    if getattr(args, "samples_k", None) is not None:
        scenario = replace(scenario, saa=replace(scenario.saa, samples_k=int(args.samples_k)))
    return scenario.require_valid()  # the overrides meet the same field bounds


def _run_command(args) -> int:
    t_start = time.perf_counter()
    scenario = _load(args)
    if args.command == "validate-theorem":
        result = experiment_validate_theorem(scenario, eps_fracs=args.eps_fracs)
    elif args.command == "sweep-sigma":
        # a given but empty grid is passed on, so the experiment rejects it
        kwargs = {}
        if args.sigma2 is not None:
            kwargs["sigma2_list"] = tuple(args.sigma2)
        if args.bw is not None:
            kwargs["bw_list"] = tuple(args.bw)
        result = experiment_sweep_sigma(scenario, eps_frac=args.eps_frac, **kwargs)
    elif args.command == "compare-designs":
        kwargs = {"n_baseline_draws": args.baseline_draws}
        if args.bw is not None:
            kwargs["bw_list"] = tuple(args.bw)
        result = experiment_compare_designs(scenario, **kwargs)
    elif args.command == "optimize":
        result = experiment_optimize(scenario, method=args.method)
    elif args.command == "simulate":
        result = experiment_simulate(scenario, eps_frac=args.eps_frac)
    else:  # pragma: no cover - argparse enforces the choices
        raise RuntimeError(f"unhandled command {args.command!r}")
    emit_csv(result, args.out)
    wall = time.perf_counter() - t_start
    print(f"{args.command}: wrote {len(result.rows)} rows to {args.out} in {wall:.1f} s")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as exc:
        print(f"configuration error:\n  " + "\n  ".join(exc.errors), file=sys.stderr)
        return EXIT_CONFIG
    except NoFeasibleDesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
