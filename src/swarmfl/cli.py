"""Command-line front end for the experiment harness.

Subcommands map one-to-one onto the experiment functions and write tidy
CSV.  Each experiment flag is stored under the name of the parameter it
sets, so a run is one call of the subcommand's experiment with the flags
given.  Exit codes: 0 success, 2 bad configuration, 3 no feasible design,
1 any other runtime failure.
"""
from __future__ import annotations

import argparse
import inspect
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


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _defaulted(p: argparse.ArgumentParser, flag: str, name: str, text: str, **kwargs):
    """Add flag for parameter name of p's experiment, stored under that name
    and with no argparse default, so it is passed on only when given.  Its
    help shows the experiment's own default."""
    value = inspect.signature(p.get_default("experiment")).parameters[name].default
    shown = ",".join(f"{v:g}" for v in value) if isinstance(value, tuple) else value
    p.add_argument(flag, dest=name, help=f"{text} (default {shown})", **kwargs)


def _given(args) -> dict:
    """The experiment's parameters after the scenario whose flag was given;
    the rest keep the experiment's defaults.

    A grid given empty is kept, so the experiment rejects it.
    """
    names = list(inspect.signature(args.experiment).parameters)[1:]
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def build_parser() -> argparse.ArgumentParser:
    """The five subcommands; each carries its experiment, read from this module's names when called."""
    parser = argparse.ArgumentParser(
        prog="swarmfl",
        description="Federated learning over a UAV swarm: prediction, simulation, and joint link design.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, experiment, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", help="scenario JSON (omit for built-in defaults)")
        p.add_argument("--seed", type=int, help="base seed (overrides the scenario's)")
        p.add_argument("--out", default=f"{name}.csv", help=f"output CSV path (default {name}.csv)")
        return p

    p_vt = command("validate-theorem", experiment_validate_theorem, "predicted vs. simulated convergence rounds")
    p_vt.add_argument("--eps-fracs", type=_float_list, help="loss targets as fractions of the initial loss sum")

    p_ss = command("sweep-sigma", experiment_sweep_sigma, "round counts over a jitter/bandwidth grid")
    _defaulted(p_ss, "--sigma2", "sigma2_list", "jitter variances", type=_float_list)
    _defaulted(p_ss, "--bw", "bw_list", "bandwidths in Hz", type=_float_list)
    _defaulted(p_ss, "--eps-frac", "eps_frac", "loss target fraction", type=float)

    p_cd = command("compare-designs", experiment_compare_designs, "joint design vs. partial baselines")
    _defaulted(p_cd, "--bw", "bw_list", "bandwidths in Hz", type=_float_list)
    _defaulted(p_cd, "--baseline-draws", "n_baseline_draws", "random baseline redraws", type=int)

    p_opt = command("optimize", experiment_optimize, "solve the joint design problem")
    _defaulted(p_opt, "--method", "method", "dual solver", choices=("subgradient", "ellipsoid"))

    p_sim = command("simulate", experiment_simulate, "per-run federated training telemetry")
    p_sim.add_argument("--eps-frac", type=float, help="loss target fraction (default: first scenario entry)")

    for p in (p_vt, p_ss, p_sim):  # the commands that train
        p.add_argument("--mc-runs", type=int, help="Monte Carlo repetitions (default: the scenario's)")
    for p in (p_cd, p_opt):  # the commands that solve
        p.add_argument("--samples-k", type=int, help="frozen optimizer sample count")
    return parser


def _load(args) -> SwarmScenario:
    scenario = load_scenario(args.config) if args.config else SwarmScenario()
    if args.seed is not None:
        scenario = replace(scenario, base_seed=int(args.seed))
    if getattr(args, "samples_k", None) is not None:
        scenario = replace(scenario, saa=replace(scenario.saa, samples_k=int(args.samples_k)))
    return scenario.require_valid()  # the overrides meet the same field bounds


def _run_command(args) -> int:
    """Run the subcommand's experiment on the loaded scenario with the flags given, and write its CSV."""
    t_start = time.perf_counter()
    result = args.experiment(_load(args), **_given(args))
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
