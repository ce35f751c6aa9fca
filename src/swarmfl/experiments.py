"""Experiment harness: reproducible sweeps and CSV emission.

Each experiment derives every random seed it needs from the base seed plus
string labels, never from global state, so a rerun with the same config and
seed is byte-identical.  Monte Carlo repetitions share their per-repetition
seeds across grid points (common random numbers): a sweep over jitter
variance, bandwidth, or loss target then compares each trajectory against
itself under the changed parameter, and the reported trends are not at the
mercy of independent sampling noise.

Validation runs step with half the engine's default learning rate.  The
round predictor models the loss-sum decay factor (1 - rho); on a quadratic
objective a gradient step of 1/(2U) realizes exactly that per-round factor,
while the default 1/U contracts twice as fast in log scale and would make
any prediction comparison meaningless.  The default rate stays 1/U for the
engine and its contraction guarantees; only the predictor-vs-simulation
experiments pin the rate-matched step.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ScenarioSamples, estimate_success_probs, participation_masks
from .design import DesignVector
from .energy import round_energies
from .fl import run_fl
from .saa import _eps_sum, baseline_design, problem_constants, solve
from .scenario import ConfigError, SwarmScenario, _value_errors
from .seeds import derive_seed

__all__ = [
    "ExperimentResult",
    "emit_csv",
    "experiment_validate_theorem",
    "experiment_sweep_sigma",
    "experiment_compare_designs",
    "experiment_simulate",
    "experiment_optimize",
]

SCHEMA_VERSION = 1
_FIXED_COLUMNS = ("experiment", "schema_version")


@dataclass
class ExperimentResult:
    """Tidy result table: fixed column list, one dict per row.

    Every table starts with the experiment id and SCHEMA_VERSION: the
    columns given are placed after them, and append fills them in.
    """

    experiment_id: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.columns = [*_FIXED_COLUMNS, *self.columns]

    def append(self, **cells):
        unknown = set(cells) - set(self.columns[len(_FIXED_COLUMNS):])
        if unknown:
            raise KeyError(f"row keys not in columns: {sorted(unknown)}")
        self.rows.append({"experiment": self.experiment_id, "schema_version": SCHEMA_VERSION, **cells})


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def emit_csv(result: ExperimentResult, path) -> None:
    """Write the result table as UTF-8 CSV with a header row.

    Floats carry 9 significant digits; rows appear in insertion order, so
    re-emitting the same result is byte-identical.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_fmt_cell(row.get(col)) for col in result.columns])


def _design_columns(n_followers: int) -> list[str]:
    return [f"p_{i + 1}" for i in range(n_followers)] + ["p_leader", "beta", "v"]


def _design_cells(design: DesignVector) -> dict:
    cells = {f"p_{i + 1}": float(p) for i, p in enumerate(design.p)}
    cells.update(p_leader=design.p_leader, beta=design.beta, v=design.v)
    return cells


def _prob_columns(n_followers: int) -> list[str]:
    return [f"success_prob_{i + 1}" for i in range(n_followers)]


def _prob_cells(probs) -> dict:
    return {f"success_prob_{i + 1}": float(p) for i, p in enumerate(probs)}


# Rounds of masks every repetition is trained on first.  If any run at any
# point is still going after them, every repetition is drawn and trained again
# on the whole round budget.  At the default scenario runs stop well before
# (by round 78 at the seeds tried), so each repetition is drawn once there.
_FIRST_CHUNK = 128


def _train(model, points, design, n_rounds, seeds, epsilon):
    """(FlState, hits) per point of coupled runs trained to the loss gap epsilon.

    Equal to run_fl on participation_masks(points, design, n_rounds, seeds)
    at the rate-matched step.  Every run is first trained on the first
    _FIRST_CHUNK rounds; if some run at some point is still going after
    them, all runs are redrawn and trained again on the whole budget.  A
    state's masks and loss history stop at the last round computed.
    """
    lr = 0.5 / model.lipschitz_u
    for stop in (min(_FIRST_CHUNK, n_rounds), n_rounds):
        runs = [
            run_fl(model, masks, epsilon, lr=lr)
            for masks in participation_masks(points, design, n_rounds, seeds, stop)
        ]
        if stop == n_rounds or all(np.all(hits >= 0) for _, hits in runs):
            return runs


def _crossing_rounds(model, state, eps_means):
    """Per-threshold empirical crossing rounds of coupled training runs.

    One trajectory per repetition, trained to the tightest threshold (see
    _train); all crossings are read off the same trajectory.  Returns an
    array of shape (R, len(eps_means)) with -1 for thresholds never reached.
    """
    gaps = state.loss_history - model.f_star  # NaN once a run has stopped
    rounds = np.empty((len(gaps), len(eps_means)), dtype=int)
    for j, theta in enumerate(eps_means):
        below = gaps <= theta
        rounds[:, j] = np.where(below.any(axis=1), below.argmax(axis=1), -1)
    return rounds


def _run_seeds(scenario: SwarmScenario, label: str) -> list[int]:
    return [derive_seed(scenario.base_seed, label, rep) for rep in range(scenario.mc_runs)]


def _with_mc_runs(scenario: SwarmScenario, mc_runs: int | None) -> SwarmScenario:
    """The scenario, validated, with mc_runs in place of its own if given."""
    return (scenario if mc_runs is None else replace(scenario, mc_runs=mc_runs)).require_valid()


def _check(errors) -> None:
    """Raise ConfigError for experiment arguments out of range."""
    if errors:
        raise ConfigError(errors)


def _mean_std(values: np.ndarray) -> tuple[float | None, float | None, int]:
    """Mean/stddev over converged entries (-1 marks no crossing)."""
    good = values[values >= 0]
    if good.size == 0:
        return None, None, 0
    return float(good.mean()), float(good.std(ddof=0)), int(good.size)


def experiment_validate_theorem(
    scenario: SwarmScenario,
    eps_fracs=None,
    mc_runs: int | None = None,
) -> ExperimentResult:
    """Predicted vs. empirical convergence rounds across loss targets.

    Loss targets are fractions of the initial loss sum; the prediction uses
    Monte Carlo success probabilities at the scenario's default design, the
    empirical side averages first-crossing rounds over mc_runs coupled
    training runs.
    """
    scenario = _with_mc_runs(scenario, mc_runs)
    design = scenario.default_design()
    eps_fracs = tuple(scenario.epsilon_fracs if eps_fracs is None else eps_fracs)
    _check(
        _value_errors("eps_fracs", eps_fracs, "in (0, 1)")
        + ([] if eps_fracs else ["eps_fracs must not be empty"])
    )

    problem = problem_constants(scenario)
    model, s0 = problem.model, problem.initial_loss_sum
    n_total = model.n_total
    probs = estimate_success_probs(
        design, scenario, scenario.n_success_samples, derive_seed(scenario.base_seed, "vt-probs")
    )
    eps_sums = [frac * s0 for frac in eps_fracs]
    eps_means = [eps / n_total for eps in eps_sums]
    seeds = _run_seeds(scenario, "vt-run")
    [(state, _)] = _train(model, [scenario], design, scenario.max_rounds, seeds, min(eps_means))
    crossings = _crossing_rounds(model, state, eps_means)

    columns = (
        ["epsilon_frac", "epsilon_sum", "predicted_round", "empirical_mean",
         "empirical_std", "relative_gap", "mc_runs", "n_converged"]
        + _prob_columns(scenario.n_followers)
        + _design_columns(scenario.n_followers)
        + ["energy_leader_total", "energy_follower_total_ub"]
    )
    result = ExperimentResult("validate-theorem", columns)
    # a follower's upper bound transmits for its whole uplink window
    e_leader_round, e_followers_ub = round_energies(design, np.inf, scenario)
    e_follower_round_ub = float(np.max(e_followers_ub))
    for frac, eps_sum, col in zip(eps_fracs, eps_sums, range(len(eps_fracs))):
        predicted = problem.predicted_round(probs, eps_sum)
        emp_mean, emp_std, n_conv = _mean_std(crossings[:, col])
        rel_gap = None if emp_mean is None or predicted == 0 else abs(predicted - emp_mean) / predicted
        result.append(
            epsilon_frac=frac,
            epsilon_sum=eps_sum,
            predicted_round=predicted,
            empirical_mean=emp_mean,
            empirical_std=emp_std,
            relative_gap=rel_gap,
            mc_runs=scenario.mc_runs,
            n_converged=n_conv,
            **_prob_cells(probs),
            **_design_cells(design),
            energy_leader_total=predicted * e_leader_round,
            energy_follower_total_ub=predicted * e_follower_round_ub,
        )
    return result


def _with_sigma_bw(scenario: SwarmScenario, sigma2: float, bw: float) -> SwarmScenario:
    return replace(
        scenario,
        antenna=replace(scenario.antenna, sigma2=sigma2),
        radio=replace(scenario.radio, bw_up=bw, bw_down=bw),
    )


def experiment_sweep_sigma(
    scenario: SwarmScenario,
    sigma2_list=(0.01, 0.05, 0.1, 0.2),
    bw_list=(1e6, 2e6, 5e6),
    eps_frac: float = 0.10,
    mc_runs: int | None = None,
) -> ExperimentResult:
    """Round counts over an (antenna jitter variance, bandwidth) grid.

    The whole grid is read off one ss-probs draw of success-probability
    samples and, per repetition, one ss-run draw shared by every point
    (ScenarioSamples and participation_masks), so the grid is coupled
    draw-for-draw and the emitted trends reflect the parameters, not
    resampling luck.  Rows follow sigma2_list, then bw_list, repeats kept.
    Every point runs the scenario's default design.
    """
    scenario = _with_mc_runs(scenario, mc_runs)
    design = scenario.default_design()
    points = {
        (sigma2, bw): _with_sigma_bw(scenario, float(sigma2), float(bw))
        for sigma2 in sigma2_list
        for bw in bw_list
    }
    _check(
        _value_errors("eps_frac", eps_frac, "in (0, 1)")
        + [f"{name} must not be empty" for name, grid in (("sigma2_list", sigma2_list), ("bw_list", bw_list))
           if len(grid) == 0]
        + [f"sigma2={s!r}, bw={b!r}: {err}" for (s, b), point in points.items() for err in point.validate()]
    )

    columns = (
        ["sigma2", "bandwidth", "epsilon_frac", "epsilon_sum", "predicted_round",
         "empirical_mean", "empirical_std", "mc_runs", "n_converged"]
        + _prob_columns(scenario.n_followers)
        + _design_columns(scenario.n_followers)
    )
    result = ExperimentResult("sweep-sigma", columns)
    problem = problem_constants(scenario)
    model = problem.model
    eps_sum = eps_frac * problem.initial_loss_sum
    keys = [(sigma2, bw) for sigma2 in sigma2_list for bw in bw_list]
    grid = [points[key] for key in keys]
    samples = ScenarioSamples.generate(
        grid[0], scenario.n_success_samples, derive_seed(scenario.base_seed, "ss-probs")
    )
    probs = [samples.success_probs(design, point) for point in grid]
    del samples  # scored first, so it is never held together with the grid's masks
    eps_mean = eps_sum / model.n_total
    runs = _train(model, grid, design, scenario.max_rounds, _run_seeds(scenario, "ss-run"), eps_mean)
    for (sigma2, bw), point_probs, (state, _) in zip(keys, probs, runs):
        predicted = problem.predicted_round(point_probs, eps_sum)
        crossings = _crossing_rounds(model, state, [eps_mean])
        emp_mean, emp_std, n_conv = _mean_std(crossings[:, 0])
        result.append(
            sigma2=float(sigma2),
            bandwidth=float(bw),
            epsilon_frac=eps_frac,
            epsilon_sum=eps_sum,
            predicted_round=predicted,
            empirical_mean=emp_mean,
            empirical_std=emp_std,
            mc_runs=scenario.mc_runs,
            n_converged=n_conv,
            **_prob_cells(point_probs),
            **_design_cells(design),
        )
    return result


def experiment_compare_designs(
    scenario: SwarmScenario,
    bw_list=(1e6, 2e6, 5e6),
    n_baseline_draws: int = 20,
) -> ExperimentResult:
    """Optimized joint design vs. partial baselines across bandwidths.

    Per bandwidth: one full joint solve, then power-only (random schedule
    split) and scheduling-only (random powers) baselines redrawn
    n_baseline_draws times.  All designs at one bandwidth are scored on one
    frozen channel draw (ScenarioSamples), drawn once per bandwidth, and
    rounds are predictions from those success probabilities.
    """
    scenario.require_valid()
    points = [_with_sigma_bw(scenario, scenario.antenna.sigma2, float(bw)) for bw in bw_list]
    _check(
        _value_errors("n_baseline_draws", n_baseline_draws, ">= 1")
        + ([] if len(bw_list) else ["bw_list must not be empty"])
        + [f"bw={bw!r}: {err}" for bw, point in zip(bw_list, points) for err in point.validate()]
    )

    columns = (
        ["bandwidth", "design_kind", "n_draws", "predicted_round_mean",
         "predicted_round_std", "reduction_vs_joint"]
        + _prob_columns(scenario.n_followers)
        + _design_columns(scenario.n_followers)
    )
    result = ExperimentResult("compare-designs", columns)
    # bandwidth leaves the training problem alone: one set of constants serves every point
    problem = problem_constants(scenario)
    eps_sum = _eps_sum(scenario, problem)
    base_seed = scenario.base_seed
    for k_bw, (bw, point) in enumerate(zip(bw_list, points)):
        samples = ScenarioSamples.generate(
            point, point.n_success_samples, derive_seed(base_seed, "cd-probs", k_bw)
        )
        joint, joint_round, report = solve(
            point, rng_seed=derive_seed(base_seed, "cd-solve", k_bw), scoring=samples
        )
        joint_probs = report.success_probs
        result.append(
            bandwidth=float(bw),
            design_kind="joint",
            n_draws=1,
            predicted_round_mean=float(joint_round),
            predicted_round_std=0.0,
            reduction_vs_joint=0.0,
            **_prob_cells(joint_probs),
            **_design_cells(joint),
        )
        for kind in ("power-only", "scheduling-only"):
            rounds = np.empty(n_baseline_draws)
            for d in range(n_baseline_draws):
                cand = baseline_design(kind, joint, point, derive_seed(base_seed, "cd-base", kind, k_bw, d))
                rounds[d] = problem.predicted_round(samples.success_probs(cand, point), eps_sum)
            mean_round = float(rounds.mean())
            reduction = (mean_round - joint_round) / mean_round if mean_round > 0 else 0.0
            result.append(
                bandwidth=float(bw),
                design_kind=kind,
                n_draws=n_baseline_draws,
                predicted_round_mean=mean_round,
                predicted_round_std=float(rounds.std(ddof=0)),
                reduction_vs_joint=reduction,
            )
        del samples  # so the next bandwidth's solve and draw run without this one held
    return result


def experiment_simulate(
    scenario: SwarmScenario,
    eps_frac: float | None = None,
    mc_runs: int | None = None,
) -> ExperimentResult:
    """Per-repetition training telemetry at the scenario's default design
    and one loss target."""
    scenario = _with_mc_runs(scenario, mc_runs)
    eps_frac = scenario.epsilon_fracs[0] if eps_frac is None else eps_frac
    _check(_value_errors("eps_frac", eps_frac, "in (0, 1)"))

    problem = problem_constants(scenario)
    model = problem.model
    eps_mean = eps_frac * problem.initial_loss_sum / model.n_total
    seeds = _run_seeds(scenario, "sim-run")
    [(state, hits)] = _train(
        model, [scenario], scenario.default_design(), scenario.max_rounds, seeds, eps_mean
    )
    rates = state.participation_rates()
    final_gaps = state.loss_history[np.arange(scenario.mc_runs), state.rounds] - model.f_star

    columns = (
        ["run", "epsilon_frac", "empirical_round", "final_loss_gap", "rounds_executed"]
        + [f"participation_rate_{i + 1}" for i in range(scenario.n_followers)]
    )
    result = ExperimentResult("simulate", columns)
    for rep in range(scenario.mc_runs):
        result.append(
            run=rep,
            epsilon_frac=eps_frac,
            empirical_round=int(hits[rep]),
            final_loss_gap=float(final_gaps[rep]),
            rounds_executed=int(state.rounds[rep]),
            **{f"participation_rate_{i + 1}": float(rates[rep, i]) for i in range(scenario.n_followers)},
        )
    return result


def experiment_optimize(
    scenario: SwarmScenario,
    method: str = "subgradient",
) -> ExperimentResult:
    """One full design optimization: solver trace rows plus a result row.

    Raises NoFeasibleDesignError (for the CLI to map to its exit code) when
    the constraints cannot be met.
    """
    design, predicted, report = solve(scenario, method=method)
    columns = (
        ["record", "iteration", "dual_value", "lambda_norm", "min_margin",
         "predicted_round"]
        + _prob_columns(scenario.n_followers)
        + _design_columns(scenario.n_followers)
    )
    result = ExperimentResult("optimize", columns)
    for row in report.iterations:
        result.append(
            record="iteration",
            iteration=row["iteration"],
            dual_value=row["dual_value"],
            lambda_norm=float(np.linalg.norm(row["lambda"])),
            min_margin=float(np.min(row["residuals"])),
        )
    result.append(
        record="result",
        iteration=len(report.iterations),
        dual_value=None,
        lambda_norm=None,
        min_margin=float(np.min(report.margins)),
        predicted_round=predicted,
        **_prob_cells(report.success_probs),
        **_design_cells(design),
    )
    return result
