"""Joint power/scheduling/speed design via sample average approximation.

The design problem maximizes the expected number of in-time follower
uploads per round (which drives the convergence-round prediction down)
subject to chance constraints on per-UAV energy and on control-loop
downlink deadlines.  Probabilities are replaced by empirical frequencies
over K frozen channel draws, indicators by a steep sigmoid on normalized
arguments, and the constrained problem by its Lagrangian dual, minimized
over multipliers with projected subgradient steps (an ellipsoid variant is
available behind the same interface).

The smoothed problem is a solver device only: the returned design is the
best iterate that passes the original indicator-based sample constraints,
and feasibility is always reported against those.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit

from .channel import ChannelDraw, draw_channel, estimate_success_probs, sinr_coefficients
from .convergence import ConvergenceInputs, convergence_round, convergence_speed
from .design import DesignVector
from .energy import ControlRequirements, EnergyBudget, round_energies
from .scenario import SwarmScenario
from .seeds import derive_seed

__all__ = [
    "NoFeasibleDesignError",
    "SmoothingConfig",
    "ScenarioSamples",
    "ProblemConstants",
    "DualState",
    "SolveReport",
    "problem_constants",
    "gamma_sigmoid",
    "sample_delays",
    "smoothed_success_probs",
    "smoothed_objective",
    "smoothed_constraints",
    "unsmoothed_feasibility",
    "lagrangian",
    "inner_maximize",
    "dual_subgradient",
    "solve",
    "baseline_design",
]


class NoFeasibleDesignError(RuntimeError):
    """No iterate satisfied the sample chance constraints; relax the budgets."""


@dataclass(frozen=True)
class SmoothingConfig:
    """Sigmoid sharpness and the per-row argument scales.

    Arguments are divided by their natural scale before the sigmoid
    (delay rows by the round time, energy rows by the energy budget), so
    one sharpness c_bar serves quantities five orders of magnitude apart.
    """

    c_bar: float = 50.0
    delay_scale: float = 0.1
    energy_scale: float = 7000.0

    @staticmethod
    def from_scenario(scenario: SwarmScenario) -> "SmoothingConfig":
        return SmoothingConfig(
            c_bar=scenario.saa.c_bar,
            delay_scale=scenario.round_time_s,
            energy_scale=scenario.energy_budget.e_bar,
        )


@dataclass(frozen=True)
class ScenarioSamples:
    """K frozen channel draws with their SINR-per-watt kernels.

    Interferer activity, fading, and antenna jitter are fixed at draw time,
    so a candidate design only rescales the kernels: uplink SINR of
    follower i in sample k is p_i * c_up[k, i], downlink p_L * c_dn[k, i].
    The whole optimization reuses these arrays; nothing random happens
    inside the solver.
    """

    draws: ChannelDraw
    c_up: np.ndarray  # (K, I)
    c_dn: np.ndarray  # (K, I)

    @property
    def k(self) -> int:
        return self.c_up.shape[0]

    @staticmethod
    def generate(scenario: SwarmScenario, samples_k: int, rng_seed: int) -> "ScenarioSamples":
        if samples_k < 1:
            raise ValueError("samples_k must be >= 1")
        draws = draw_channel(scenario, np.random.default_rng(rng_seed), size=samples_k)
        c_up, c_dn = sinr_coefficients(draws, scenario)
        return ScenarioSamples(draws=draws, c_up=c_up, c_dn=c_dn)


@dataclass(frozen=True)
class ProblemConstants:
    """Loss-model constants the round predictor needs, fixed per scenario."""

    counts: tuple[int, ...]
    mu: float
    lipschitz_u: float
    initial_loss_sum: float
    epsilon_sum: float


def problem_constants(scenario: SwarmScenario) -> ProblemConstants:
    """Build the scenario's training problem once and keep its constants.

    The constants depend only on the follower count, the dataset and the
    optimizer's loss target, so scenarios that differ elsewhere (bandwidth,
    jitter, budgets) share one cached entry.
    """
    return _problem_constants(scenario.n_followers, scenario.dataset, scenario.saa.epsilon_opt_frac)


@lru_cache(maxsize=32)
def _problem_constants(n_followers: int, dataset, epsilon_opt_frac: float) -> ProblemConstants:
    _, model = dataset.build(n_followers)
    s0 = model.total_loss_sum(np.zeros(model.dim))
    return ProblemConstants(
        counts=tuple(int(c) for c in model.counts),
        mu=model.strong_mu,
        lipschitz_u=model.lipschitz_u,
        initial_loss_sum=s0,
        epsilon_sum=epsilon_opt_frac * s0,
    )


def gamma_sigmoid(r, c_bar: float, scale: float = 1.0):
    """Smooth indicator surrogate: 1/(1+exp(-c_bar*r/scale))."""
    return expit(c_bar * np.asarray(r, dtype=float) / scale)


def sample_delays(design: DesignVector, samples: ScenarioSamples, scenario: SwarmScenario):
    """Per-sample link delays (t_up, t_dn), each (K, I) seconds."""
    radio = scenario.radio
    rate_up = radio.bw_up * np.log1p(np.asarray(design.p) * samples.c_up) / np.log(2.0)
    rate_dn = radio.bw_down * np.log1p(design.p_leader * samples.c_dn) / np.log(2.0)
    with np.errstate(divide="ignore"):
        t_up = np.where(rate_up > 0.0, radio.pkt_local / np.maximum(rate_up, 1e-300), np.inf)
        t_dn = np.where(rate_dn > 0.0, radio.pkt_global / np.maximum(rate_dn, 1e-300), np.inf)
    return t_up, t_dn


def _window_sigmoids(design, samples, smoothing, scenario):
    """Gamma(T_u - t_up) * Gamma(T_d - t_dn), shape (K, I)."""
    t_up, t_dn = sample_delays(design, samples, scenario)
    budget_up = design.beta * scenario.round_time_s
    budget_dn = (1.0 - design.beta) * scenario.round_time_s
    g_up = gamma_sigmoid(budget_up - t_up, smoothing.c_bar, smoothing.delay_scale)
    g_dn = gamma_sigmoid(budget_dn - t_dn, smoothing.c_bar, smoothing.delay_scale)
    return g_up * g_dn, t_up, t_dn


def smoothed_success_probs(design, samples, smoothing, scenario) -> np.ndarray:
    """Per-follower mean of the smoothed participation indicator, shape (I,)."""
    both, _, _ = _window_sigmoids(design, samples, smoothing, scenario)
    return both.mean(axis=0)


def smoothed_objective(design, samples, smoothing, scenario) -> float:
    """Count-weighted smoothed tally of in-time uploads across all samples."""
    counts = np.asarray(problem_constants(scenario).counts, dtype=float)
    both, _, _ = _window_sigmoids(design, samples, smoothing, scenario)
    return float((counts * both).sum())


def _constraint_rows(both, t_up, t_dn, design, smoothing, scenario, budgets, control, constants):
    """Smoothed residual rows from precomputed window sigmoids and delays."""
    k = both.shape[0]
    counts = np.asarray(constants.counts, dtype=float)
    rho = float((counts * both.mean(axis=0)).sum()) * constants.mu / (
        counts.sum() * constants.lipschitz_u
    )
    rho = min(rho, 1.0 - 1e-12)
    log_decay = np.log(1.0 - rho)
    # rho too small to move 1 - rho means no participation, so no finite round prediction
    phi = np.log(constants.epsilon_sum / constants.initial_loss_sum) / log_decay if log_decay < 0.0 else np.inf

    e_leader, e_followers = round_energies(design, t_up, scenario)
    c_bar, e_scale, d_scale = smoothing.c_bar, smoothing.energy_scale, smoothing.delay_scale

    leader_row = k * gamma_sigmoid(budgets.e_bar - phi * e_leader, c_bar, e_scale) - k * budgets.xi_leader
    follower_rows = (
        gamma_sigmoid(budgets.e_bar - phi * e_followers, c_bar, e_scale).sum(axis=0)
        - k * budgets.xi_follower
    )
    tau = np.asarray(control.tau, dtype=float)
    control_rows = (
        gamma_sigmoid(tau - t_dn, c_bar, d_scale).sum(axis=0) - k * control.xi_control
    )
    return np.concatenate([[leader_row], follower_rows, control_rows])


def smoothed_constraints(
    design,
    samples,
    smoothing,
    scenario,
    budgets: EnergyBudget,
    control: ControlRequirements,
    constants: ProblemConstants | None = None,
) -> np.ndarray:
    """Sigmoid-smoothed chance-constraint residuals, length 2I+1, >= 0 when met.

    Rows: leader energy, follower energies, control deadlines.  Energy rows
    charge the per-round cost over the smoothed round prediction at this
    design, so tightening a link budget hurts both the objective and the
    energy slack through the same machinery.
    """
    if constants is None:
        constants = problem_constants(scenario)
    both, t_up, t_dn = _window_sigmoids(design, samples, smoothing, scenario)
    return _constraint_rows(
        both, t_up, t_dn, design, smoothing, scenario, budgets, control, constants
    )


def unsmoothed_feasibility(
    design,
    samples,
    scenario,
    budgets: EnergyBudget,
    control: ControlRequirements,
    constants: ProblemConstants | None = None,
):
    """Indicator-based sample constraints: (feasible, margins, phi).

    margins are empirical frequencies minus required probabilities (length
    2I+1).  phi is the integer round prediction from indicator success
    frequencies; when no follower ever succeeds there is no finite
    prediction and the design is infeasible outright (margins all -1).
    """
    if constants is None:
        constants = problem_constants(scenario)
    t_up, t_dn = sample_delays(design, samples, scenario)
    ok = (t_up <= design.beta * scenario.round_time_s) & (
        t_dn <= (1.0 - design.beta) * scenario.round_time_s
    )
    probs = ok.mean(axis=0)
    counts = np.asarray(constants.counts, dtype=float)
    inputs = ConvergenceInputs(
        success_prob=probs,
        counts=counts,
        mu=constants.mu,
        lipschitz_u=constants.lipschitz_u,
        epsilon=constants.epsilon_sum,
        initial_loss_sum=constants.initial_loss_sum,
    )
    if convergence_speed(inputs) <= 0.0:
        return False, np.full(2 * scenario.n_followers + 1, -1.0), None
    phi = convergence_round(inputs)

    e_leader, e_followers = round_energies(design, t_up, scenario)
    leader_margin = float(budgets.e_bar - phi * e_leader >= 0.0) - budgets.xi_leader
    follower_margins = (
        (budgets.e_bar - phi * e_followers >= 0.0).mean(axis=0) - budgets.xi_follower
    )
    tau = np.asarray(control.tau, dtype=float)
    control_margins = (t_dn <= tau).mean(axis=0) - control.xi_control
    margins = np.concatenate([[leader_margin], follower_margins, control_margins])
    return bool(np.all(margins >= 0.0)), margins, phi


def lagrangian(
    design,
    lambda_,
    samples,
    smoothing,
    scenario,
    budgets,
    control,
    constants: ProblemConstants | None = None,
) -> float:
    """Smoothed objective plus multiplier-weighted smoothed residuals."""
    lam = np.asarray(lambda_, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("multipliers must be nonnegative")
    if constants is None:
        constants = problem_constants(scenario)
    both, t_up, t_dn = _window_sigmoids(design, samples, smoothing, scenario)
    counts = np.asarray(constants.counts, dtype=float)
    obj = float((counts * both).sum())
    res = _constraint_rows(
        both, t_up, t_dn, design, smoothing, scenario, budgets, control, constants
    )
    return obj + float(lam @ res)


def _coordinate_bounds(scenario: SwarmScenario, n_followers: int):
    """Search interval per coordinate in the order p_1..p_I, p_L, beta, v."""
    p_lo = 1e-4 * scenario.p_max
    bounds = [(p_lo, scenario.p_max)] * (n_followers + 1)
    bounds.append((1e-3, 1.0 - 1e-3))
    bounds.append((1e-2, scenario.flight.v_max))
    return bounds


def inner_maximize(
    lambda_,
    samples,
    smoothing,
    scenario,
    budgets,
    control,
    init: DesignVector,
    constants: ProblemConstants | None = None,
) -> tuple[DesignVector, float]:
    """Approximate maximizer of the Lagrangian over the design box.

    Cyclic coordinate ascent in the order (p_1..p_I, p_leader, beta, v);
    each coordinate is refined by bounded scalar search and only accepted
    if it strictly improves the Lagrangian, so coordinates the objective is
    flat in stay put.  Stops when a full cycle improves less than the
    configured relative tolerance, or after the configured cycle cap.
    Returns the design and the achieved value (the dual value at lambda_).
    """
    if constants is None:
        constants = problem_constants(scenario)
    lam = np.asarray(lambda_, dtype=float)
    cfg = scenario.saa
    bounds = _coordinate_bounds(scenario, scenario.n_followers)
    flat = init.as_flat().copy()
    n = scenario.n_followers

    def j_at(vec) -> float:
        return lagrangian(
            DesignVector.from_flat(vec, n), lam, samples, smoothing, scenario,
            budgets, control, constants,
        )

    j_curr = j_at(flat)
    for _ in range(cfg.max_cycles):
        j_cycle_start = j_curr
        for idx, (lo, hi) in enumerate(bounds):
            def neg_j(x, idx=idx):
                trial = flat.copy()
                trial[idx] = x
                return -j_at(trial)

            res = minimize_scalar(
                neg_j, bounds=(lo, hi), method="bounded",
                options={"xatol": cfg.xtol * (hi - lo)},
            )
            if -res.fun > j_curr:
                flat[idx] = float(res.x)
                j_curr = float(-res.fun)
        if abs(j_curr - j_cycle_start) <= cfg.inner_tol * max(abs(j_curr), 1.0):
            break
    return DesignVector.from_flat(flat, n), j_curr


def dual_subgradient(
    lambda_,
    maximizer_design,
    samples,
    smoothing,
    scenario,
    budgets,
    control,
    constants: ProblemConstants | None = None,
) -> np.ndarray:
    """Subgradient of the dual at lambda_: the residuals at the inner maximizer."""
    return smoothed_constraints(
        maximizer_design, samples, smoothing, scenario, budgets, control, constants
    )


@dataclass
class DualState:
    """Bookkeeping of the outer multiplier iteration."""

    lambda_: np.ndarray
    best_dual: float = np.inf
    best_feasible_primal: DesignVector | None = None
    best_feasible_objective: float = -np.inf


@dataclass
class SolveReport:
    """Trace and outcome of one optimization run."""

    iterations: list[dict] = field(default_factory=list)
    feasible: bool = False
    margins: np.ndarray | None = None
    predicted_round: int | None = None
    success_probs: np.ndarray | None = None
    method: str = "subgradient"

    def dual_trace(self) -> np.ndarray:
        return np.array([row["dual_value"] for row in self.iterations])


def _track_feasible(state, design, samples, smoothing, scenario, budgets, control, constants):
    feasible, _, _ = unsmoothed_feasibility(design, samples, scenario, budgets, control, constants)
    if feasible:
        obj = smoothed_objective(design, samples, smoothing, scenario)
        if obj > state.best_feasible_objective:
            state.best_feasible_objective = obj
            state.best_feasible_primal = design
    return feasible


def solve(
    scenario: SwarmScenario,
    budgets: EnergyBudget | None = None,
    control: ControlRequirements | None = None,
    samples_k: int | None = None,
    smoothing: SmoothingConfig | None = None,
    rng_seed: int | None = None,
    max_iters: int | None = None,
    method: str = "subgradient",
) -> tuple[DesignVector, int, SolveReport]:
    """Full design optimization: returns (design, predicted_round, report).

    Projected subgradient descent on the multipliers (step a/sqrt(t) with
    a = step_scale * K), warm-starting each inner maximization from the
    previous iterate; stops early once the multipliers go stationary.  The
    returned design is the unsmoothed-feasible iterate with the best
    smoothed objective; its round prediction uses fresh Monte Carlo success
    probabilities, independent of the frozen optimizer samples.  Raises
    NoFeasibleDesignError when every iterate violates the sample
    constraints.
    """
    scenario.require_valid()
    budgets = scenario.energy_budget if budgets is None else budgets
    control = scenario.control if control is None else control
    samples_k = scenario.saa.samples_k if samples_k is None else samples_k
    smoothing = SmoothingConfig.from_scenario(scenario) if smoothing is None else smoothing
    rng_seed = scenario.base_seed if rng_seed is None else rng_seed
    max_iters = scenario.saa.max_iters if max_iters is None else max_iters
    constants = problem_constants(scenario)

    samples = ScenarioSamples.generate(scenario, samples_k, derive_seed(rng_seed, "saa-samples"))
    n_rows = 2 * scenario.n_followers + 1

    if method == "ellipsoid":
        state, report = _solve_ellipsoid(
            scenario, budgets, control, samples, smoothing, constants, max_iters
        )
    elif method == "subgradient":
        state, report = _solve_subgradient(
            scenario, budgets, control, samples, smoothing, constants, max_iters, samples_k, n_rows
        )
    else:
        raise ValueError(f"unknown method: {method!r}")

    if state.best_feasible_primal is None:
        raise NoFeasibleDesignError(
            "no design satisfied the sample chance constraints; relax e_bar, tau, or xi"
        )
    best = state.best_feasible_primal
    feasible, margins, _ = unsmoothed_feasibility(
        best, samples, scenario, budgets, control, constants
    )
    probs = estimate_success_probs(
        best, scenario, scenario.n_success_samples, derive_seed(rng_seed, "opt-probs")
    )
    predicted = convergence_round(
        ConvergenceInputs(
            success_prob=probs,
            counts=np.asarray(constants.counts, dtype=float),
            mu=constants.mu,
            lipschitz_u=constants.lipschitz_u,
            epsilon=constants.epsilon_sum,
            initial_loss_sum=constants.initial_loss_sum,
        )
    )
    report.feasible = feasible
    report.margins = margins
    report.predicted_round = predicted
    report.success_probs = probs
    return best, predicted, report


def _solve_subgradient(
    scenario, budgets, control, samples, smoothing, constants, max_iters, samples_k, n_rows
):
    state = DualState(lambda_=np.zeros(n_rows))
    report = SolveReport(method="subgradient")
    design = scenario.default_design()
    step_a = scenario.saa.step_scale * samples_k
    for t in range(1, max_iters + 1):
        design, dual_value = inner_maximize(
            state.lambda_, samples, smoothing, scenario, budgets, control, design, constants
        )
        residuals = dual_subgradient(
            state.lambda_, design, samples, smoothing, scenario, budgets, control, constants
        )
        state.best_dual = min(state.best_dual, dual_value)
        _track_feasible(state, design, samples, smoothing, scenario, budgets, control, constants)
        new_lambda = np.maximum(0.0, state.lambda_ - (step_a / np.sqrt(t)) * residuals)
        report.iterations.append(
            {
                "iteration": t,
                "dual_value": dual_value,
                "lambda": state.lambda_.copy(),
                "residuals": residuals.copy(),
            }
        )
        moved = np.linalg.norm(new_lambda - state.lambda_)
        state.lambda_ = new_lambda
        if moved <= 1e-12 * (1.0 + np.linalg.norm(state.lambda_)) and t >= 2:
            break
    return state, report


def _solve_ellipsoid(scenario, budgets, control, samples, smoothing, constants, max_iters):
    """Ellipsoid method on the dual: center updates along Danskin subgradients.

    Multiplier nonnegativity is handled with feasibility cuts.  Kept as an
    alternative to the subgradient default; same tracking of the best
    unsmoothed-feasible primal iterate.
    """
    n_rows = 2 * scenario.n_followers + 1
    state = DualState(lambda_=np.zeros(n_rows))
    report = SolveReport(method="ellipsoid")
    radius = 10.0 * scenario.saa.step_scale * samples.k
    center = np.full(n_rows, 0.1 * radius)
    shape = np.eye(n_rows) * radius**2
    design = scenario.default_design()
    for t in range(1, max_iters + 1):
        if np.any(center < 0.0):
            g = np.zeros(n_rows)
            g[int(np.argmin(center))] = -1.0
            dual_value = None
        else:
            design, dual_value = inner_maximize(
                center, samples, smoothing, scenario, budgets, control, design, constants
            )
            g = dual_subgradient(
                center, design, samples, smoothing, scenario, budgets, control, constants
            )
            state.best_dual = min(state.best_dual, dual_value)
            _track_feasible(state, design, samples, smoothing, scenario, budgets, control, constants)
            report.iterations.append(
                {
                    "iteration": t,
                    "dual_value": dual_value,
                    "lambda": center.copy(),
                    "residuals": g.copy(),
                }
            )
            # descent direction on D is -residuals; the cut removes the
            # half-space where D increases
            g = -g
        denom = float(g @ shape @ g)
        if denom <= 0.0:
            break
        gn = shape @ g / np.sqrt(denom)
        center = center - gn / (n_rows + 1)
        shape = (n_rows**2 / (n_rows**2 - 1.0)) * (
            shape - (2.0 / (n_rows + 1)) * np.outer(gn, gn)
        )
        state.lambda_ = np.maximum(center, 0.0)
    return state, report


def baseline_design(
    kind: str, joint: DesignVector, scenario: SwarmScenario, rng_seed: int
) -> DesignVector:
    """Ablation baselines sharing part of a completed joint design.

    power-only keeps the joint powers and draws the schedule split uniformly
    at random; scheduling-only keeps the joint split and draws powers
    uniformly in (0, p_max].  Speed is copied either way.
    """
    rng = np.random.default_rng(rng_seed)
    if kind == "power-only":
        beta = float(np.clip(rng.uniform(0.0, 1.0), 1e-6, 1.0 - 1e-6))
        return DesignVector(p=joint.p.copy(), p_leader=joint.p_leader, beta=beta, v=joint.v)
    if kind == "scheduling-only":
        p = np.clip(rng.uniform(0.0, scenario.p_max, size=scenario.n_followers),
                    1e-6 * scenario.p_max, scenario.p_max)
        p_leader = float(np.clip(rng.uniform(0.0, scenario.p_max), 1e-6 * scenario.p_max, scenario.p_max))
        return DesignVector(p=p, p_leader=p_leader, beta=joint.beta, v=joint.v)
    raise ValueError(f"unknown baseline kind: {kind!r}")
