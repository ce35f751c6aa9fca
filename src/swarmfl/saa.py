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

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit

from .channel import ScenarioSamples, _delay, _kernel_delays, estimate_success_probs, success_mask
from .convergence import TrainingProblem, training_problem
from .design import DesignVector
from .energy import ControlRequirements, EnergyBudget, round_energies
from .scenario import SwarmScenario
from .seeds import derive_seed

__all__ = [
    "NoFeasibleDesignError",
    "SmoothingConfig",
    "ScenarioSamples",
    "SolveReport",
    "problem_constants",
    "gamma_sigmoid",
    "sample_delays",
    "smoothed_objective",
    "smoothed_constraints",
    "unsmoothed_feasibility",
    "lagrangian",
    "inner_maximize",
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


def problem_constants(scenario: SwarmScenario) -> TrainingProblem:
    """The scenario's training problem, built once per follower count and dataset."""
    return training_problem(scenario.n_followers, scenario.dataset)


def _eps_sum(scenario: SwarmScenario, problem: TrainingProblem) -> float:
    """The optimizer's target for the raw loss sum."""
    return scenario.saa.epsilon_opt_frac * problem.initial_loss_sum


def gamma_sigmoid(r, c_bar: float, scale: float = 1.0):
    """Smooth indicator surrogate: 1/(1+exp(-c_bar*r/scale))."""
    return expit(c_bar * np.asarray(r, dtype=float) / scale)


def sample_delays(design: DesignVector, samples: ScenarioSamples, scenario: SwarmScenario):
    """Per-sample link delays (t_up, t_dn), each (K, I) seconds."""
    return _kernel_delays(samples.c_up, samples.c_dn, design, scenario)


def _window_gamma(window: float, delays, smoothing) -> np.ndarray:
    """Smoothed indicator that delays fit a window of the given length [s]."""
    return gamma_sigmoid(window - delays, smoothing.c_bar, smoothing.delay_scale)


def _window_sigmoids(design, samples, smoothing, scenario):
    """Window sigmoids and delays (g_up, g_dn, t_up, t_dn), each (K, I).

    g_up * g_dn = Gamma(beta T_r - t_up) * Gamma((1 - beta) T_r - t_dn) is
    the smoothed participation indicator.
    """
    t_up, t_dn = sample_delays(design, samples, scenario)
    g_up = _window_gamma(design.beta * scenario.round_time_s, t_up, smoothing)
    g_dn = _window_gamma((1.0 - design.beta) * scenario.round_time_s, t_dn, smoothing)
    return g_up, g_dn, t_up, t_dn


def _objective(both, constants: TrainingProblem) -> float:
    return float((constants.counts * both).sum())


def smoothed_objective(design, samples, smoothing, scenario) -> float:
    """Count-weighted smoothed tally of in-time uploads across all samples."""
    g_up, g_dn, _, _ = _window_sigmoids(design, samples, smoothing, scenario)
    return _objective(g_up * g_dn, problem_constants(scenario))


def _control_rows(t_dn, smoothing, control: ControlRequirements) -> np.ndarray:
    """Smoothed control-deadline rows: sum_k Gamma(tau_i - t_dn) - K xi_control."""
    tau = np.asarray(control.tau, dtype=float)
    return (
        gamma_sigmoid(tau - t_dn, smoothing.c_bar, smoothing.delay_scale).sum(axis=0)
        - t_dn.shape[0] * control.xi_control
    )


def _constraint_rows(both, t_up, control_rows, design, smoothing, scenario, budgets, constants):
    """Smoothed residual rows from the participation sigmoids, uplink delays
    and precomputed control rows."""
    k = both.shape[0]
    rho = min(constants.speed(both.mean(axis=0)), 1.0 - 1e-12)
    log_decay = np.log(1.0 - rho)
    # rho too small to move 1 - rho means no participation, so no finite round prediction
    ratio = _eps_sum(scenario, constants) / constants.initial_loss_sum
    phi = np.log(ratio) / log_decay if log_decay < 0.0 else np.inf

    e_leader, e_followers = round_energies(design, t_up, scenario)
    c_bar, e_scale = smoothing.c_bar, smoothing.energy_scale

    leader_row = k * gamma_sigmoid(budgets.e_bar - phi * e_leader, c_bar, e_scale) - k * budgets.xi_leader
    follower_rows = (
        gamma_sigmoid(budgets.e_bar - phi * e_followers, c_bar, e_scale).sum(axis=0)
        - k * budgets.xi_follower
    )
    return np.concatenate([[leader_row], follower_rows, control_rows])


def smoothed_constraints(
    design,
    samples,
    smoothing,
    scenario,
    budgets: EnergyBudget,
    control: ControlRequirements,
    constants: TrainingProblem | None = None,
) -> np.ndarray:
    """Sigmoid-smoothed chance-constraint residuals, length 2I+1, >= 0 when met.

    Rows: leader energy, follower energies, control deadlines.  Energy rows
    charge the per-round cost over the smoothed round prediction at this
    design, so tightening a link budget hurts both the objective and the
    energy slack through the same machinery.
    """
    if constants is None:
        constants = problem_constants(scenario)
    g_up, g_dn, t_up, t_dn = _window_sigmoids(design, samples, smoothing, scenario)
    return _constraint_rows(
        g_up * g_dn, t_up, _control_rows(t_dn, smoothing, control),
        design, smoothing, scenario, budgets, constants,
    )


def unsmoothed_feasibility(
    design,
    samples,
    scenario,
    budgets: EnergyBudget,
    control: ControlRequirements,
    constants: TrainingProblem | None = None,
):
    """Indicator-based sample constraints: (feasible, margins, phi).

    margins are empirical frequencies minus required probabilities (length
    2I+1).  phi is the predicted round count (TrainingProblem.predicted_round)
    at the indicator success frequencies; when no follower ever succeeds
    there is no finite prediction and the design is infeasible outright
    (margins all -1).
    """
    if constants is None:
        constants = problem_constants(scenario)
    t_up, t_dn = sample_delays(design, samples, scenario)
    probs = success_mask(t_up, t_dn, design.beta, scenario.round_time_s).mean(axis=0)
    if constants.speed(probs) <= 0.0:
        return False, np.full(2 * scenario.n_followers + 1, -1.0), None
    phi = constants.predicted_round(probs, _eps_sum(scenario, constants))

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
    constants: TrainingProblem | None = None,
) -> float:
    """Smoothed objective plus multiplier-weighted smoothed residuals."""
    lam = np.asarray(lambda_, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("multipliers must be nonnegative")
    if constants is None:
        constants = problem_constants(scenario)
    g_up, g_dn, t_up, t_dn = _window_sigmoids(design, samples, smoothing, scenario)
    both = g_up * g_dn
    rows = _constraint_rows(
        both, t_up, _control_rows(t_dn, smoothing, control),
        design, smoothing, scenario, budgets, constants,
    )
    return _objective(both, constants) + float(lam @ rows)


class _CoordinateLagrangian:
    """The Lagrangian at trial points that move one coordinate of a base design.

    rebuild(flat) caches the base design's delays, window sigmoids,
    participation product, objective and control rows; value(idx, x) then
    recomputes only what coordinate idx (order p_1..p_I, p_L, beta, v)
    touches: column i of t_up and g_up for p_i, the downlink delays,
    sigmoids and control rows for p_L, both sigmoids for beta, nothing for
    v.  rho, phi and the energy rows are always recomputed, since phi
    couples every column.  Patched columns are computed elementwise exactly
    as the full arrays are and every reduction runs over the full arrays,
    so value(idx, x) equals lagrangian() at the trial design bit for bit.
    inner_maximize rebuilds the cache whenever it accepts a move, so every
    scalar search starts from the current iterate.
    """

    def __init__(self, lam, samples, smoothing, scenario, budgets, control, constants):
        self.lam = lam
        self.samples = samples
        self.smoothing = smoothing
        self.scenario = scenario
        self.budgets = budgets
        self.control = control
        self.constants = constants
        self.n = scenario.n_followers
        self.evals = 0

    def rebuild(self, flat: np.ndarray) -> None:
        self.flat = flat.copy()
        design = DesignVector.from_flat(flat, self.n)
        self.g_up, self.g_dn, self.t_up, self.t_dn = _window_sigmoids(
            design, self.samples, self.smoothing, self.scenario
        )
        self.both = self.g_up * self.g_dn
        self.obj = _objective(self.both, self.constants)
        self.control_rows = _control_rows(self.t_dn, self.smoothing, self.control)

    def value(self, idx: int | None = None, x: float | None = None) -> float:
        """Lagrangian at the base design with coordinate idx set to x
        (at the base design itself when idx is None)."""
        self.evals += 1
        flat = self.flat.copy()
        if idx is not None:
            flat[idx] = x
        design = DesignVector.from_flat(flat, self.n)
        t_up, both, obj, control_rows = self.t_up, self.both, self.obj, self.control_rows
        radio, round_time = self.scenario.radio, self.scenario.round_time_s
        g_up, g_dn = self.g_up, self.g_dn
        if idx is not None and idx < self.n:
            t_up, g_up = t_up.copy(), g_up.copy()
            t_up[:, idx] = _delay(
                radio.pkt_local, radio.bw_up, design.p[idx] * self.samples.c_up[:, idx]
            )
            g_up[:, idx] = _window_gamma(design.beta * round_time, t_up[:, idx], self.smoothing)
        elif idx == self.n:
            t_dn = _delay(radio.pkt_global, radio.bw_down, design.p_leader * self.samples.c_dn)
            g_dn = _window_gamma((1.0 - design.beta) * round_time, t_dn, self.smoothing)
            control_rows = _control_rows(t_dn, self.smoothing, self.control)
        elif idx == self.n + 1:
            g_up = _window_gamma(design.beta * round_time, t_up, self.smoothing)
            g_dn = _window_gamma((1.0 - design.beta) * round_time, self.t_dn, self.smoothing)
        if g_up is not self.g_up or g_dn is not self.g_dn:
            both = g_up * g_dn
            obj = _objective(both, self.constants)
        rows = _constraint_rows(
            both, t_up, control_rows, design, self.smoothing, self.scenario,
            self.budgets, self.constants,
        )
        return obj + float(self.lam @ rows)


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
    constants: TrainingProblem | None = None,
    report: "SolveReport | None" = None,
) -> tuple[DesignVector, float]:
    """Approximate maximizer of the Lagrangian over the design box.

    Cyclic coordinate ascent in the order (p_1..p_I, p_leader, beta, v);
    each coordinate is refined by bounded scalar search and only accepted
    if it strictly improves the Lagrangian, so coordinates the objective is
    flat in stay put.  Stops when a full cycle improves less than the
    configured relative tolerance, or after the configured cycle cap.
    Returns the design and the achieved value (the dual value at lambda_).
    The Lagrangian evaluations are added to report.lagrangian_evals when a
    report is given.
    """
    if constants is None:
        constants = problem_constants(scenario)
    lam = np.asarray(lambda_, dtype=float)
    cfg = scenario.saa
    bounds = _coordinate_bounds(scenario, scenario.n_followers)
    flat = init.as_flat().copy()
    lagr = _CoordinateLagrangian(lam, samples, smoothing, scenario, budgets, control, constants)

    lagr.rebuild(flat)
    j_curr = lagr.value()
    for _ in range(cfg.max_cycles):
        j_cycle_start = j_curr
        for idx, (lo, hi) in enumerate(bounds):
            res = minimize_scalar(
                lambda x, idx=idx: -lagr.value(idx, x), bounds=(lo, hi), method="bounded",
                options={"xatol": cfg.xtol * (hi - lo)},
            )
            if -res.fun > j_curr:
                flat[idx] = float(res.x)
                j_curr = float(-res.fun)
                lagr.rebuild(flat)
        if abs(j_curr - j_cycle_start) <= cfg.inner_tol * max(abs(j_curr), 1.0):
            break
    if report is not None:
        report.lagrangian_evals += lagr.evals
    return DesignVector.from_flat(flat, scenario.n_followers), j_curr


@dataclass
class _DualState:
    """Bookkeeping of the outer multiplier iteration."""

    lambda_: np.ndarray
    best_feasible_primal: DesignVector | None = None
    best_feasible_objective: float = -np.inf


@dataclass
class SolveReport:
    """Trace and outcome of one optimization run.

    lagrangian_evals counts the Lagrangian evaluations of every inner
    maximization.  stop_reason is "stationary" (the subgradient multipliers
    stopped moving), "degenerate" (an ellipsoid cut had no direction) or
    "max_iters".
    """

    iterations: list[dict] = field(default_factory=list)
    feasible: bool = False
    margins: np.ndarray | None = None
    predicted_round: int | None = None
    success_probs: np.ndarray | None = None
    method: str = "subgradient"
    lagrangian_evals: int = 0
    stop_reason: str = "max_iters"  # or "stationary", "degenerate"

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
    budgets, control = scenario.energy_budget, scenario.control
    smoothing = SmoothingConfig.from_scenario(scenario)
    rng_seed = scenario.base_seed if rng_seed is None else rng_seed
    max_iters = scenario.saa.max_iters if max_iters is None else max_iters
    constants = problem_constants(scenario)
    samples = ScenarioSamples.generate(
        scenario, scenario.saa.samples_k, derive_seed(rng_seed, "saa-samples")
    )

    if method == "ellipsoid":
        state, report = _solve_ellipsoid(
            scenario, budgets, control, samples, smoothing, constants, max_iters
        )
    elif method == "subgradient":
        state, report = _solve_subgradient(
            scenario, budgets, control, samples, smoothing, constants, max_iters
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
    predicted = constants.predicted_round(probs, _eps_sum(scenario, constants))
    report.feasible = feasible
    report.margins = margins
    report.predicted_round = predicted
    report.success_probs = probs
    return best, predicted, report


def _solve_subgradient(scenario, budgets, control, samples, smoothing, constants, max_iters):
    state = _DualState(lambda_=np.zeros(2 * scenario.n_followers + 1))
    report = SolveReport(method="subgradient")
    design = scenario.default_design()
    step_a = scenario.saa.step_scale * samples.k
    for t in range(1, max_iters + 1):
        design, dual_value = inner_maximize(
            state.lambda_, samples, smoothing, scenario, budgets, control, design, constants,
            report,
        )
        residuals = smoothed_constraints(
            design, samples, smoothing, scenario, budgets, control, constants
        )
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
            report.stop_reason = "stationary"
            break
    return state, report


def _solve_ellipsoid(scenario, budgets, control, samples, smoothing, constants, max_iters):
    """Ellipsoid method on the dual: center updates along Danskin subgradients.

    Multiplier nonnegativity is handled with feasibility cuts.  Kept as an
    alternative to the subgradient default; same tracking of the best
    unsmoothed-feasible primal iterate.
    """
    n_rows = 2 * scenario.n_followers + 1
    state = _DualState(lambda_=np.zeros(n_rows))
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
                center, samples, smoothing, scenario, budgets, control, design, constants,
                report,
            )
            g = smoothed_constraints(
                design, samples, smoothing, scenario, budgets, control, constants
            )
            _track_feasible(state, design, samples, smoothing, scenario, budgets, control, constants)
            report.iterations.append(
                {
                    "iteration": t,
                    "dual_value": dual_value,
                    "lambda": center.copy(),
                    "residuals": g.copy(),
                }
            )
        # Each cut keeps {g . (lambda - center) <= 0}.  For the residuals, a
        # subgradient of D at the center, that half-space holds every
        # minimizer of D; for g = -e_j it holds lambda_j >= center_j.
        denom = float(g @ shape @ g)
        if denom <= 0.0:
            report.stop_reason = "degenerate"
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
