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
from .energy import (
    ControlRequirements,
    EnergyBudget,
    _flight_energy,
    _follower_work_energies,
    _leader_energy,
    round_energies,
)
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


def gamma_sigmoid(r, c_bar: float, scale: float = 1.0, out: np.ndarray | None = None):
    """Smooth indicator surrogate: 1/(1+exp(-c_bar*r/scale)).

    With out (a float array shaped like r, r itself allowed) every step
    runs in out and no temporary is allocated.
    """
    z = np.multiply(c_bar, np.asarray(r, dtype=float), out=out)
    return expit(np.divide(z, scale, out=out), out=out)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=0) of a C-contiguous (K, I) array, bit for bit.

    With two or more columns numpy adds the rows in order, and einsum adds
    them in the same order, faster.  A single column is a one-dimensional
    reduction, which numpy sums pairwise, so it goes through sum.
    """
    return np.einsum("ki->i", a) if a.shape[1] > 1 else a.sum(axis=0)


def sample_delays(design: DesignVector, samples: ScenarioSamples, scenario: SwarmScenario):
    """Per-sample link delays (t_up, t_dn), each (K, I) seconds."""
    return _kernel_delays(samples.c_up, samples.c_dn, design, scenario)


def _window_gamma(window: float, delays, smoothing) -> np.ndarray:
    """Smoothed indicator that delays fit a window of the given length [s]."""
    r = np.subtract(window, delays)
    return gamma_sigmoid(r, smoothing.c_bar, smoothing.delay_scale, out=r)


def _window_sigmoids(design, samples, smoothing, scenario):
    """Window sigmoids and delays (g_up, g_dn, t_up, t_dn), each (K, I).

    g_up * g_dn = Gamma(beta T_r - t_up) * Gamma((1 - beta) T_r - t_dn) is
    the smoothed participation indicator.
    """
    t_up, t_dn = sample_delays(design, samples, scenario)
    g_up = _window_gamma(design.beta * scenario.round_time_s, t_up, smoothing)
    g_dn = _window_gamma((1.0 - design.beta) * scenario.round_time_s, t_dn, smoothing)
    return g_up, g_dn, t_up, t_dn


def _objective(both, counts) -> float:
    """Count-weighted sum of the participation product; counts has shape (I,)
    or is tiled to both's shape, which gives the same products faster."""
    return float(np.multiply(counts, both).sum())


def smoothed_objective(design, samples, smoothing, scenario) -> float:
    """Count-weighted smoothed tally of in-time uploads across all samples."""
    g_up, g_dn, _, _ = _window_sigmoids(design, samples, smoothing, scenario)
    return _objective(g_up * g_dn, problem_constants(scenario).counts)


def _control_rows(t_dn, smoothing, control: ControlRequirements, tau=None) -> np.ndarray:
    """Smoothed control-deadline rows: sum_k Gamma(tau_i - t_dn) - K xi_control.

    tau defaults to control.tau; a copy tiled to t_dn's shape gives the same
    rows faster.
    """
    r = (np.asarray(control.tau, dtype=float) if tau is None else tau) - t_dn
    return (
        _column_sums(gamma_sigmoid(r, smoothing.c_bar, smoothing.delay_scale, out=r))
        - t_dn.shape[0] * control.xi_control
    )


def _constraint_rows(both, t_up, control_rows, design, smoothing, scenario, budgets, constants):
    """Smoothed residual rows from the participation sigmoids, uplink delays
    and precomputed control rows."""
    e_leader, e_followers = round_energies(design, t_up, scenario)
    return _rows(
        _column_sums(both), e_leader, e_followers, control_rows,
        smoothing, scenario, budgets, constants, out=e_followers,
    )


def _rows(both_sums, e_leader, e_followers, control_rows, smoothing, scenario, budgets,
          constants, out):
    """Smoothed residual rows from their parts.

    both_sums are the column sums of the (K, I) participation sigmoids,
    e_leader and e_followers the per-round energies, control_rows the
    finished control rows.  The follower energy sigmoids are computed in
    out, a (K, I) float array that may be e_followers itself.
    """
    k = e_followers.shape[0]
    rho = min(constants.speed(both_sums / k), 1.0 - 1e-12)
    log_decay = np.log(1.0 - rho)
    # rho too small to move 1 - rho means no participation, so no finite round prediction
    ratio = _eps_sum(scenario, constants) / constants.initial_loss_sum
    phi = np.log(ratio) / log_decay if log_decay < 0.0 else np.inf
    c_bar, e_scale = smoothing.c_bar, smoothing.energy_scale

    leader_row = k * gamma_sigmoid(budgets.e_bar - phi * e_leader, c_bar, e_scale) - k * budgets.xi_leader
    energy_args = np.subtract(budgets.e_bar, np.multiply(phi, e_followers, out=out), out=out)
    follower_rows = (
        _column_sums(gamma_sigmoid(energy_args, c_bar, e_scale, out=out)) - k * budgets.xi_follower
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


def _checked_multipliers(lambda_, n_followers: int) -> np.ndarray:
    """lambda_ as a float array, after checking it holds 2I+1 finite values >= 0."""
    lam = np.asarray(lambda_, dtype=float)
    if lam.shape != (2 * n_followers + 1,):
        raise ValueError(f"multipliers must have shape ({2 * n_followers + 1},), got {lam.shape}")
    if not np.all((lam >= 0.0) & (lam < np.inf)):  # NaN fails both
        raise ValueError("multipliers must be finite and nonnegative")
    return lam


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
    lam = _checked_multipliers(lambda_, scenario.n_followers)
    if constants is None:
        constants = problem_constants(scenario)
    g_up, g_dn, t_up, t_dn = _window_sigmoids(design, samples, smoothing, scenario)
    both = g_up * g_dn
    rows = _constraint_rows(
        both, t_up, _control_rows(t_dn, smoothing, control),
        design, smoothing, scenario, budgets, constants,
    )
    return _objective(both, constants.counts) + float(lam @ rows)


class _CoordinateLagrangian:
    """The Lagrangian at trial points that move one coordinate of a base design.

    rebuild(flat) caches the base design's delays, window sigmoids,
    participation product with its objective and column sums, control rows,
    flight energy e_fly, follower compute-plus-upload energies e_work and
    follower energies e_work + e_fly.  value(idx, x) then recomputes only
    what coordinate idx (order p_1..p_I, p_L, beta, v) touches:

    - p_i: follower i's uplink delays and window sigmoid, then column i of
      the product and of e_work + e_fly;
    - p_L: the downlink delays, g_dn, the product and the control rows;
    - beta: both window sigmoids, the product, e_work and e_work + e_fly;
    - v: e_fly and e_work + e_fly.

    The objective and the column sums are recomputed whenever the product
    changes, and the leader energy on every trial (it is a scalar).  rho,
    phi and the energy sigmoids are always recomputed, since phi couples
    every column; that chain runs in one preallocated (K, I) buffer.
    Patched columns are computed elementwise exactly as the full arrays are,
    every reduction runs over the full arrays, and lagrangian() builds its
    rows through the same _rows, so value(idx, x) equals lagrangian() at the
    trial design bit for bit.  inner_maximize rebuilds the cache whenever it
    accepts a move, so every scalar search starts from the current iterate.
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
        # per-follower constants tiled to (K, I): same elementwise results as
        # broadcasting, without numpy's short inner loops
        self.shape = (samples.k, self.n)
        self.counts = np.broadcast_to(constants.counts, self.shape).copy()
        self.tau = np.broadcast_to(np.asarray(control.tau, dtype=float), self.shape).copy()
        self.train = np.broadcast_to(scenario.follower_training_energies(), self.shape).copy()
        self.buf = np.empty(self.shape)
        self.evals = 0

    def rebuild(self, flat: np.ndarray) -> None:
        design = self.design = DesignVector.from_flat(flat, self.n)
        self.g_up, self.g_dn, self.t_up, self.t_dn = _window_sigmoids(
            design, self.samples, self.smoothing, self.scenario
        )
        self.both = self.g_up * self.g_dn
        self.obj = _objective(self.both, self.counts)
        self.both_sums = _column_sums(self.both)
        self.control_rows = _control_rows(self.t_dn, self.smoothing, self.control, self.tau)
        self.e_fly = _flight_energy(self.scenario, design.v)
        self.p = np.broadcast_to(design.p, self.shape).copy()
        self.e_work = _follower_work_energies(
            self.train, self.p, self.t_up, design.beta * self.scenario.round_time_s
        )
        self.e_followers = self.e_work + self.e_fly

    def value(self, idx: int | None = None, x: float | None = None) -> float:
        """Lagrangian at the base design with coordinate idx set to x
        (at the base design itself when idx is None)."""
        self.evals += 1
        n, design, smoothing = self.n, self.design, self.smoothing
        radio, round_time = self.scenario.radio, self.scenario.round_time_s
        p_leader, beta, e_fly = design.p_leader, design.beta, self.e_fly
        both, control_rows, e_followers = self.both, self.control_rows, self.e_followers
        if idx is None:
            pass
        elif idx < n:
            x = float(x)
            t_col = _delay(radio.pkt_local, radio.bw_up, x * self.samples.c_up[:, idx])
            both = both.copy()
            both[:, idx] = _window_gamma(beta * round_time, t_col, smoothing) * self.g_dn[:, idx]
            e_followers = e_followers.copy()
            e_followers[:, idx] = (
                _follower_work_energies(self.train[:, idx], x, t_col, beta * round_time) + e_fly
            )
        elif idx == n:
            p_leader = float(x)
            t_dn = _delay(radio.pkt_global, radio.bw_down, p_leader * self.samples.c_dn)
            both = self.g_up * _window_gamma((1.0 - beta) * round_time, t_dn, smoothing)
            control_rows = _control_rows(t_dn, smoothing, self.control, self.tau)
        elif idx == n + 1:
            beta = float(x)
            both = (_window_gamma(beta * round_time, self.t_up, smoothing)
                    * _window_gamma((1.0 - beta) * round_time, self.t_dn, smoothing))
            e_followers = (
                _follower_work_energies(self.train, self.p, self.t_up, beta * round_time) + e_fly
            )
        else:
            e_fly = _flight_energy(self.scenario, float(x))
            e_followers = self.e_work + e_fly
        obj, both_sums = self.obj, self.both_sums
        if both is not self.both:
            obj, both_sums = _objective(both, self.counts), _column_sums(both)
        rows = _rows(
            both_sums, _leader_energy(self.scenario, p_leader, beta, e_fly), e_followers,
            control_rows, smoothing, self.scenario, self.budgets, self.constants, out=self.buf,
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
    When a report is given, the Lagrangian evaluations are added to
    report.lagrangian_evals, and a row {"inner_cycles": cycles run} is
    appended to report.iterations for the dual loop to complete.  Raises
    ValueError unless lambda_ holds 2I+1 finite nonnegative values.
    """
    lam = _checked_multipliers(lambda_, scenario.n_followers)
    if constants is None:
        constants = problem_constants(scenario)
    cfg = scenario.saa
    bounds = _coordinate_bounds(scenario, scenario.n_followers)
    flat = init.as_flat().copy()
    lagr = _CoordinateLagrangian(lam, samples, smoothing, scenario, budgets, control, constants)

    lagr.rebuild(flat)
    j_curr = lagr.value()
    for cycles in range(1, cfg.max_cycles + 1):
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
        report.iterations.append({"inner_cycles": cycles})
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

    Each row of iterations holds iteration, dual_value, lambda, residuals
    and inner_cycles, the coordinate-ascent cycles its inner maximization
    ran.  lagrangian_evals counts the Lagrangian evaluations of every inner
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
    scoring: ScenarioSamples | None = None,
) -> tuple[DesignVector, int, SolveReport]:
    """Full design optimization: returns (design, predicted_round, report).

    Projected subgradient descent on the multipliers (step a/sqrt(t) with
    a = step_scale * K), warm-starting each inner maximization from the
    previous iterate; stops early once the multipliers go stationary.  The
    returned design is the unsmoothed-feasible iterate with the best
    smoothed objective.  Its success probabilities and round prediction are
    read off scoring, draws of scenario independent of the frozen optimizer
    samples; by default a fresh n_success_samples draw seeded from rng_seed
    and "opt-probs".  Raises NoFeasibleDesignError when every iterate
    violates the sample constraints.
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
    if scoring is None:
        probs = estimate_success_probs(
            best, scenario, scenario.n_success_samples, derive_seed(rng_seed, "opt-probs")
        )
    else:
        probs = scoring.success_probs(best, scenario)
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
        report.iterations[-1].update(  # the row inner_maximize opened
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
            report.iterations[-1].update(  # the row inner_maximize opened
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
