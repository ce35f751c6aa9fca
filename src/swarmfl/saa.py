"""Joint power/scheduling/speed design via sample average approximation.

The design problem maximizes the expected number of in-time follower
uploads per round (which drives the convergence-round prediction down)
subject to chance constraints on per-UAV energy and on control-loop
downlink deadlines.  Probabilities are replaced by empirical frequencies
over K frozen channel draws, indicators by a steep sigmoid on normalized
arguments, and the constrained problem by its Lagrangian dual, minimized
over multipliers with projected subgradient steps (an ellipsoid variant is
available behind the same interface).  Each coordinate of the inner
maximization is searched by _fminbound, a port of scipy's bounded scalar
minimizer, so importing saa does not import scipy; scipy.special.expit is
imported on the first sigmoid.

One evaluator, _CoordinateLagrangian, computes a design's smoothed
quantities (delays, window sigmoids, participation, objective, residual
rows, energies); the public smoothed functions and every dual iteration
read an evaluator rebuilt at their design, and the inner maximization
moves one coordinate of it at a time.

The smoothed problem is a solver device only: the returned design is the
best iterate that passes the original indicator-based sample constraints,
and feasibility is always reported against those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

    c_bar: float
    delay_scale: float
    energy_scale: float

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


_expit = None  # scipy.special.expit, imported on the first gamma_sigmoid call


def gamma_sigmoid(r, c_bar: float, scale: float = 1.0, out: np.ndarray | None = None):
    """Smooth indicator surrogate: 1/(1+exp(-c_bar*r/scale)).

    With out (a float array shaped like r, r itself allowed) every step
    runs in out and no temporary is allocated.  The sigmoid is scipy's
    expit: a numpy exp differs from it in the last bit on some arguments.
    """
    global _expit
    if _expit is None:
        from scipy.special import expit as _expit
    z = np.multiply(c_bar, np.asarray(r, dtype=float), out=out)
    return _expit(np.divide(z, scale, out=out), out=out)


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


def smoothed_objective(design, samples, smoothing, scenario) -> float:
    """Count-weighted smoothed tally of in-time uploads across all samples."""
    return _CoordinateLagrangian(
        None, samples, smoothing, scenario, scenario.energy_budget, scenario.control
    ).rebuild(design.as_flat()).obj


def _rows(both_sums, e_leader, e_followers, control_rows, smoothing, scenario, budgets,
          constants, out):
    """Smoothed residual rows from their parts.

    both_sums are the column sums of the (K, I) participation sigmoids,
    e_leader and e_followers the per-round energies, control_rows the
    finished control rows.  The follower energy sigmoids are computed in
    out, a (K, I) float array that may be e_followers itself.
    """
    k = e_followers.shape[0]
    # column sums of sigmoid products over K samples: in [0, 1] by construction
    rho = min(constants._speed(both_sums / k), 1.0 - 1e-12)
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
    return _CoordinateLagrangian(
        None, samples, smoothing, scenario, budgets, control, constants
    ).rebuild(design.as_flat()).rows()


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
    return _CoordinateLagrangian(
        lam, samples, smoothing, scenario, budgets, control, constants
    ).rebuild(design.as_flat()).value()


class _CoordinateLagrangian:
    """A design's smoothed quantities, and the Lagrangian at trial points that
    move one coordinate of it.

    This is the one place the smoothed problem is evaluated: lagrangian,
    smoothed_objective, smoothed_constraints and the dual loops all read an
    evaluator rebuilt at their design.  rebuild(flat) computes the base
    design's delays, window sigmoids, participation product with its
    objective obj and column sums, control rows, flight energy e_fly,
    follower compute-plus-upload energies e_work and follower energies
    e_work + e_fly.  rows() reads the residual rows at the base design.
    value(idx, x) recomputes only what coordinate idx (order p_1..p_I, p_L,
    beta, v) touches:

    - p_i: follower i's uplink delays and window sigmoid, then column i of
      the product and of e_work + e_fly;
    - p_L: the downlink delays, g_dn, the product and the control rows;
    - beta: both window sigmoids, the product, e_work and e_work + e_fly;
    - v: e_fly and e_work + e_fly.

    The objective and the column sums are recomputed whenever the product
    changes, and the leader energy on every trial (it is a scalar).  rho,
    phi and the energy sigmoids are always recomputed, since phi couples
    every column; that chain runs in one preallocated (K, I) buffer.
    Patched columns are computed elementwise exactly as the full arrays are
    and every reduction runs over the full arrays, so value(idx, x) equals
    value() after a rebuild at the trial design bit for bit.  Only value()
    counts in evals.  inner_maximize rebuilds whenever it accepts a move, so
    every scalar search starts from the current iterate.
    """

    def __init__(self, lam, samples, smoothing, scenario, budgets, control, constants=None):
        self.lam = lam
        self.samples = samples
        self.smoothing = smoothing
        self.scenario = scenario
        self.budgets = budgets
        self.control = control
        self.constants = problem_constants(scenario) if constants is None else constants
        self.n = scenario.n_followers
        # per-follower constants tiled to (K, I): same elementwise results as
        # broadcasting, without numpy's short inner loops
        self.shape = (samples.k, self.n)
        self.counts = np.broadcast_to(self.constants.counts, self.shape).copy()
        self.tau = np.broadcast_to(np.asarray(control.tau, dtype=float), self.shape).copy()
        self.train = np.broadcast_to(scenario.follower_training_energies(), self.shape).copy()
        self.buf = np.empty(self.shape)
        self.evals = 0

    def rebuild(self, flat: np.ndarray) -> "_CoordinateLagrangian":
        design = self.design = DesignVector.from_flat(flat, self.n)
        round_time = self.scenario.round_time_s
        self.t_up, self.t_dn = sample_delays(design, self.samples, self.scenario)
        self.g_up = _window_gamma(design.beta * round_time, self.t_up, self.smoothing)
        self.g_dn = _window_gamma((1.0 - design.beta) * round_time, self.t_dn, self.smoothing)
        self.both = self.g_up * self.g_dn
        self.obj, self.both_sums = self._tally(self.both)
        self.control_rows = self._control_rows(self.t_dn)
        self.e_fly = _flight_energy(self.scenario, design.v)
        self.p = np.broadcast_to(design.p, self.shape).copy()
        self.e_work = _follower_work_energies(
            self.train, self.p, self.t_up, design.beta * round_time
        )
        self.e_followers = self.e_work + self.e_fly
        return self

    def rows(self) -> np.ndarray:
        """Smoothed residual rows at the base design, length 2I+1, >= 0 when met."""
        design = self.design
        return self._residuals(self.both_sums, design.p_leader, design.beta, self.e_fly,
                               self.e_followers, self.control_rows)

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
            control_rows = self._control_rows(t_dn)
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
        obj, both_sums = (self.obj, self.both_sums) if both is self.both else self._tally(both)
        rows = self._residuals(both_sums, p_leader, beta, e_fly, e_followers, control_rows)
        return obj + float(self.lam @ rows)

    def _tally(self, both) -> tuple[float, np.ndarray]:
        """Count-weighted sum and column sums of a (K, I) participation product."""
        return float(np.multiply(self.counts, both).sum()), _column_sums(both)

    def _control_rows(self, t_dn) -> np.ndarray:
        """Smoothed control-deadline rows: sum_k Gamma(tau_i - t_dn) - K xi_control."""
        r = np.subtract(self.tau, t_dn)
        smoothing = self.smoothing
        return (
            _column_sums(gamma_sigmoid(r, smoothing.c_bar, smoothing.delay_scale, out=r))
            - t_dn.shape[0] * self.control.xi_control
        )

    def _residuals(self, both_sums, p_leader, beta, e_fly, e_followers, control_rows):
        """Residual rows of a design whose parts these are (see _rows)."""
        e_leader = _leader_energy(self.scenario, p_leader, beta, e_fly)
        return _rows(both_sums, e_leader, e_followers, control_rows, self.smoothing,
                     self.scenario, self.budgets, self.constants, out=self.buf)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _sign(x: float) -> float:
    """np.sign(x) + (x == 0): 1.0 for x >= 0, -1.0 below, NaN for NaN."""
    return 1.0 if x >= 0.0 else -1.0 if x < 0.0 else x


def _fminbound(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> tuple[float, float]:
    """Minimize func over [lo, hi]: (x, func(x)) at the best point found.

    Brent's bounded search (golden-section steps, parabolic steps where a
    fit is acceptable), ported from scipy 1.17's _minimize_scalar_bounded
    in plain floats with the same operation order, so it returns what
    minimize_scalar(func, bounds=(lo, hi), method="bounded",
    options={"xatol": xatol}) returns, bit for bit.  Stops when the
    bracket is within about xatol of the best point, or after maxfun
    evaluations.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        # max passes a NaN step through, as np.maximum does
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx


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
    cfg = scenario.saa
    bounds = _coordinate_bounds(scenario, scenario.n_followers)
    flat = init.as_flat().copy()
    lagr = _CoordinateLagrangian(lam, samples, smoothing, scenario, budgets, control, constants)

    j_curr = lagr.rebuild(flat).value()
    for cycles in range(1, cfg.max_cycles + 1):
        j_cycle_start = j_curr
        for idx, (lo, hi) in enumerate(bounds):
            x, neg_j = _fminbound(
                lambda x, idx=idx: -lagr.value(idx, x), lo, hi, cfg.xtol * (hi - lo)
            )
            if -neg_j > j_curr:
                flat[idx] = x
                j_curr = -neg_j
                lagr.rebuild(flat)
        if abs(j_curr - j_cycle_start) <= cfg.inner_tol * max(abs(j_curr), 1.0):
            break
    if report is not None:
        report.lagrangian_evals += lagr.evals
        report.iterations.append({"inner_cycles": cycles})
    return DesignVector.from_flat(flat, scenario.n_followers), j_curr


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


@dataclass
class _DualState:
    """The outer multiplier iteration: the sampled problem, the report, the
    last inner maximizer (the next one's start) and the best
    unsmoothed-feasible iterate so far."""

    samples: ScenarioSamples
    smoothing: SmoothingConfig
    scenario: SwarmScenario
    constants: TrainingProblem
    report: SolveReport
    design: DesignVector
    best_feasible_primal: DesignVector | None = None
    best_feasible_objective: float = -np.inf

    def step(self, t: int, lam: np.ndarray) -> np.ndarray:
        """Dual iteration t at multipliers lam; returns the residuals there.

        Maximizes the Lagrangian from the last maximizer, and reads the
        residuals (a subgradient of the dual at lam) and the smoothed
        objective off one evaluator rebuilt at the new maximizer.  Keeps
        the maximizer if it is the best unsmoothed-feasible iterate so far,
        and completes the report row inner_maximize opened.
        """
        scenario = self.scenario
        budgets, control = scenario.energy_budget, scenario.control
        args = (self.samples, self.smoothing, scenario, budgets, control)
        self.design, dual_value = inner_maximize(
            lam, *args, self.design, self.constants, self.report
        )
        at = _CoordinateLagrangian(lam, *args, self.constants).rebuild(self.design.as_flat())
        residuals = at.rows()
        feasible, _, _ = unsmoothed_feasibility(
            self.design, self.samples, scenario, budgets, control, self.constants
        )
        if feasible and at.obj > self.best_feasible_objective:
            self.best_feasible_objective, self.best_feasible_primal = at.obj, self.design
        self.report.iterations[-1].update(
            {"iteration": t, "dual_value": dual_value, "lambda": lam.copy(), "residuals": residuals}
        )
        return residuals


def solve(
    scenario: SwarmScenario,
    rng_seed: int | None = None,
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
    and "opt-probs".  rng_seed defaults to the scenario's base_seed and
    must lie in [0, 2**64), as that field does.  Raises
    NoFeasibleDesignError when every iterate violates the sample
    constraints.
    """
    scenario.require_valid()
    solvers = {"subgradient": _solve_subgradient, "ellipsoid": _solve_ellipsoid}
    if method not in solvers:
        raise ValueError(f"unknown method: {method!r}")
    budgets, control = scenario.energy_budget, scenario.control
    rng_seed = scenario.base_seed if rng_seed is None else rng_seed
    if not 0 <= rng_seed < 2**64:  # derive_seed would alias it onto a seed in range
        raise ValueError(f"rng_seed must be in [0, 2**64), got {rng_seed}")
    constants = problem_constants(scenario)
    samples = ScenarioSamples.generate(
        scenario, scenario.saa.samples_k, derive_seed(rng_seed, "saa-samples")
    )
    state = _DualState(
        samples, SmoothingConfig.from_scenario(scenario), scenario, constants,
        SolveReport(method=method), scenario.default_design(),
    )
    solvers[method](state)

    if state.best_feasible_primal is None:
        raise NoFeasibleDesignError(
            "no design satisfied the sample chance constraints; relax e_bar, tau, or xi"
        )
    best, report = state.best_feasible_primal, state.report
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


def _solve_subgradient(state: _DualState) -> None:
    lam = np.zeros(2 * state.scenario.n_followers + 1)
    step_a = state.scenario.saa.step_scale * state.samples.k
    for t in range(1, state.scenario.saa.max_iters + 1):
        residuals = state.step(t, lam)
        new_lambda = np.maximum(0.0, lam - (step_a / np.sqrt(t)) * residuals)
        moved = np.linalg.norm(new_lambda - lam)
        lam = new_lambda
        if moved <= 1e-12 * (1.0 + np.linalg.norm(lam)) and t >= 2:
            state.report.stop_reason = "stationary"
            break


def _solve_ellipsoid(state: _DualState) -> None:
    """Ellipsoid method on the dual: center updates along Danskin subgradients.

    Multiplier nonnegativity is handled with feasibility cuts.  Kept as an
    alternative to the subgradient default; same tracking of the best
    unsmoothed-feasible primal iterate.
    """
    n_rows = 2 * state.scenario.n_followers + 1
    radius = 10.0 * state.scenario.saa.step_scale * state.samples.k
    center = np.full(n_rows, 0.1 * radius)
    shape = np.eye(n_rows) * radius**2
    for t in range(1, state.scenario.saa.max_iters + 1):
        if np.any(center < 0.0):
            g = np.zeros(n_rows)
            g[int(np.argmin(center))] = -1.0
        else:
            g = state.step(t, center)
        # Each cut keeps {g . (lambda - center) <= 0}.  For the residuals, a
        # subgradient of D at the center, that half-space holds every
        # minimizer of D; for g = -e_j it holds lambda_j >= center_j.
        denom = float(g @ shape @ g)
        if denom <= 0.0:
            state.report.stop_reason = "degenerate"
            break
        gn = shape @ g / np.sqrt(denom)
        center = center - gn / (n_rows + 1)
        shape = (n_rows**2 / (n_rows**2 - 1.0)) * (
            shape - (2.0 / (n_rows + 1)) * np.outer(gn, gn)
        )


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
