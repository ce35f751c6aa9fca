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
minimizer, and every sigmoid is gamma_sigmoid, a numpy kernel, so no part
of saa imports scipy.

One evaluator, _CoordinateLagrangian, computes a design's smoothed
quantities (delays, window sigmoids, participation sums, objective,
residual rows, energies) on the samples' own follower-major layout, with
one routine per coordinate that both its trials and its moves run; the
public smoothed functions read one rebuilt at their design, the inner
maximization tries and moves one coordinate of it at a time, and each dual
iteration reads the residuals and objective it reports.  Every public
function taking (samples, scenario) reads the samples through
samples.at(scenario), so a pair of other draw statistics raises ValueError
and kernels and bandwidth always come from the one point.

The smoothed problem is a solver device only: the returned design is the
best iterate that passes the original indicator-based sample constraints,
and feasibility is always reported against those.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    _DELAY_ERRSTATE, ScenarioSamples, _bare_delay, _generate_beside, _kernel_delays, success_mask,
)
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


def gamma_sigmoid(r, c_bar: float, scale: float = 1.0, out: np.ndarray | None = None):
    """Smooth indicator surrogate: 1/(1+exp(-c_bar*r/scale)), the one kernel
    of every smoothed quantity.

    With out (a float array shaped like r, r itself allowed) every step
    runs in out and no temporary is allocated.  The sign rides on c_bar,
    since (-c_bar)*r is -(c_bar*r) exactly, so this is
    1.0 / (1.0 + np.exp(-(c_bar * r) / scale)) bit for bit.  Where exp
    overflows, far below the threshold, the sigmoid reads 0 without a
    warning.
    """
    with np.errstate(over="ignore"):
        z = np.divide(np.multiply(-c_bar, r, out=out), scale, out=out)
        return np.reciprocal(np.add(np.exp(z, out=out), 1.0, out=out), out=out)


def sample_delays(design: DesignVector, samples: ScenarioSamples, scenario: SwarmScenario):
    """Link delays (t_up, t_dn) of samples.at(scenario), each (K, I) seconds: transposed views of _row_delays'."""
    t_up, t_dn = _row_delays(design, samples.at(scenario))
    return t_up.T, t_dn.T


def _row_delays(design: DesignVector, samples: ScenarioSamples):
    """Link delays (t_up, t_dn) at the samples' scenario, each (I, K) seconds: one row of K samples per follower."""
    delays = _kernel_delays(*(c.T for c in samples.own_kernels), design, samples.scenario)
    return tuple(np.ascontiguousarray(t.T) for t in delays)  # elementwise results keep the kernels' layout: no copy


def _window_gamma(window: float, delays, smoothing) -> np.ndarray:
    """Smoothed indicator that delays fit a window of the given length [s]."""
    r = np.subtract(window, delays)
    return gamma_sigmoid(r, smoothing.c_bar, smoothing.delay_scale, out=r)


def smoothed_objective(design, samples, smoothing, scenario) -> float:
    """Count-weighted smoothed tally of in-time uploads across all samples."""
    return _CoordinateLagrangian(
        None, samples, smoothing, scenario, scenario.energy_budget, scenario.control
    ).rebuild(design.as_flat()).obj


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
    evaluator rebuilt at their design.  Every sample array is (I, K), one
    row of K samples per follower, as the samples store their kernels, and
    per-follower constants are (I, 1) columns.  The attributes are the parts
    of the base design: delays, window sigmoids, the row sums of their
    product with the objective obj = counts @ both_sums, control rows,
    flight energy e_fly, follower compute-plus-upload energies e_work and
    leader energy.  _trial(idx, x) is the one routine that computes what
    coordinate idx (order p_1..p_I, p_L, beta, v) at x changes of them:

    - p_i: follower i's uplink delays, window sigmoid and e_work (rows),
      then entry i of both_sums;
    - p_L: the downlink delays, g_dn, both_sums, the control rows and the
      leader energy;
    - beta: both window sigmoids, both_sums, e_work and the leader energy;
    - v: e_fly and the leader energy.

    value(idx, x) reads the Lagrangian off a trial that leaves out what only
    row groups (leader energy, follower energies, control deadlines) with
    all multipliers 0 read, and move(idx, x) keeps the parts of a trial
    with every group on as the new base.  A skipped group writes 0.0 into
    its rows, which adds the same zero terms to lam @ rows up to their
    sign, so with every multiplier 0 value() returns obj (obj + 0.0 is obj)
    and forms no rows.  An evaluated energy group recomputes rho, phi and
    its sigmoids on every trial, since phi couples every row.  Patched rows
    are computed elementwise exactly as the full arrays are, a row's sum is
    the entry sum(axis=1) gives it, and obj is counts @ both_sums on every
    path, so value(idx, x) equals value() after a rebuild at the trial
    design bit for bit, and so does every part after move(idx, x).  A trial
    that raises (a v trial always checks the speed) changes no part, so
    neither does its move.  Only value() counts in evals.  Trials and moves
    enter no error state but gamma_sigmoid's own: inner_maximize holds
    _delay's around its whole search.
    """

    def __init__(self, lam, samples, smoothing, scenario, budgets, control, constants=None):
        self.lam = lam
        self.samples = samples.at(scenario)
        self.smoothing = smoothing
        self.scenario = scenario
        self.budgets = budgets
        self.control = control
        self.constants = problem_constants(scenario) if constants is None else constants
        self.n, self.k, self.counts = scenario.n_followers, samples.k, self.constants.counts
        self.tau = np.asarray(control.tau, dtype=float)[:, None]
        self.train = scenario.follower_training_energies()[:, None]
        self.buf = np.empty((self.n, self.k))
        # log(eps_sum / S_0), the numerator of phi
        self.log_target = np.log(_eps_sum(scenario, self.constants) / self.constants.initial_loss_sum)
        self.evals = 0
        # value() evaluates a row group (leader, followers, control) only when
        # one of its multipliers is nonzero
        on = np.ones(2 * self.n + 1, dtype=bool) if lam is None else np.asarray(lam) != 0.0
        self.groups_on = (bool(on[0]), bool(on[1 : self.n + 1].any()), bool(on[self.n + 1 :].any()))
        # v reaches only the energy rows: with them off a speed search is flat and never accepted
        self.searches_speed = self.groups_on[0] or self.groups_on[1]

    def rebuild(self, flat: np.ndarray) -> "_CoordinateLagrangian":
        self.flat = np.array(flat, dtype=float)
        design = self.design = DesignVector.from_flat(self.flat, self.n)
        self.t_up, self.t_dn = _row_delays(design, self.samples)
        self.control_rows = self._control_rows(self.t_dn)
        self.p = np.array(design.p, dtype=float)[:, None]
        self.e_fly = _flight_energy(self.scenario, design.v)
        self.move(self.n + 1, design.beta)  # the rest are beta's parts
        return self

    def _trial(self, idx: int, x: float, groups_on) -> dict:
        """The parts of the base design that coordinate idx set to x changes, by
        attribute name; p_i's t_up, p, g_up and e_work are row idx, which its
        part "row" names.  Parts read only by row groups that groups_on
        (leader, followers, control) leaves off are not computed."""
        n, design, smoothing, x = self.n, self.design, self.smoothing, float(x)
        radio, round_time = self.scenario.radio, self.scenario.round_time_s
        leader_on, followers_on, control_on = groups_on
        p_leader, beta, e_fly = design.p_leader, design.beta, self.e_fly
        c_up, c_dn = self.samples.own_kernels
        if idx < n:
            t_row = _bare_delay(radio.pkt_local, radio.bw_up, x * c_up[idx])
            window = beta * round_time
            g_row = _window_gamma(window, t_row, smoothing)
            both_sums = self.both_sums.copy()
            both_sums[idx] = (g_row * self.g_dn[idx]).sum()
            parts = {"row": idx, "t_up": t_row, "p": x, "g_up": g_row, "both_sums": both_sums}
            if followers_on:
                parts["e_work"] = _follower_work_energies(self.train[idx], x, t_row, window)
        elif idx == n:
            p_leader = x
            t_dn = _bare_delay(radio.pkt_global, radio.bw_down, x * c_dn)
            g_dn = _window_gamma((1.0 - beta) * round_time, t_dn, smoothing)
            parts = {"t_dn": t_dn, "g_dn": g_dn, "both_sums": self._both_sums(self.g_up, g_dn)}
            if control_on:
                parts["control_rows"] = self._control_rows(t_dn)
        elif idx == n + 1:
            beta = x
            g_up = _window_gamma(beta * round_time, self.t_up, smoothing)
            g_dn = _window_gamma((1.0 - beta) * round_time, self.t_dn, smoothing)
            parts = {"g_up": g_up, "g_dn": g_dn, "both_sums": self._both_sums(g_up, g_dn)}
            if followers_on:
                parts["e_work"] = _follower_work_energies(self.train, self.p, self.t_up, beta * round_time)
        else:
            e_fly = _flight_energy(self.scenario, x)
            parts = {"e_fly": e_fly}
        if "both_sums" in parts:
            parts["obj"] = float(self.counts @ parts["both_sums"])
        if leader_on and idx >= n:
            parts["e_leader"] = _leader_energy(self.scenario, p_leader, beta, e_fly)
        return parts

    def _both_sums(self, g_up, g_dn) -> np.ndarray:
        """Row sums of the participation product g_up * g_dn, formed in buf."""
        return np.multiply(g_up, g_dn, out=self.buf).sum(axis=1)

    def move(self, idx: int, x: float) -> None:
        """Set coordinate idx of the base design to x: the base keeps the parts of that trial."""
        parts = self._trial(idx, x, (True, True, True))
        self.flat[idx] = x
        self.design = DesignVector.from_flat(self.flat, self.n)
        if "row" in parts:  # a p_i trial's rows go into the base
            i = parts.pop("row")
            for name in ("t_up", "p", "g_up", "e_work"):
                getattr(self, name)[i] = parts.pop(name)
        vars(self).update(parts)

    def value(self, idx: int | None = None, x: float | None = None) -> float:
        """Lagrangian at the base design with coordinate idx set to x
        (at the base design itself when idx is None)."""
        self.evals += 1
        parts = {} if idx is None else self._trial(idx, x, self.groups_on)
        obj = parts.get("obj", self.obj)
        if not any(self.groups_on):  # every multiplier is 0
            return obj
        return obj + float(self.lam @ self.rows(parts, self.groups_on))

    def rows(self, parts=None, groups_on=(True, True, True)) -> np.ndarray:
        """Smoothed residual rows, length 2I+1, >= 0 when met, at the base design
        with the parts given (by name: both_sums, e_leader, e_work, e_fly,
        control_rows, and a p_i trial's row) in place of its own.  The rows of
        a group groups_on (leader, followers, control) leaves off read 0.0,
        and rho and phi are computed only when an energy group is on.  The
        follower energies e_work + e_fly and their sigmoids are computed in
        buf."""
        at = vars(self) if parts is None else {**vars(self), **parts}
        leader_on, followers_on, control_on = groups_on
        n, k, budgets, e_bar = self.n, self.k, self.budgets, self.budgets.e_bar
        rows = np.zeros(2 * n + 1)
        if leader_on or followers_on:
            # row sums of sigmoid products over K samples: in [0, 1] by construction
            rho = min(self.constants._speed(at["both_sums"] / k), 1.0 - 1e-12)
            log_decay = np.log(1.0 - rho)
            # rho too small to move 1 - rho means no participation, so no finite round prediction
            phi = self.log_target / log_decay if log_decay < 0.0 else np.inf
            c_bar, e_scale = self.smoothing.c_bar, self.smoothing.energy_scale
        if leader_on:
            rows[0] = k * gamma_sigmoid(e_bar - phi * at["e_leader"], c_bar, e_scale) - k * budgets.xi_leader
        if followers_on:
            i = at.get("row")
            energies = np.add(self.e_work if i is not None else at["e_work"], at["e_fly"], out=self.buf)
            if i is not None:  # a p_i trial's own row
                np.add(at["e_work"], at["e_fly"], out=energies[i])
            energy_args = np.subtract(e_bar, np.multiply(phi, energies, out=energies), out=energies)
            sigmoids = gamma_sigmoid(energy_args, c_bar, e_scale, out=energies)
            rows[1 : n + 1] = sigmoids.sum(axis=1) - k * budgets.xi_follower
        if control_on:
            rows[n + 1 :] = at["control_rows"]
        return rows

    def _control_rows(self, t_dn) -> np.ndarray:
        """Smoothed control-deadline rows: sum_k Gamma(tau_i - t_dn) - K xi_control."""
        r = np.subtract(self.tau, t_dn)
        sigmoids = gamma_sigmoid(r, self.smoothing.c_bar, self.smoothing.delay_scale, out=r)
        return sigmoids.sum(axis=1) - self.k * self.control.xi_control


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
    flat in stay put; v, flat while the energy multipliers are 0, is then
    not searched.  Stops when a full cycle improves less than the
    configured relative tolerance, or after the configured cycle cap.
    Returns the design and the achieved value (the dual value at lambda_).
    When a report is given, the Lagrangian evaluations are added to
    report.lagrangian_evals, and a row {"inner_cycles": cycles run,
    "objective": obj, "residuals": rows} at the design is appended to
    report.iterations for the dual loop to complete.  Raises ValueError
    unless lambda_ holds 2I+1 finite nonnegative values.
    """
    lam = _checked_multipliers(lambda_, scenario.n_followers)
    cfg = scenario.saa
    lagr = _CoordinateLagrangian(lam, samples, smoothing, scenario, budgets, control, constants)
    bounds = _coordinate_bounds(scenario, scenario.n_followers)[: None if lagr.searches_speed else -1]
    with np.errstate(**_DELAY_ERRSTATE):
        j_curr = lagr.rebuild(init.as_flat()).value()
        for cycles in range(1, cfg.max_cycles + 1):
            j_cycle_start = j_curr
            for idx, (lo, hi) in enumerate(bounds):
                x, neg_j = _fminbound(
                    lambda x, idx=idx: -lagr.value(idx, x), lo, hi, cfg.xtol * (hi - lo)
                )
                if -neg_j > j_curr:
                    j_curr = -neg_j
                    lagr.move(idx, x)
            if abs(j_curr - j_cycle_start) <= cfg.inner_tol * max(abs(j_curr), 1.0):
                break
    if report is not None:
        report.lagrangian_evals += lagr.evals
        report.iterations.append({"inner_cycles": cycles, "objective": lagr.obj, "residuals": lagr.rows()})
    return lagr.design, j_curr


@dataclass
class SolveReport:
    """Trace and outcome of one optimization run.

    Each row of iterations holds iteration, dual_value, lambda, objective and
    residuals (smoothed, at its design) and inner_cycles, the cycles its inner
    maximization ran.  lagrangian_evals counts the Lagrangian evaluations of
    every inner maximization.  nonnegativity_cuts counts the ellipsoid
    iterations that cut off a negative multiplier, which write no row.
    stop_reason is "gap" (the subgradient duality gap closed to inner_tol),
    "stationary" (the subgradient multipliers stopped moving), "degenerate"
    (an ellipsoid cut had no direction) or "max_iters".  gap is the relative
    duality gap, (best dual value - best feasible objective) / max(|best dual
    value|, 1); the inner maximization is local, so it can dip below 0.
    """

    iterations: list[dict] = field(default_factory=list)
    feasible: bool = False
    margins: np.ndarray | None = None
    predicted_round: int | None = None
    success_probs: np.ndarray | None = None
    method: str = "subgradient"
    lagrangian_evals: int = 0
    nonnegativity_cuts: int = 0
    stop_reason: str = "max_iters"  # or "gap", "stationary", "degenerate"
    gap: float | None = None

    def dual_trace(self) -> np.ndarray:
        return np.array([row["dual_value"] for row in self.iterations])


@dataclass
class _DualState:
    """The outer multiplier iteration: the sampled problem, the report, the
    last inner maximizer (the next one's start), the best dual value so far
    and the best unsmoothed-feasible iterate so far, with its indicator
    margins."""

    samples: ScenarioSamples
    smoothing: SmoothingConfig
    scenario: SwarmScenario
    constants: TrainingProblem
    report: SolveReport
    design: DesignVector
    best_feasible_primal: DesignVector | None = None
    best_feasible_objective: float = -np.inf
    best_feasible_margins: np.ndarray | None = None
    best_dual: float = np.inf

    def gap(self) -> float:
        """Relative duality gap (best dual value - best feasible objective)
        / max(|best dual value|, 1); not finite before a feasible iterate."""
        return (self.best_dual - self.best_feasible_objective) / max(abs(self.best_dual), 1.0)

    def step(self, t: int, lam: np.ndarray) -> np.ndarray:
        """Dual iteration t at multipliers lam; returns the residuals there.

        Maximizes the Lagrangian from the last maximizer, and reads the
        residuals (a subgradient of the dual at lam) and the smoothed
        objective off the report row inner_maximize opened, which its
        evaluator wrote at the maximizer.  Keeps the maximizer if it is the
        best unsmoothed-feasible iterate so far, lowers the best dual value,
        and completes the row.
        """
        scenario = self.scenario
        budgets, control = scenario.energy_budget, scenario.control
        args = (self.samples, self.smoothing, scenario, budgets, control)
        self.design, dual_value = inner_maximize(
            lam, *args, self.design, self.constants, self.report
        )
        row = self.report.iterations[-1]
        feasible, margins, _ = unsmoothed_feasibility(
            self.design, self.samples, scenario, budgets, control, self.constants
        )
        if feasible and row["objective"] > self.best_feasible_objective:
            self.best_feasible_objective, self.best_feasible_primal = row["objective"], self.design
            self.best_feasible_margins = margins
        self.best_dual = min(self.best_dual, dual_value)
        row.update({"iteration": t, "dual_value": dual_value, "lambda": lam.copy()})
        return row["residuals"]


def solve(
    scenario: SwarmScenario,
    rng_seed: int | None = None,
    method: str = "subgradient",
    scoring: ScenarioSamples | None = None,
    samples: ScenarioSamples | None = None,
) -> tuple[DesignVector, int, SolveReport]:
    """Full design optimization: returns (design, predicted_round, report).

    Projected subgradient descent on the multipliers (step a/sqrt(t) with
    a = step_scale * K), warm-starting each inner maximization from the
    previous iterate; stops early once the duality gap closes to inner_tol or
    the multipliers go stationary.  The frozen optimizer samples are
    samples read at scenario (samples.at), so they may be drawn at another
    jitter variance or bandwidth; by default a fresh saa.samples_k draw
    seeded from rng_seed and "saa-samples".  The returned design is the
    unsmoothed-feasible iterate with the best smoothed objective.  Its
    success probabilities and round prediction are read off scoring, draws
    independent of the frozen optimizer samples, also read at scenario
    before the dual loop starts; by default a fresh n_success_samples draw
    seeded from rng_seed and "opt-probs", whose generator fills run on a
    worker thread while the dual loop runs on this one
    (channel._generate_beside), so the probabilities are
    estimate_success_probs's bit for bit.
    rng_seed defaults to the scenario's base_seed and must lie in
    [0, 2**64), as that field does.  Raises NoFeasibleDesignError when every
    iterate violates the sample constraints.
    """
    scenario.require_valid()
    solvers = {"subgradient": _solve_subgradient, "ellipsoid": _solve_ellipsoid}
    if method not in solvers:
        raise ValueError(f"unknown method: {method!r}")
    rng_seed = scenario.base_seed if rng_seed is None else rng_seed
    if not 0 <= rng_seed < 2**64:  # derive_seed would alias it onto a seed in range
        raise ValueError(f"rng_seed must be in [0, 2**64), got {rng_seed}")
    constants = problem_constants(scenario)
    if samples is None:
        samples = ScenarioSamples.generate(
            scenario, scenario.saa.samples_k, derive_seed(rng_seed, "saa-samples")
        )
    samples = samples.at(scenario)
    scoring = None if scoring is None else scoring.at(scenario)
    state = _DualState(
        samples, SmoothingConfig.from_scenario(scenario), scenario, constants,
        SolveReport(method=method), scenario.default_design(),
    )
    if scoring is None:  # its fills run on a worker thread during the dual loop
        seed = derive_seed(rng_seed, "opt-probs")
        scoring = _generate_beside(scenario, scenario.n_success_samples, seed, lambda: solvers[method](state))
    else:
        solvers[method](state)

    if state.best_feasible_primal is None:
        raise NoFeasibleDesignError(
            "no design satisfied the sample chance constraints; relax e_bar, tau, or xi"
        )
    best, report = state.best_feasible_primal, state.report
    probs = scoring.success_probs(best)
    predicted = constants.predicted_round(probs, _eps_sum(scenario, constants))
    report.gap = state.gap()
    report.feasible = True
    report.margins = state.best_feasible_margins
    report.predicted_round = predicted
    report.success_probs = probs
    return best, predicted, report


def _solve_subgradient(state: _DualState) -> None:
    """Projected subgradient steps on the multipliers, from lambda = 0.

    Stops with "gap" once |gap| <= inner_tol from step 2 on.  inner_maximize
    ends a cycle that improves by less than inner_tol relative, so a dual
    value is known no better than that and a smaller gap certifies nothing
    more.  Step 1 is left out, as the stationary rule leaves it out: at
    lambda = 0 a slack problem's gap is 0 at once, but the second inner
    maximization, restarted from the first one's answer, can still move the
    design within inner_tol.  A gap below -inner_tol is no stop: the dual
    "bound" then lies below a feasible objective and certifies nothing.
    """
    cfg = state.scenario.saa
    lam = np.zeros(2 * state.scenario.n_followers + 1)
    step_a = cfg.step_scale * state.samples.k
    for t in range(1, cfg.max_iters + 1):
        residuals = state.step(t, lam)
        if t >= 2 and abs(state.gap()) <= cfg.inner_tol:
            state.report.stop_reason = "gap"
            break
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
            state.report.nonnegativity_cuts += 1
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
