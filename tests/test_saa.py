"""Design optimizer: smoothing, sampled constraints, dual ascent, baselines."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import expit

from swarmfl.design import DesignVector
from swarmfl.energy import ControlRequirements, EnergyBudget, round_energies
from swarmfl.saa import (
    NoFeasibleDesignError,
    ScenarioSamples,
    SmoothingConfig,
    _column_sums,
    _CoordinateLagrangian,
    _fminbound,
    _rows,
    baseline_design,
    gamma_sigmoid,
    inner_maximize,
    lagrangian,
    problem_constants,
    sample_delays,
    smoothed_constraints,
    smoothed_objective,
    solve,
    unsmoothed_feasibility,
)
from swarmfl.scenario import SaaConfig, SwarmScenario


@pytest.fixture(scope="module")
def one_scenario(default_scenario) -> SwarmScenario:
    """Single follower, tiny sample budget: fastest solver configuration."""
    return replace(
        default_scenario,
        n_followers=1,
        distances=(65.0,),
        control=ControlRequirements(tau=(0.05,)),
        saa=SaaConfig(samples_k=60, max_cycles=60, inner_tol=1e-9, xtol=1e-5),
    ).require_valid()


@pytest.fixture(scope="module")
def one_samples(one_scenario) -> ScenarioSamples:
    return ScenarioSamples.generate(one_scenario, 60, 11)


@pytest.fixture(scope="module")
def default_samples(default_scenario) -> ScenarioSamples:
    return ScenarioSamples.generate(default_scenario, 2000, 999)


def with_max_iters(scenario: SwarmScenario, max_iters: int) -> SwarmScenario:
    """The scenario with its dual-iteration cap set to max_iters."""
    return replace(scenario, saa=replace(scenario.saa, max_iters=max_iters))


class TestGammaSigmoid:
    def test_zero_crossing_is_half(self):
        assert gamma_sigmoid(0.0, 50.0) == pytest.approx(0.5, abs=1e-15)

    def test_known_value(self):
        assert gamma_sigmoid(0.1, 50.0, 1.0) == pytest.approx(expit(5.0), rel=1e-14)

    def test_monotone_increasing(self):
        r = np.linspace(-0.05, 0.05, 101)
        out = gamma_sigmoid(r, 50.0, 0.1)
        assert np.all(np.diff(out) > 0.0)

    def test_symmetry(self):
        r = np.array([0.01, 0.07, 0.3])
        assert gamma_sigmoid(r, 50.0) + gamma_sigmoid(-r, 50.0) == pytest.approx(1.0)

    def test_scale_divides_argument(self):
        assert gamma_sigmoid(0.05, 50.0, 0.1) == pytest.approx(
            gamma_sigmoid(0.5, 50.0, 1.0), rel=1e-14
        )


class TestScenarioSamples:
    def test_shapes(self, default_scenario, default_samples):
        i = default_scenario.n_followers
        assert default_samples.c_up.shape == (2000, i)
        assert default_samples.c_dn.shape == (2000, i)
        assert default_samples.k == 2000

    def test_deterministic(self, default_scenario):
        a = ScenarioSamples.generate(default_scenario, 64, 5)
        b = ScenarioSamples.generate(default_scenario, 64, 5)
        assert np.array_equal(a.c_up, b.c_up)
        assert np.array_equal(a.c_dn, b.c_dn)

    def test_kernels_positive(self, default_samples):
        assert np.all(default_samples.c_up > 0.0)
        assert np.all(default_samples.c_dn > 0.0)

    def test_rejects_empty(self, default_scenario):
        with pytest.raises(ValueError):
            ScenarioSamples.generate(default_scenario, 0, 5)


def smoothed_success_probs(design, samples, smoothing, scenario):
    """Per-follower mean of the smoothed participation indicator, shape (I,)."""
    evaluator = _CoordinateLagrangian(
        None, samples, smoothing, scenario, scenario.energy_budget, scenario.control
    ).rebuild(design.as_flat())
    return (evaluator.g_up * evaluator.g_dn).mean(axis=0)


class TestSmoothedProbs:
    def test_unit_interval(self, default_scenario, default_samples):
        probs = smoothed_success_probs(
            default_scenario.default_design(),
            default_samples,
            SmoothingConfig.from_scenario(default_scenario),
            default_scenario,
        )
        assert probs.shape == (default_scenario.n_followers,)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_sharp_limit_matches_indicator(self, default_scenario, default_samples):
        """With a very steep sigmoid the smoothed mean is the empirical rate."""
        design = default_scenario.default_design()
        sharp = SmoothingConfig(c_bar=1e6, delay_scale=0.1, energy_scale=7000.0)
        smoothed = smoothed_success_probs(design, default_samples, sharp, default_scenario)
        t_up, t_dn = sample_delays(design, default_samples, default_scenario)
        hard = (
            (t_up <= design.beta * default_scenario.round_time_s)
            & (t_dn <= (1.0 - design.beta) * default_scenario.round_time_s)
        ).mean(axis=0)
        assert smoothed == pytest.approx(hard, abs=1e-3)


class TestSmoothedObjective:
    def test_saturates_at_total_samples(self, easy_scenario):
        """Effortless links: every draw contributes its full sample count."""
        samples = ScenarioSamples.generate(easy_scenario, 50, 7)
        obj = smoothed_objective(
            easy_scenario.default_design(),
            samples,
            SmoothingConfig.from_scenario(easy_scenario),
            easy_scenario,
        )
        total = sum(problem_constants(easy_scenario).counts)
        assert obj == pytest.approx(50 * total, rel=1e-6)

    def test_selective_window_counts_one_of_two(self, one_scenario):
        """Split chosen between two draws' upload times: one passes, one fails."""
        samples = ScenarioSamples.generate(one_scenario, 2, 8)
        design = one_scenario.default_design()
        t_up, t_dn = sample_delays(design, samples, one_scenario)
        lo, hi = np.sort(t_up[:, 0])
        assert hi - lo > 5e-3, "draws too close together for a clean split"
        beta = (lo + hi) / 2.0 / one_scenario.round_time_s
        assert t_dn.max() < (1.0 - beta) * one_scenario.round_time_s - 5e-3
        picked = replace_beta(design, beta)
        sharp = SmoothingConfig(c_bar=2000.0, delay_scale=0.1, energy_scale=7000.0)
        obj = smoothed_objective(picked, samples, sharp, one_scenario)
        n_1 = problem_constants(one_scenario).counts[0]
        assert obj == pytest.approx(float(n_1), abs=1e-6 * n_1)

    def test_widening_window_helps(self, one_scenario, one_samples):
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        design = one_scenario.default_design()
        narrow = smoothed_objective(replace_beta(design, 0.05), one_samples, smoothing, one_scenario)
        wide = smoothed_objective(replace_beta(design, 0.4), one_samples, smoothing, one_scenario)
        assert wide > narrow


def replace_beta(design: DesignVector, beta: float) -> DesignVector:
    return DesignVector(p=design.p, p_leader=design.p_leader, beta=float(beta), v=design.v)


class TestSmoothedConstraints:
    def test_row_count(self, default_scenario, default_samples):
        rows = smoothed_constraints(
            default_scenario.default_design(),
            default_samples,
            SmoothingConfig.from_scenario(default_scenario),
            default_scenario,
            default_scenario.energy_budget,
            default_scenario.control,
        )
        assert rows.shape == (2 * default_scenario.n_followers + 1,)

    def test_relaxed_limits(self, default_scenario, default_samples):
        """Infinite budgets and deadlines: every row tends to K*(1 - xi)."""
        budgets = EnergyBudget(e_bar=1e12, xi_leader=0.9, xi_follower=0.9)
        control = ControlRequirements(
            tau=(10.0,) * default_scenario.n_followers, xi_control=0.9
        )
        rows = smoothed_constraints(
            default_scenario.default_design(),
            default_samples,
            SmoothingConfig(c_bar=50.0, delay_scale=0.1, energy_scale=7000.0),
            default_scenario,
            budgets,
            control,
        )
        k = default_samples.k
        assert rows == pytest.approx(np.full_like(rows, 0.1 * k), rel=1e-9)

    def test_exhausted_budget_limits(self, default_scenario, default_samples):
        """Zero energy: energy rows collapse to -K*xi, deadlines unaffected."""
        budgets = EnergyBudget(e_bar=0.0, xi_leader=0.9, xi_follower=0.9)
        rows = smoothed_constraints(
            default_scenario.default_design(),
            default_samples,
            SmoothingConfig(c_bar=50.0, delay_scale=0.1, energy_scale=7000.0),
            default_scenario,
            budgets,
            default_scenario.control,
        )
        k = default_samples.k
        n = default_scenario.n_followers
        assert rows[: n + 1] == pytest.approx(np.full(n + 1, -0.9 * k), abs=0.05 * k)

    def test_no_participation_violates_energy_rows(self, default_scenario):
        """Powers so low that nobody ever lands: the smoothed rho is 0, so no
        finite round count exists and every energy row must read -K*xi, not
        its maximum slack K*(1 - xi)."""
        samples = ScenarioSamples.generate(default_scenario, 200, 5)
        design = DesignVector(
            p=np.full(default_scenario.n_followers, 1e-12), p_leader=1e-12, beta=0.35, v=12.0
        )
        budgets = default_scenario.energy_budget
        rows = smoothed_constraints(
            design,
            samples,
            SmoothingConfig.from_scenario(default_scenario),
            default_scenario,
            budgets,
            default_scenario.control,
        )
        n = default_scenario.n_followers
        assert rows[0] == pytest.approx(-200 * budgets.xi_leader, abs=1e-9)
        assert rows[1 : n + 1] == pytest.approx(np.full(n, -200 * budgets.xi_follower), abs=1e-9)
        assert np.all(rows[n + 1 :] < 0.0)


class TestUnsmoothedFeasibility:
    def test_default_design_feasible(self, default_scenario, default_samples):
        feasible, margins, phi = unsmoothed_feasibility(
            default_scenario.default_design(),
            default_samples,
            default_scenario,
            default_scenario.energy_budget,
            default_scenario.control,
        )
        assert feasible
        assert np.all(margins >= 0.0)
        assert phi == 61

    def test_no_success_anywhere(self, default_scenario, default_samples):
        """Window too short for every draw: no prediction, outright infeasible."""
        starved = replace_beta(default_scenario.default_design(), 1e-3)
        feasible, margins, phi = unsmoothed_feasibility(
            starved,
            default_samples,
            default_scenario,
            default_scenario.energy_budget,
            default_scenario.control,
        )
        assert not feasible
        assert phi is None
        assert np.all(margins == -1.0)

    def test_tight_budget_infeasible(self, default_scenario, default_samples):
        budgets = EnergyBudget(e_bar=1.0, xi_leader=0.9, xi_follower=0.9)
        feasible, margins, phi = unsmoothed_feasibility(
            default_scenario.default_design(),
            default_samples,
            default_scenario,
            budgets,
            default_scenario.control,
        )
        assert not feasible
        assert phi is not None and phi > 0
        assert margins.min() < 0.0


class TestLagrangian:
    def test_zero_multipliers_recover_objective(self, one_scenario, one_samples):
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        design = one_scenario.default_design()
        lag = lagrangian(
            design, np.zeros(3), one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
        )
        obj = smoothed_objective(design, one_samples, smoothing, one_scenario)
        assert lag == pytest.approx(obj, rel=1e-14)

    def test_affine_in_multipliers(self, one_scenario, one_samples):
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        design = one_scenario.default_design()
        args = (one_samples, smoothing, one_scenario,
                one_scenario.energy_budget, one_scenario.control)
        lam = np.array([0.3, 1.2, 0.7])
        j0 = lagrangian(design, np.zeros(3), *args)
        j1 = lagrangian(design, lam, *args)
        j2 = lagrangian(design, 2.0 * lam, *args)
        assert j2 - j0 == pytest.approx(2.0 * (j1 - j0), rel=1e-9)

    def test_matches_objective_plus_weighted_rows(self, one_scenario, one_samples):
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        design = one_scenario.default_design()
        lam = np.array([0.5, 0.25, 2.0])
        rows = smoothed_constraints(
            design, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
        )
        obj = smoothed_objective(design, one_samples, smoothing, one_scenario)
        lag = lagrangian(
            design, lam, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
        )
        assert lag == pytest.approx(obj + lam @ rows, rel=1e-12)

    def test_negative_multipliers_rejected(self, one_scenario, one_samples):
        with pytest.raises(ValueError):
            lagrangian(
                one_scenario.default_design(), np.array([0.1, -0.1, 0.0]),
                one_samples, SmoothingConfig.from_scenario(one_scenario),
                one_scenario, one_scenario.energy_budget, one_scenario.control,
            )

    @pytest.mark.parametrize("lam, match", [
        ([0.1, -1.0, 0.0], "finite and nonnegative"),
        ([0.1, np.nan, 0.0], "finite and nonnegative"),
        ([0.1, np.inf, 0.0], "finite and nonnegative"),
        ([0.1, 0.2], r"shape \(3,\)"),
        ([[0.1, 0.2, 0.3]], r"shape \(3,\)"),
    ], ids=["negative", "nan", "inf", "short", "two-dimensional"])
    def test_bad_multipliers_rejected_by_both_entry_points(self, one_scenario, one_samples, lam, match):
        """One check guards lagrangian and inner_maximize: 2I+1 finite values >= 0."""
        args = (one_samples, SmoothingConfig.from_scenario(one_scenario), one_scenario,
                one_scenario.energy_budget, one_scenario.control)
        design = one_scenario.default_design()
        with pytest.raises(ValueError, match=match):
            lagrangian(design, np.array(lam), *args)
        with pytest.raises(ValueError, match=match):
            inner_maximize(np.array(lam), *args, design)


class TestInnerMaximize:
    def test_never_worse_than_start(self, one_scenario, one_samples):
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        lam = np.full(3, 0.5)
        init = one_scenario.default_design()
        start = lagrangian(
            init, lam, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
        )
        _, value = inner_maximize(
            lam, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control, init,
        )
        assert value >= start - 1e-12 * abs(start)

    def test_flat_coordinate_left_alone(self, one_scenario, one_samples):
        """The objective ignores speed, so with zero multipliers v stays put."""
        best, _ = inner_maximize(
            np.zeros(3), one_samples, SmoothingConfig.from_scenario(one_scenario),
            one_scenario, one_scenario.energy_budget, one_scenario.control,
            one_scenario.default_design(),
        )
        assert best.v == one_scenario.default_design().v

    def test_no_better_point_along_any_coordinate(self, one_scenario, one_samples):
        """Dense line scans through the returned point cannot beat it."""
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        lam = np.full(3, 0.5)
        args = (one_samples, smoothing, one_scenario,
                one_scenario.energy_budget, one_scenario.control)
        best, value = inner_maximize(lam, *args, one_scenario.default_design())
        flat = best.as_flat()
        bounds = [
            (1e-4 * one_scenario.p_max, one_scenario.p_max),
            (1e-4 * one_scenario.p_max, one_scenario.p_max),
            (1e-3, 1.0 - 1e-3),
            (1e-2, one_scenario.flight.v_max),
        ]
        for idx, (lo, hi) in enumerate(bounds):
            line_best = -np.inf
            for x in np.linspace(lo, hi, 81):
                trial = flat.copy()
                trial[idx] = x
                cand = lagrangian(DesignVector.from_flat(trial, 1), lam, *args)
                line_best = max(line_best, cand)
            assert value >= line_best - 1e-6 * max(abs(value), 1.0)

    def test_deterministic(self, one_scenario, one_samples):
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        lam = np.array([1.0, 0.2, 0.8])
        args = (one_samples, smoothing, one_scenario,
                one_scenario.energy_budget, one_scenario.control,
                one_scenario.default_design())
        a, ja = inner_maximize(lam, *args)
        b, jb = inner_maximize(lam, *args)
        assert np.array_equal(a.as_flat(), b.as_flat())
        assert ja == jb

    def test_subgradient_is_residual_at_maximizer(self, one_scenario, one_samples):
        """The Lagrangian is affine in lambda with the residuals as slope, so the
        residuals at the inner maximizer are a subgradient of the dual there."""
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        lam = np.full(3, 0.5)
        args = (one_samples, smoothing, one_scenario, one_scenario.energy_budget, one_scenario.control)
        best, _ = inner_maximize(lam, *args, one_scenario.default_design())
        rows = smoothed_constraints(best, *args)
        obj = smoothed_objective(best, one_samples, smoothing, one_scenario)
        for shift in (np.zeros(3), np.array([1.0, 0.0, 2.0])):
            want = obj + float((lam + shift) @ rows)
            assert lagrangian(best, lam + shift, *args) == pytest.approx(want, rel=1e-12)


def scipy_fminbound(func, lo, hi, xatol, maxfun=500):
    """_fminbound's reference: scipy's bounded minimize_scalar, as (x, f)."""
    res = minimize_scalar(
        func, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
    )
    return float(res.x), float(res.fun)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def bounded_problems(draw):
    """(func, lo, hi, xatol): a smooth unimodal, flat, step (with ties) or
    partly-NaN function over an interval that may have zero width."""
    lo = draw(st.floats(-1e3, 1e3))
    width = draw(st.one_of(st.just(0.0), st.floats(1e-9, 1e3)))
    hi = lo + width
    xatol = draw(st.one_of(st.floats(1e-12, 1.0), st.floats(0.0, 10.0)))
    centre = draw(st.floats(lo - width, hi + width))
    scale = draw(st.floats(1e-3, 1e3))
    power = draw(st.floats(0.5, 4.0))
    level = draw(st.floats(-1e3, 1e3))
    step = draw(st.floats(1e-4 * max(width, 1e-9), max(width, 1e-9)))
    kind = draw(st.sampled_from(["smooth", "flat", "steps", "nan"]))
    if kind == "smooth":
        return (lambda x: scale * abs(x - centre) ** power + level), lo, hi, xatol
    if kind == "flat":
        return (lambda x: level), lo, hi, xatol
    if kind == "steps":
        return (lambda x: level + scale * math.floor(abs(x - centre) / step)), lo, hi, xatol
    hole = draw(st.floats(lo, hi))

    def partly_nan(x):
        return math.nan if hole <= x <= hole + step else scale * abs(x - centre) ** power

    return partly_nan, lo, hi, xatol


class TestFminbound:
    """_fminbound against scipy's bounded minimize_scalar, which it ports."""

    @settings(max_examples=400, deadline=None)
    @given(problem=bounded_problems())
    def test_equals_scipy_bit_for_bit(self, problem):
        func, lo, hi, xatol = problem
        got = _fminbound(func, lo, hi, xatol)
        want = scipy_fminbound(func, lo, hi, xatol)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @pytest.mark.parametrize("func, lo, hi", [
        (abs, -1.0, 1.0),
        (abs, -1.0, 2.0),
        (lambda x: abs(x) ** 0.5, -1.0, 3.0),
    ])
    def test_evaluation_cap(self, func, lo, hi):
        """An xatol far below the spacing of floats near the minimum runs
        into the cap of 500 evaluations, where both searches stop."""
        calls = []

        def counted(x):
            calls.append(x)
            return func(x)

        got = _fminbound(counted, lo, hi, 1e-300)
        assert len(calls) == 500
        want = scipy_fminbound(func, lo, hi, 1e-300)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_zero_width_interval_evaluates_once(self):
        calls = []
        assert _fminbound(lambda x: calls.append(x) or 2.0 * x, 0.25, 0.25, 1e-5) == (0.25, 0.5)
        assert calls == [0.25]

    @pytest.mark.parametrize("method", ["subgradient", "ellipsoid"])
    def test_solve_matches_scipy_search(self, small_scenario, monkeypatch, method):
        import swarmfl.saa as saa

        # a budget tight enough that the energy rows bind and lambda moves
        tight = replace(small_scenario, energy_budget=EnergyBudget(e_bar=200.0))
        runs = [solve(with_max_iters(tight, 8), method=method)]
        monkeypatch.setattr(saa, "_fminbound", scipy_fminbound)
        runs.append(solve(with_max_iters(tight, 8), method=method))
        (d1, r1, rep1), (d2, r2, rep2) = runs
        assert np.array_equal(d1.as_flat(), d2.as_flat()) and r1 == r2
        assert rep1.lagrangian_evals == rep2.lagrangian_evals
        assert rep1.stop_reason == rep2.stop_reason
        assert len(rep1.iterations) == len(rep2.iterations)
        for row1, row2 in zip(rep1.iterations, rep2.iterations):
            assert row1.keys() == row2.keys()
            for key in row1:
                assert np.array_equal(row1[key], row2[key]), key


class TestCoordinateLagrangian:
    """The per-coordinate evaluator inner_maximize searches with."""

    @pytest.fixture(scope="class")
    def evaluator_case(self, default_scenario, default_samples):
        from swarmfl.saa import _CoordinateLagrangian

        rng = np.random.default_rng(2024)
        lam = rng.uniform(0.0, 5.0, 2 * default_scenario.n_followers + 1)
        constants = problem_constants(default_scenario)
        args = (default_samples, SmoothingConfig.from_scenario(default_scenario),
                default_scenario, default_scenario.energy_budget, default_scenario.control)
        evaluator = _CoordinateLagrangian(lam, *args, constants)
        return evaluator, lam, args, constants

    def test_value_equals_lagrangian_exactly(self, default_scenario, evaluator_case):
        evaluator, lam, args, constants = evaluator_case
        n = default_scenario.n_followers
        p_lo, p_max = 1e-4 * default_scenario.p_max, default_scenario.p_max
        base = np.concatenate([np.linspace(0.1, 0.4, n), [0.3, 0.45, 7.0]])
        trials = {idx: [p_lo, 0.5 * p_max, p_max] for idx in range(n + 1)}
        trials[n + 1] = [1e-3, 0.2, 0.5, 0.8, 1.0 - 1e-3]
        trials[n + 2] = [1e-2, 11.0, default_scenario.flight.v_max]
        evaluator.rebuild(base)
        assert evaluator.value() == lagrangian(
            DesignVector.from_flat(base, n), lam, *args, constants
        )
        for idx, xs in trials.items():
            for x in xs:
                flat = base.copy()
                flat[idx] = x
                want = lagrangian(DesignVector.from_flat(flat, n), lam, *args, constants)
                assert evaluator.value(idx, x) == want, (idx, x)

    def test_rebuild_moves_the_base(self, default_scenario, evaluator_case):
        evaluator, lam, args, constants = evaluator_case
        n = default_scenario.n_followers
        flat = default_scenario.default_design().as_flat()
        flat[2] = 0.05
        flat[n + 1] = 0.7
        evaluator.rebuild(flat)
        want = lagrangian(DesignVector.from_flat(flat, n), lam, *args, constants)
        assert evaluator.value() == want
        assert evaluator.value(n + 2, flat[n + 2]) == want

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        k=st.sampled_from([1, 2, 3, 17, 64]),
        sectionalized=st.booleans(),
        e_bar=st.sampled_from([350.0, 510.0, 7000.0]),
        lam=st.lists(st.floats(0.0, 1e7), min_size=11, max_size=11),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.integers(0, 7), st.floats(0.0, 1.0), st.booleans()),
            min_size=1, max_size=12,
        ),
    )
    def test_trials_equal_lagrangian_bit_for_bit(self, default_scenario, n, k, sectionalized,
                                                 e_bar, lam, seed, steps):
        """Any mix of trials and rebuilds: each trial equals lagrangian() at the
        trial design under ==, and the base value never moves between rebuilds.
        Budgets of 350 and 510 J keep the energy sigmoids off their plateau."""
        from swarmfl.saa import _coordinate_bounds, _CoordinateLagrangian

        scenario = replace(
            default_scenario,
            n_followers=n,
            distances=tuple(np.linspace(50.0, 80.0, n)),
            control=ControlRequirements(tau=(0.05,) * n),
            use_sectionalized_gain=sectionalized,
            energy_budget=EnergyBudget(e_bar=e_bar),
        ).require_valid()
        lam = np.array(lam[: 2 * n + 1])
        constants = problem_constants(scenario)
        args = (ScenarioSamples.generate(scenario, k, seed), SmoothingConfig.from_scenario(scenario),
                scenario, scenario.energy_budget, scenario.control)
        bounds = _coordinate_bounds(scenario, n)
        rng = np.random.default_rng(seed)
        flat = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
        evaluator = _CoordinateLagrangian(lam, *args, constants)
        evaluator.rebuild(flat)
        base = lagrangian(DesignVector.from_flat(flat, n), lam, *args, constants)
        assert evaluator.value() == base
        for pick, u, accept in steps:
            idx = pick % (n + 3)
            lo, hi = bounds[idx]
            x = lo + u * (hi - lo)
            trial = flat.copy()
            trial[idx] = x
            want = lagrangian(DesignVector.from_flat(trial, n), lam, *args, constants)
            if accept:
                flat = trial
                evaluator.rebuild(flat)
                base = want
            else:
                assert evaluator.value(idx, x) == want, (idx, x)
            assert evaluator.value() == base

    def test_inner_maximize_never_calls_lagrangian(self, one_scenario, one_samples, monkeypatch):
        import swarmfl.saa as saa

        def forbidden(*args, **kwargs):
            raise AssertionError("inner_maximize must evaluate through its evaluator")

        monkeypatch.setattr(saa, "lagrangian", forbidden)
        report = saa.SolveReport()
        _, value = inner_maximize(
            np.full(3, 0.5), one_samples, SmoothingConfig.from_scenario(one_scenario),
            one_scenario, one_scenario.energy_budget, one_scenario.control,
            one_scenario.default_design(), report=report,
        )
        assert np.isfinite(value)
        assert report.lagrangian_evals > 0


class TestSolve:
    @pytest.mark.parametrize("method", ["subgradient", "ellipsoid"])
    def test_dual_loop_reads_the_evaluator(self, small_scenario, monkeypatch, method):
        """Residuals and the smoothed objective come off the evaluator rebuilt at
        each inner maximizer, never from a second evaluation path."""
        import swarmfl.saa as saa

        def forbidden(*args, **kwargs):
            raise AssertionError("the dual loop must read its evaluator")

        monkeypatch.setattr(saa, "smoothed_constraints", forbidden)
        monkeypatch.setattr(saa, "smoothed_objective", forbidden)
        _, _, report = solve(with_max_iters(small_scenario, 3), method=method)
        assert report.feasible
        assert len(report.iterations) >= 1

    def test_small_scenario_end_to_end(self, small_scenario):
        design, rounds, report = solve(with_max_iters(small_scenario, 12))
        assert report.feasible
        assert np.all(report.margins >= 0.0)
        assert rounds >= 1
        assert design.validate(small_scenario.p_max, small_scenario.flight.v_max) == []
        assert np.all(report.success_probs > 0.0)

    def test_deterministic_reruns(self, small_scenario):
        d1, r1, rep1 = solve(with_max_iters(small_scenario, 12))
        d2, r2, rep2 = solve(with_max_iters(small_scenario, 12))
        assert np.array_equal(d1.as_flat(), d2.as_flat())
        assert r1 == r2
        assert np.array_equal(rep1.dual_trace(), rep2.dual_trace())

    def test_weak_duality(self, small_scenario):
        """Every dual value bounds the smoothed objective of the answer."""
        from swarmfl.seeds import derive_seed

        design, _, report = solve(with_max_iters(small_scenario, 12))
        samples = ScenarioSamples.generate(
            small_scenario, small_scenario.saa.samples_k,
            derive_seed(small_scenario.base_seed, "saa-samples"),
        )
        obj = smoothed_objective(
            design, samples, SmoothingConfig.from_scenario(small_scenario), small_scenario
        )
        assert report.dual_trace().min() >= obj - 0.05 * abs(obj)

    def test_starved_budget_raises(self, small_scenario):
        starved = replace(small_scenario, energy_budget=EnergyBudget(e_bar=1e-6, xi_leader=0.9, xi_follower=0.9))
        with pytest.raises(NoFeasibleDesignError):
            solve(with_max_iters(starved, 3))

    def test_ellipsoid_variant(self, small_scenario):
        design, rounds, report = solve(with_max_iters(small_scenario, 8), method="ellipsoid")
        assert report.method == "ellipsoid"
        assert report.feasible
        assert design.validate(small_scenario.p_max, small_scenario.flight.v_max) == []

    def test_ellipsoid_descends_the_dual(self, default_scenario):
        _, rounds, report = solve(with_max_iters(default_scenario, 5), method="ellipsoid")
        trace = report.dual_trace()
        assert trace[-1] < trace[0]
        assert all(row["inner_cycles"] >= 1 for row in report.iterations)
        assert report.feasible
        assert rounds == 59

    def test_report_counts_work_and_stop_reason(self, default_scenario, monkeypatch):
        import swarmfl.saa as saa

        calls = []
        value = saa._CoordinateLagrangian.value

        def counted(self, *args):
            calls.append(1)
            return value(self, *args)

        monkeypatch.setattr(saa._CoordinateLagrangian, "value", counted)
        # every constraint is slack at lambda = 0: stationary at iteration 2
        _, _, slack = solve(default_scenario)
        assert (slack.stop_reason, len(slack.iterations)) == ("stationary", 2)
        assert slack.lagrangian_evals == len(calls) > 0
        # the second inner maximization restarts at the first one's answer, same lambda
        assert [row["inner_cycles"] for row in slack.iterations] == [2, 1]
        assert set(slack.iterations[0]) == {"iteration", "dual_value", "lambda", "residuals",
                                            "inner_cycles"}
        # the design-solve budget: the energy rows bind and lambda moves
        calls.clear()
        binding = replace(default_scenario, energy_budget=EnergyBudget(e_bar=510.0))
        _, _, bound = solve(binding)
        assert bound.stop_reason == "stationary"
        assert len(bound.iterations) > 2
        assert max(np.linalg.norm(row["lambda"]) for row in bound.iterations) > 0.0
        assert bound.lagrangian_evals == len(calls) > slack.lagrangian_evals
        # lambda = 0 at iteration 1 makes its inner problem the slack one
        cycles = [row["inner_cycles"] for row in bound.iterations]
        assert cycles[0] == 2
        assert all(1 <= c <= default_scenario.saa.max_cycles for c in cycles)
        _, _, capped = solve(with_max_iters(binding, 3))
        assert capped.stop_reason == "max_iters"

    def test_unknown_method(self, small_scenario):
        with pytest.raises(ValueError):
            solve(with_max_iters(small_scenario, 2), method="newton")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed(self, small_scenario, monkeypatch, seed):
        """A seed outside [0, 2**64) is rejected before anything is drawn, not
        wrapped onto another seed."""
        import swarmfl.saa as saa

        def forbidden(*args, **kwargs):
            raise AssertionError("solve drew samples for an out-of-range seed")

        monkeypatch.setattr(saa, "derive_seed", forbidden)
        with pytest.raises(ValueError, match=r"rng_seed must be in \[0, 2\*\*64\)"):
            solve(small_scenario, rng_seed=seed)


class TestBaselines:
    def test_power_only_keeps_powers(self, default_scenario):
        joint = default_scenario.default_design()
        base = baseline_design("power-only", joint, default_scenario, rng_seed=4)
        assert np.array_equal(base.p, joint.p)
        assert base.p is not joint.p
        assert base.p_leader == joint.p_leader
        assert base.v == joint.v
        assert 0.0 < base.beta < 1.0
        assert base.beta != joint.beta

    def test_scheduling_only_keeps_split(self, default_scenario):
        joint = default_scenario.default_design()
        base = baseline_design("scheduling-only", joint, default_scenario, rng_seed=4)
        assert base.beta == joint.beta
        assert base.v == joint.v
        assert np.all(base.p > 0.0) and np.all(base.p <= default_scenario.p_max)
        assert 0.0 < base.p_leader <= default_scenario.p_max
        assert not np.array_equal(base.p, joint.p)

    def test_seeded_draws_repeat(self, default_scenario):
        joint = default_scenario.default_design()
        a = baseline_design("scheduling-only", joint, default_scenario, rng_seed=9)
        b = baseline_design("scheduling-only", joint, default_scenario, rng_seed=9)
        c = baseline_design("scheduling-only", joint, default_scenario, rng_seed=10)
        assert np.array_equal(a.as_flat(), b.as_flat())
        assert not np.array_equal(a.as_flat(), c.as_flat())

    def test_unknown_kind(self, default_scenario):
        with pytest.raises(ValueError):
            baseline_design("antenna-only", default_scenario.default_design(),
                            default_scenario, rng_seed=0)


class TestColumnSums:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2500), i=st.integers(1, 6),
           scale=st.sampled_from([1.0, 1e-9, 1e9]))
    def test_equal_to_numpy_sum_over_rows(self, seed, k, i, scale):
        from swarmfl.saa import _column_sums

        a = scale * np.random.default_rng(seed).standard_normal((k, i))
        assert np.array_equal(_column_sums(a), a.sum(axis=0))


class TestProblemConstants:
    def test_cached_identity(self, default_scenario):
        assert problem_constants(default_scenario) is problem_constants(default_scenario)

    def test_values(self, default_scenario, default_problem):
        _, model = default_problem
        consts = problem_constants(default_scenario)
        assert consts.mu == pytest.approx(model.strong_mu)
        assert consts.lipschitz_u == pytest.approx(model.lipschitz_u)
        assert sum(consts.counts) == 200
        assert consts.initial_loss_sum == pytest.approx(model.total_loss_sum(np.zeros(model.dim)))
        assert consts.model is problem_constants(replace(default_scenario, p_max=0.3)).model

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40),
           scale=st.sampled_from([1.0, 1e-3, 1e-12, 0.0]))
    def test_constraint_rows_use_the_predictors_speed(self, default_scenario, seed, k, scale):
        """The energy rows charge phi from rho = speed(both.mean(axis=0)), bit for bit."""
        rng = np.random.default_rng(seed)
        n = default_scenario.n_followers
        both, t_up = scale * rng.random((k, n)), rng.uniform(0.0, 0.05, (k, n))
        problem = problem_constants(default_scenario)
        counts, mean = np.asarray(problem.counts, dtype=float), both.mean(axis=0)
        inline = float((counts * mean).sum()) * problem.mu / (counts.sum() * problem.lipschitz_u)
        assert problem.speed(mean) == inline

        design, budgets = default_scenario.default_design(), default_scenario.energy_budget
        smoothing, control_rows = SmoothingConfig.from_scenario(default_scenario), rng.random(n)
        e_leader, e_followers = round_energies(design, t_up, default_scenario)
        rows = _rows(_column_sums(both), e_leader, e_followers, control_rows, smoothing,
                     default_scenario, budgets, problem, out=np.empty((k, n)))
        log_decay = np.log(1.0 - min(problem.speed(mean), 1.0 - 1e-12))
        eps_sum = default_scenario.saa.epsilon_opt_frac * problem.initial_loss_sum
        phi = np.log(eps_sum / problem.initial_loss_sum) / log_decay if log_decay < 0.0 else np.inf
        c_bar, e_scale, e_bar = smoothing.c_bar, smoothing.energy_scale, budgets.e_bar
        leader = k * gamma_sigmoid(e_bar - phi * e_leader, c_bar, e_scale) - k * budgets.xi_leader
        followers = (gamma_sigmoid(e_bar - phi * e_followers, c_bar, e_scale).sum(axis=0)
                     - k * budgets.xi_follower)
        assert np.array_equal(rows, np.concatenate([[leader], followers, control_rows]))
