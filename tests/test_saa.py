"""Design optimizer: smoothing, sampled constraints, dual ascent, baselines."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import expit

from swarmfl.design import DesignVector
from swarmfl.energy import ControlRequirements, EnergyBudget
from swarmfl.saa import (
    NoFeasibleDesignError,
    ScenarioSamples,
    SmoothingConfig,
    baseline_design,
    dual_subgradient,
    gamma_sigmoid,
    inner_maximize,
    lagrangian,
    problem_constants,
    sample_delays,
    smoothed_constraints,
    smoothed_objective,
    smoothed_success_probs,
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
        smoothing = SmoothingConfig.from_scenario(one_scenario)
        lam = np.full(3, 0.5)
        best, _ = inner_maximize(
            lam, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
            one_scenario.default_design(),
        )
        sub = dual_subgradient(
            lam, best, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
        )
        rows = smoothed_constraints(
            best, one_samples, smoothing, one_scenario,
            one_scenario.energy_budget, one_scenario.control,
        )
        assert np.array_equal(sub, rows)


class TestSolve:
    def test_small_scenario_end_to_end(self, small_scenario):
        design, rounds, report = solve(small_scenario, max_iters=12)
        assert report.feasible
        assert np.all(report.margins >= 0.0)
        assert rounds >= 1
        assert design.validate(small_scenario.p_max, small_scenario.flight.v_max) == []
        assert np.all(report.success_probs > 0.0)

    def test_deterministic_reruns(self, small_scenario):
        d1, r1, rep1 = solve(small_scenario, max_iters=12)
        d2, r2, rep2 = solve(small_scenario, max_iters=12)
        assert np.array_equal(d1.as_flat(), d2.as_flat())
        assert r1 == r2
        assert np.array_equal(rep1.dual_trace(), rep2.dual_trace())

    def test_weak_duality(self, small_scenario):
        """Every dual value bounds the smoothed objective of the answer."""
        from swarmfl.seeds import derive_seed

        design, _, report = solve(small_scenario, max_iters=12)
        samples = ScenarioSamples.generate(
            small_scenario, small_scenario.saa.samples_k,
            derive_seed(small_scenario.base_seed, "saa-samples"),
        )
        obj = smoothed_objective(
            design, samples, SmoothingConfig.from_scenario(small_scenario), small_scenario
        )
        assert report.dual_trace().min() >= obj - 0.05 * abs(obj)

    def test_starved_budget_raises(self, small_scenario):
        budgets = EnergyBudget(e_bar=1e-6, xi_leader=0.9, xi_follower=0.9)
        with pytest.raises(NoFeasibleDesignError):
            solve(small_scenario, budgets=budgets, max_iters=3)

    def test_ellipsoid_variant(self, small_scenario):
        design, rounds, report = solve(small_scenario, max_iters=8, method="ellipsoid")
        assert report.method == "ellipsoid"
        assert report.feasible
        assert design.validate(small_scenario.p_max, small_scenario.flight.v_max) == []

    def test_unknown_method(self, small_scenario):
        with pytest.raises(ValueError):
            solve(small_scenario, max_iters=2, method="newton")


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


class TestProblemConstants:
    def test_cached_identity(self, default_scenario):
        assert problem_constants(default_scenario) is problem_constants(default_scenario)

    def test_values(self, default_scenario, default_problem):
        _, model = default_problem
        consts = problem_constants(default_scenario)
        assert consts.mu == pytest.approx(model.strong_mu)
        assert consts.lipschitz_u == pytest.approx(model.lipschitz_u)
        assert sum(consts.counts) == 200
        assert consts.epsilon_sum == pytest.approx(0.05 * consts.initial_loss_sum)
