"""Closed-form round prediction from link success probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmfl.convergence import ROUND_CAP, TrainingProblem, convergence_round


def problem(counts, mu, u, s0):
    return TrainingProblem(counts=np.asarray(counts, dtype=float), mu=mu, lipschitz_u=u, initial_loss_sum=s0)


class TestSpeed:
    def test_perfect_links_hit_curvature_ratio(self):
        got = problem([5, 5, 5], 0.4, 2.0, 10.0).speed([1, 1, 1])
        assert got == pytest.approx(0.2, rel=1e-12)

    def test_dead_links_make_zero_speed(self):
        got = problem([5, 5], 0.4, 2.0, 10.0).speed([0, 0])
        assert got == 0.0

    def test_weighted_two_follower_value(self):
        # (10*0.5 + 30*1.0)/40 * 0.2 = 0.175
        got = problem([10, 30], 0.2, 1.0, 10.0).speed([0.5, 1.0])
        assert got == pytest.approx(0.175, rel=1e-12)

    def test_speed_within_bounds(self, rng):
        for _ in range(50):
            p = rng.uniform(0, 1, size=4)
            counts = rng.integers(1, 50, size=4)
            mu, u = 0.3, 2.0
            rho = problem(counts, mu, u, 10.0).speed(p)
            assert 0.0 <= rho <= mu / u + 1e-12


class TestRound:
    def test_exact_power_of_base(self):
        # ratio 0.25 with contraction 0.5 per round needs exactly 2 rounds
        got = problem([10], 1.0, 2.0, 1.0).predicted_round([1.0], 0.25)
        assert got == 2

    def test_target_equal_to_start_needs_no_rounds(self):
        got = problem([10], 1.0, 2.0, 5.0).predicted_round([0.5], 5.0)
        assert got == 0

    def test_log_arithmetic_value(self):
        # speed 0.1, ratio 0.01: ceil(log(0.01)/log(0.9)) = ceil(43.708) = 44
        got = problem([10], 0.1, 1.0, 1.0).predicted_round([1.0], 0.01)
        assert math.ceil(math.log(0.01) / math.log(0.9)) == 44
        assert got == 44

    def test_loose_target_clamps_at_zero(self):
        got = problem([10], 0.5, 1.0, 5.0).predicted_round([1.0], 9.0)
        assert got == 0

    def test_zero_speed_rejected(self):
        zero = problem([5, 5], 0.4, 2.0, 10.0)
        with pytest.raises(ValueError, match="participat"):
            convergence_round(zero.speed([0.0, 0.0]), 1.0, 10.0)
        assert zero.predicted_round([0.0, 0.0], 1.0) == ROUND_CAP

    def test_unit_speed_rejected(self):
        unit = problem([10], 1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            convergence_round(unit.speed([1.0]), 0.5, 10.0)
        assert unit.predicted_round([1.0], 0.5) == 1

    def test_monotone_in_target_and_probs(self):
        base = problem([10, 10], 0.3, 2.0, 10.0)
        rounds_by_eps = [base.predicted_round([0.9, 0.8], e) for e in (0.5, 1.0, 2.0, 4.0)]
        assert rounds_by_eps == sorted(rounds_by_eps, reverse=True)
        rounds_by_p = [base.predicted_round([p, p], 0.5) for p in (0.2, 0.5, 0.8, 1.0)]
        assert rounds_by_p == sorted(rounds_by_p, reverse=True)

    def test_monotone_in_curvature(self):
        by_mu = [problem([10], mu, 2.0, 10.0).predicted_round([0.9], 0.5) for mu in (0.1, 0.2, 0.4, 0.8)]
        assert by_mu == sorted(by_mu, reverse=True)
        by_u = [problem([10], 0.1, u, 10.0).predicted_round([0.9], 0.5) for u in (0.5, 1.0, 2.0, 4.0)]
        assert by_u == sorted(by_u)


class TestInputValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            problem([10], 0.5, 1.0, 10.0).speed([1.2])
        with pytest.raises(ValueError):
            problem([10], 0.5, 1.0, 10.0).predicted_round([0.5, 0.5], 1.0)

    @pytest.mark.parametrize(
        "probs", [[1.2, 0.5], [-0.1, 0.5], [np.nan, 0.5], [0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]]
    )
    def test_public_entry_points_check_what_the_unchecked_core_skips(self, probs):
        """speed and predicted_round reject bad shapes and values; _speed (the hot-loop core) equals speed."""
        prob = problem([10, 30], 0.5, 1.0, 10.0)
        with pytest.raises(ValueError, match=r"\[0, 1\], shape \(2,\)"):
            prob.speed(probs)
        with pytest.raises(ValueError, match=r"\[0, 1\], shape \(2,\)"):
            prob.predicted_round(probs, 1.0)
        good = np.array([0.25, 0.75])
        assert prob._speed(good) == prob.speed(good)

    def test_bad_curvature_order(self):
        with pytest.raises(ValueError):
            problem([10], 2.0, 1.0, 10.0)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            problem([10], 0.5, 1.0, 10.0).predicted_round([0.5], 0.0)

    def test_bad_initial_loss(self):
        with pytest.raises(ValueError):
            problem([10], 0.5, 1.0, -3.0)


# a problem with 1..5 followers, its probabilities, and a loss target below s0
cases = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 60), min_size=n, max_size=n),
        st.floats(0.01, 1.0),  # mu / U
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        st.floats(1e-6, 0.99),  # eps_sum / s0
    )
)


class TestPredictorProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=cases, follower=st.integers(0, 4), rise=st.floats(0.0, 1.0), eps_rise=st.floats(1.0, 10.0))
    def test_never_increases_as_probability_or_target_rises(self, case, follower, rise, eps_rise):
        counts, ratio, probs, eps_frac = case
        prob = problem(counts, ratio * 2.0, 2.0, 50.0)
        base = prob.predicted_round(probs, eps_frac * 50.0)
        higher = list(probs)
        i = follower % len(probs)
        higher[i] = min(1.0, higher[i] + rise)
        assert prob.predicted_round(higher, eps_frac * 50.0) <= base
        assert prob.predicted_round(probs, eps_frac * 50.0 * eps_rise) <= base

    @settings(max_examples=200, deadline=None)
    @given(case=cases)
    def test_cap_exactly_when_nobody_participates(self, case):
        counts, ratio, probs, eps_frac = case
        prob = problem(counts, ratio * 2.0, 2.0, 50.0)
        assert prob.predicted_round(np.zeros(len(counts)), eps_frac * 50.0) == ROUND_CAP
        rho = prob.speed(probs)
        if 0.0 < 1.0 - rho < 1.0:  # anyone participates: the capped closed form
            uncapped = convergence_round(rho, eps_frac * 50.0, 50.0)
            assert prob.predicted_round(probs, eps_frac * 50.0) == min(uncapped, ROUND_CAP)
