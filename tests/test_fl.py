"""Federated training engine: loss model, local steps, aggregation, staleness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmfl.channel import draw_channel, link_delays, participation_masks, success_mask
from swarmfl.fl import (
    Dataset,
    QuadraticLossModel,
    aggregate_ideal,
    aggregate_with_losses,
    make_regression_problem,
    run_fl,
    train_round,
)


def local_update(w_ref, i, loss, lr):
    """Reference for train_round: follower i's local step from its newest received model."""
    if lr <= 0.0:
        raise ValueError("lr must be > 0")
    return w_ref - (lr / loss.counts[i]) * loss.follower_grad_sum(i, w_ref)


def constant_feature_problem():
    """Two followers, every sample x=1, y=1: the textbook scalar case."""
    feats = np.ones((20, 1))
    labels = np.ones(20)
    datasets = [Dataset(feats, labels), Dataset(feats, labels)]
    return datasets, QuadraticLossModel(datasets)


class TestQuadraticLossModel:
    def test_scalar_case_constants(self):
        _, model = constant_feature_problem()
        assert model.w_star == pytest.approx(np.array([1.0]))
        assert model.f_star == pytest.approx(0.0, abs=1e-24)
        assert model.strong_mu == pytest.approx(2.0, rel=1e-12)
        assert model.lipschitz_u == pytest.approx(2.0, rel=1e-12)

    def test_curvature_matches_independent_eigensolver(self):
        datasets, model = make_regression_problem(4, 30, 6, rng_seed=99, noise_std=0.2)
        pooled = sum(2.0 * d.features.T @ d.features for d in datasets)
        pooled /= sum(d.count for d in datasets)
        eigs = np.linalg.eigvalsh(pooled)
        assert model.strong_mu == pytest.approx(eigs[0], abs=1e-8)
        assert model.lipschitz_u == pytest.approx(eigs[-1], abs=1e-8)

    def test_optimum_dominates_random_points(self, rng):
        _, model = make_regression_problem(3, 25, 4, rng_seed=5, noise_std=0.5)
        for _ in range(100):
            w = model.w_star + rng.normal(size=model.dim)
            assert model.global_loss(w) >= model.f_star - 1e-12

    def test_global_grad_vanishes_at_optimum(self):
        _, model = make_regression_problem(3, 25, 4, rng_seed=5, noise_std=0.5)
        assert np.linalg.norm(model.global_grad(model.w_star)) < 1e-9

    def test_rank_deficient_features_rejected(self):
        feats = np.zeros((10, 3))
        feats[:, 0] = 1.0
        datasets = [Dataset(feats, np.ones(10))]
        with pytest.raises(ValueError, match="singular"):
            QuadraticLossModel(datasets)

    def test_gradient_diversity_constants(self):
        _, model = make_regression_problem(4, 30, 5, rng_seed=12, noise_std=0.3)
        assert model.zeta2 >= 1.0
        assert model.zeta1 >= 0.0
        # at the optimum the mixed term vanishes, so zeta1 alone must cover
        # the largest per-follower gradient
        worst = max(
            float(np.dot(g, g))
            for g in (model.follower_grad_sum(i, model.w_star) for i in range(4))
        )
        assert model.zeta1 >= worst - 1e-9

    def test_mismatched_dimensions_rejected(self):
        a = Dataset(np.ones((5, 2)), np.ones(5))
        b = Dataset(np.ones((5, 3)), np.ones(5))
        with pytest.raises(ValueError):
            QuadraticLossModel([a, b])


class TestBenchmarkProblem:
    """The default scenario's synthetic regression problem is engineered to a
    known conditioning so round predictions land in a useful range."""

    def test_designed_conditioning(self, default_problem):
        _, model = default_problem
        ratio = model.strong_mu / model.lipschitz_u
        assert model.lipschitz_u == pytest.approx(2.0, abs=1e-6)
        assert ratio == pytest.approx(0.0500013, rel=1e-4)

    def test_noiseless_labels_give_zero_floor(self, default_problem):
        _, model = default_problem
        assert model.f_star < 1e-20

    def test_initial_loss_sum_pinned(self, default_problem):
        _, model = default_problem
        s0 = model.total_loss_sum(np.zeros(model.dim))
        assert s0 == pytest.approx(50.0013, rel=1e-4)

    def test_two_owned_coordinates_per_follower(self, default_scenario):
        # dim 11: one nuisance coordinate, each of five followers owns two;
        # every signal coordinate then has second moment (s^2 + 4 (e s)^2) / 5
        spec = replace(default_scenario.dataset, dim=11)
        _, model = spec.build(default_scenario.n_followers)
        s, e = spec.signal_scale, spec.owner_emphasis
        assert model.strong_mu == pytest.approx(2.0 * (s**2 + 4.0 * (e * s) ** 2) / 5.0, rel=1e-9)
        assert model.strong_mu == pytest.approx(0.100, abs=1e-3)

    def test_counts_and_shape(self, default_problem):
        datasets, model = default_problem
        assert model.n_total == 200
        assert model.dim == 6
        assert [d.count for d in datasets] == [40] * 5


class TestLocalUpdate:
    def test_stationary_point_fixed(self):
        _, model = constant_feature_problem()
        assert local_update(np.array([1.0]), 0, model, lr=0.25) == pytest.approx(np.array([1.0]))

    def test_scalar_hand_step(self):
        # one sample x=2, y=3 at w=0: summed gradient 2*x*(x.w - y) = -12,
        # count-normalized step w - lr/1 * (-12) = 12*lr
        d = Dataset(np.array([[2.0]]), np.array([3.0]))
        model = QuadraticLossModel([d])
        got = local_update(np.array([0.0]), 0, model, lr=0.1)
        assert got[0] == pytest.approx(1.2, abs=1e-12)

    def test_identical_data_identical_steps(self):
        _, model = constant_feature_problem()
        w = np.array([0.3])
        assert local_update(w, 0, model, 0.1) == pytest.approx(local_update(w, 1, model, 0.1))

    def test_step_uses_followers_own_stale_copy(self):
        _, model = constant_feature_problem()
        fresh = local_update(np.array([0.0]), 0, model, 0.1)
        stale = local_update(np.array([0.8]), 1, model, 0.1)
        assert not np.allclose(fresh, stale)

    def test_nonpositive_lr_rejected(self):
        _, model = constant_feature_problem()
        with pytest.raises(ValueError):
            local_update(np.array([0.0]), 0, model, 0.0)


class TestAggregation:
    def test_equal_weights_mean(self):
        got = aggregate_ideal([np.array([0.0]), np.array([2.0])], np.array([10, 10]))
        assert got == pytest.approx(np.array([1.0]))

    def test_weighted_mean(self):
        got = aggregate_ideal([np.array([0.0]), np.array([4.0])], np.array([1, 3]))
        assert got == pytest.approx(np.array([3.0]))

    def test_single_follower_identity(self):
        w = np.array([0.4, -2.0])
        assert aggregate_ideal([w], np.array([7])) == pytest.approx(w)

    def test_all_participating_matches_ideal(self, rng):
        ws = [rng.normal(size=3) for _ in range(4)]
        counts = np.array([5, 1, 2, 9])
        part = np.ones(4, dtype=bool)
        assert aggregate_with_losses(ws, counts, part, np.zeros(3)) == pytest.approx(
            aggregate_ideal(ws, counts)
        )

    def test_single_participant_passthrough(self, rng):
        ws = [rng.normal(size=3) for _ in range(4)]
        part = np.array([False, False, True, False])
        got = aggregate_with_losses(ws, np.array([5, 1, 2, 9]), part, np.zeros(3))
        assert got == pytest.approx(ws[2])

    def test_no_participants_holds_previous(self, rng):
        prev = rng.normal(size=3)
        ws = [rng.normal(size=3) for _ in range(2)]
        got = aggregate_with_losses(ws, np.array([1, 1]), np.zeros(2, dtype=bool), prev)
        assert got == pytest.approx(prev)

    def test_convex_combination_bounds(self, rng):
        ws = [rng.normal(size=4) for _ in range(5)]
        counts = np.array([3, 8, 1, 4, 2])
        part = np.array([True, False, True, True, False])
        got = aggregate_with_losses(ws, counts, part, np.zeros(4))
        active = np.array([w for w, c in zip(ws, part) if c])
        assert np.all(got >= active.min(axis=0) - 1e-12)
        assert np.all(got <= active.max(axis=0) + 1e-12)


class TestAggregationError:
    """The step train_round aggregates from a shared model, against the true gradient."""

    @staticmethod
    def aggregation_error(model, w, participation, lr=1.0):
        received = np.tile(w, (1, model.n_followers, 1))
        _, new_global = train_round(model, received, w[None, :], participation[None, :], lr)
        return (w - new_global[0]) / lr - model.global_grad(w)

    def test_zero_when_everyone_participates(self):
        datasets, model = make_regression_problem(3, 25, 4, rng_seed=8, noise_std=0.1)
        w = np.ones(model.dim)
        e = self.aggregation_error(model, w, np.ones(3, dtype=bool))
        assert np.linalg.norm(e) < 1e-12

    def test_full_outage_cancels_descent(self):
        datasets, model = make_regression_problem(3, 25, 4, rng_seed=8, noise_std=0.1)
        w = np.ones(model.dim)
        e = self.aggregation_error(model, w, np.zeros(3, dtype=bool))
        assert e == pytest.approx(-model.global_grad(w))

    def test_partial_participation_hand_value(self):
        datasets, model = make_regression_problem(2, 20, 3, rng_seed=4, noise_std=0.1)
        w = np.full(model.dim, 0.5)
        part = np.array([True, False])
        # only follower 0 lands, so the implied mean step is its own
        # count-normalized gradient; the error is its gap to the full gradient
        want = model.follower_grad_sum(0, w) / model.counts[0] - model.global_grad(w)
        got = self.aggregation_error(model, w, part)
        assert got == pytest.approx(want, rel=1e-12)


def masks_for(scenario, n_rounds, *seeds):
    """Participation masks of one repetition per seed at the default design, (R, T, I)."""
    return participation_masks([scenario], scenario.default_design(), n_rounds, seeds)[0]


class TestRunFl:
    def test_already_converged_reports_round_zero(self, easy_scenario):
        _, model = easy_scenario.build_dataset()
        s0_gap = model.global_loss(np.zeros(model.dim)) - model.f_star
        state, hits = run_fl(model, masks_for(easy_scenario, 10, 1), epsilon=2.0 * s0_gap)
        assert hits.tolist() == [0]
        assert state.round == 0

    def test_perfect_links_contract_every_round(self, easy_scenario):
        _, model = easy_scenario.build_dataset()
        state, hit = run_fl(model, masks_for(easy_scenario, 60, 2), epsilon=1e-9)
        gaps = state.loss_history[0, : state.rounds[0] + 1] - model.f_star
        ratio = 1.0 - model.strong_mu / model.lipschitz_u
        assert np.all(gaps[1:] <= ratio * gaps[:-1] * (1.0 + 1e-12))
        assert np.all(state.participation_rates() == 1.0)

    def test_crossing_round_consistent_with_history(self, default_scenario):
        _, model = default_scenario.build_dataset()
        s0_gap = model.global_loss(np.zeros(model.dim)) - model.f_star
        eps = 0.1 * s0_gap / 1.0
        state, hits = run_fl(model, masks_for(default_scenario, 300, 3), epsilon=eps)
        hit = hits[0]
        assert hit >= 0
        assert state.rounds[0] == hit
        gaps = state.loss_history[0] - model.f_star
        assert gaps[hit] <= eps
        assert np.all(gaps[:hit] > eps)
        assert np.all(np.isnan(gaps[hit + 1 :]))

    def test_trajectory_deterministic(self, default_scenario):
        _, model = default_scenario.build_dataset()
        runs = [
            run_fl(model, masks_for(default_scenario, 40, 17), epsilon=1e-12)[0].loss_history
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1], equal_nan=True)

    def test_stale_refresh_ablation_changes_trajectory(self, default_scenario):
        _, model = default_scenario.build_dataset()
        masks = masks_for(default_scenario, 80, 23)
        stale, _ = run_fl(model, masks, epsilon=1e-12)
        fresh, _ = run_fl(model, masks, epsilon=1e-12, stale_models=False)
        missed = ~masks[0, : stale.rounds[0]].all()
        assert missed
        assert not np.array_equal(stale.loss_history, fresh.loss_history, equal_nan=True)

    def test_zero_round_budget_returns_start(self, default_scenario):
        _, model = default_scenario.build_dataset()
        state, hits = run_fl(model, masks_for(default_scenario, 0, 5), epsilon=1e-12)
        assert hits.tolist() == [-1]
        assert state.loss_history.shape == (1, 1)

    def test_mask_shape_checked(self, default_problem):
        _, model = default_problem
        with pytest.raises(ValueError, match="participation"):
            run_fl(model, np.ones((2, 10, 3), dtype=bool), epsilon=1e-3)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan])
    def test_bad_epsilon_rejected(self, default_problem, epsilon):
        _, model = default_problem
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            run_fl(model, np.ones((1, 10, model.n_followers), dtype=bool), epsilon)

    @pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
    def test_bad_lr_rejected(self, default_problem, lr):
        _, model = default_problem
        with pytest.raises(ValueError, match="lr must be finite and > 0"):
            run_fl(model, np.ones((1, 10, model.n_followers), dtype=bool), 1e-3, lr=lr)


class TestBatchedKernel:
    """The batched round and run against the per-follower reference steps."""

    def test_round_matches_reference_steps(self, default_problem):
        _, model = default_problem
        rng = np.random.default_rng(41)
        n_reps, n_f, lr = 6, model.n_followers, 0.7 / model.lipschitz_u
        received = rng.normal(size=(n_reps, n_f, model.dim))
        global_w = rng.normal(size=(n_reps, model.dim))
        mask = rng.random((n_reps, n_f)) < 0.5
        mask[0] = False  # nobody lands: the global model must carry over
        mask[1] = True
        local_w, new_global = train_round(model, received, global_w, mask, lr)
        for r in range(n_reps):
            want_local = np.array([local_update(received[r, i], i, model, lr) for i in range(n_f)])
            want_global = aggregate_with_losses(want_local, model.counts, mask[r], global_w[r])
            assert local_w[r] == pytest.approx(want_local, rel=1e-12)
            assert new_global[r] == pytest.approx(want_global, rel=1e-12)

    def test_batch_matches_runs_one_at_a_time(self, default_scenario, default_problem):
        _, model = default_problem
        seeds = (3, 17, 23, 101)
        masks = masks_for(default_scenario, 200, *seeds)
        eps = 0.05 * (model.global_loss(np.zeros(model.dim)) - model.f_star)
        batch, batch_hits = run_fl(model, masks, eps)
        for r, seed in enumerate(seeds):
            alone, alone_hits = run_fl(model, masks_for(default_scenario, 200, seed), eps)
            assert batch_hits[r] == alone_hits[0]
            assert batch.rounds[r] == alone.rounds[0]
            n = alone.rounds[0] + 1
            assert batch.loss_history[r, :n] == pytest.approx(alone.loss_history[0, :n], rel=1e-12)
            assert np.all(np.isnan(batch.loss_history[r, n:]))
        assert batch.round == batch.rounds.sum()


class TestParticipationMasks:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        sigma2=st.floats(0.0, 0.5),
        bws=st.lists(st.floats(1e5, 1e8), min_size=1, max_size=3),
    )
    def test_shared_draw_matches_fresh_draw_per_bandwidth(self, default_scenario, seed, sigma2, bws):
        scenario = replace(default_scenario, antenna=replace(default_scenario.antenna, sigma2=sigma2))
        design = scenario.default_design()
        points = [replace(scenario, radio=replace(scenario.radio, bw_up=bw, bw_down=bw)) for bw in bws]
        shared = participation_masks(points, design, 20, [seed])
        for k, point in enumerate(points):
            draws = draw_channel(point, np.random.default_rng(seed), size=20)
            t_up, t_dn = link_delays(draws, design, point)
            fresh = success_mask(t_up, t_dn, design.beta, point.round_time_s)
            assert np.array_equal(shared[k, 0], fresh)

    def test_points_must_share_their_draws(self, default_scenario):
        other_k = replace(default_scenario, radio=replace(default_scenario.radio, rician_k=3.0))
        with pytest.raises(ValueError, match="antenna.sigma2, radio.bw_up and radio.bw_down"):
            participation_masks([default_scenario, other_k], default_scenario.default_design(), 5, [1])


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((5, 2)), np.ones(4))
