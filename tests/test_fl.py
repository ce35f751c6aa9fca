"""Federated training engine: loss model, local steps, aggregation, staleness."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmfl.channel import BLOCK, draw_channel, link_delays, participation_masks, success_mask
from swarmfl.experiments import _crossing_rounds
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
        received = np.tile(w[:, None], (model.n_followers, 1, 1))  # (I, dim, R=1)
        _, new_global = train_round(model, received, w[:, None], participation[:, None], lr)
        return (w - new_global[:, 0]) / lr - model.global_grad(w)

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
        local_w, new_global = train_round(model, received.transpose(1, 2, 0), global_w.T, mask.T, lr)
        for r in range(n_reps):
            want_local = np.array([local_update(received[r, i], i, model, lr) for i in range(n_f)])
            want_global = aggregate_with_losses(want_local, model.counts, mask[r], global_w[r])
            assert local_w[:, :, r] == pytest.approx(want_local, rel=1e-12)
            assert new_global[:, r] == pytest.approx(want_global, rel=1e-12)

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


def reference_trajectories(model, masks, lr, stale_models):
    """Per repetition, round by round over all T rounds: each follower's
    local_update from its received model, then aggregate_with_losses.
    Returns per repetition the losses (T + 1,), global models (T + 1, dim)
    and received models (T + 1, I, dim) after each round."""
    n_reps, n_rounds, n_f = masks.shape
    out = []
    for r in range(n_reps):
        w, received = np.zeros(model.dim), np.zeros((n_f, model.dim))
        losses, ws, recs = [model.global_loss(w)], [w], [received]
        for t in range(n_rounds):
            local = [local_update(received[i], i, model, lr) for i in range(n_f)]
            w = aggregate_with_losses(local, model.counts, masks[r, t], w)
            received = received.copy()
            for i in range(n_f):
                if masks[r, t, i] or not stale_models:
                    received[i] = w
            losses.append(model.global_loss(w))
            ws.append(w)
            recs.append(received)
        out.append((np.array(losses), np.array(ws), np.array(recs)))
    return out


def separated_thresholds(gaps, tol):
    """Positive loss targets between the distinct levels of gaps, below and
    above them all, each more than tol away from every gap, so that a
    last-bit difference in a computed loss cannot move a crossing."""
    levels = np.sort(gaps.ravel())
    cut = np.flatnonzero(np.diff(levels) > 2.0 * tol)
    between = 0.5 * (levels[cut] + levels[cut + 1])
    targets = np.concatenate([[levels[0] - 2.0 * tol], between, [levels[-1] + 2.0 * tol]])
    return targets[targets > 0.0]


class TestRunMatchesReference:
    """run_fl's follower-major loop, with its compaction at crossings, against
    per-repetition reference runs of local_update and aggregate_with_losses."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_reps=st.integers(1, 12),
        n_rounds=st.integers(0, 60),
        shape=st.sampled_from([(1, 4, 2), (3, 8, 3), (4, 6, 5)]),
        mask_seed=st.integers(0, 2**32 - 1),
        p_land=st.floats(0.0, 1.0),
        p_dead_round=st.floats(0.0, 0.5),
        p_dead_run=st.floats(0.0, 0.5),
        stale_models=st.booleans(),
        lr_frac=st.sampled_from([None, 0.5]),
        pick=st.floats(0.0, 1.0),
    )
    def test_matches_per_run_reference(
        self, n_reps, n_rounds, shape, mask_seed, p_land, p_dead_round, p_dead_run,
        stale_models, lr_frac, pick,
    ):
        n_f, samples_per, dim = shape
        _, model = make_regression_problem(n_f, samples_per, dim, rng_seed=mask_seed % 97, noise_std=0.3)
        rng = np.random.default_rng(mask_seed)
        masks = rng.random((n_reps, n_rounds, n_f)) < p_land
        masks[rng.random((n_reps, n_rounds)) < p_dead_round] = False  # rounds nobody lands
        masks[rng.random(n_reps) < p_dead_run] = False  # runs nobody ever lands in
        lr = 1.0 / model.lipschitz_u if lr_frac is None else lr_frac / model.lipschitz_u

        ref = reference_trajectories(model, masks, lr, stale_models)
        gaps = np.array([losses for losses, _, _ in ref]) - model.f_star
        targets = separated_thresholds(gaps, tol=1e-9 * (abs(model.f_star) + gaps.max()))
        eps = float(targets[min(int(pick * len(targets)), len(targets) - 1)])
        state, hits = run_fl(
            model, masks, eps, lr=None if lr_frac is None else lr, stale_models=stale_models
        )

        want_hits = np.array([np.argmax(g <= eps) if np.any(g <= eps) else -1 for g in gaps])
        want_rounds = np.where(want_hits >= 0, want_hits, n_rounds)
        assert hits.tolist() == want_hits.tolist()
        assert state.rounds.tolist() == want_rounds.tolist()
        executed = np.arange(n_rounds + 1) <= want_rounds[:, None]
        assert np.array_equal(np.isnan(state.loss_history), ~executed)
        for r, (losses, ws, recs) in enumerate(ref):
            n = want_rounds[r]
            assert state.loss_history[r, : n + 1] == pytest.approx(losses[: n + 1], rel=1e-12)
            assert state.global_w[r] == pytest.approx(ws[n], rel=1e-12)
            assert state.last_received[r] == pytest.approx(recs[n], rel=1e-12)
            assert np.array_equal(state.participated[r], masks[r, :n].sum(axis=0))


class BlockStream:
    """A mask stream over an (R, T, I) array, in blocks of block rounds; records the runs each block is read for."""

    def __init__(self, masks, block):
        self.masks, self.block, self.shape, self.reads = masks, block, masks.shape, []

    def __call__(self, runs):
        start = len(self.reads) * self.block
        self.reads.append(list(runs))
        return self.masks[runs, start : start + self.block].transpose(1, 2, 0)


class TestBlockReads:
    """run_fl on a stream of blocks trains like run_fl on the whole array, and reads a block after the first only
    for the runs still going where it starts."""

    @settings(max_examples=80, deadline=None)
    @given(
        n_reps=st.integers(1, 8),
        n_rounds=st.integers(0, 40),
        block=st.integers(1, 15),
        seed=st.integers(0, 2**32 - 1),
        p_land=st.floats(0.1, 1.0),
        eps_frac=st.floats(1e-3, 1.5),
        stale_models=st.booleans(),
    )
    def test_blocks_train_like_one_array(self, n_reps, n_rounds, block, seed, p_land, eps_frac, stale_models):
        _, model = make_regression_problem(3, 8, 3, rng_seed=seed % 97, noise_std=0.3)
        rng = np.random.default_rng(seed)
        masks = rng.random((n_reps, n_rounds, 3)) < rng.uniform(p_land, 1.0, (n_reps, 1, 1))
        eps = eps_frac * (model.global_loss(np.zeros(3)) - model.f_star)
        whole, whole_hits = run_fl(model, masks, eps, stale_models=stale_models)
        stream = BlockStream(masks, block)
        state, hits = run_fl(model, stream, eps, stale_models=stale_models)
        assert np.array_equal(hits, whole_hits)
        assert np.array_equal(state.rounds, whole.rounds)
        width = state.loss_history.shape[1]
        assert width == min(n_rounds, block * len(stream.reads)) + 1
        assert np.array_equal(state.loss_history, whole.loss_history[:, :width], equal_nan=True)
        assert np.all(np.isnan(whole.loss_history[:, width:]))
        for name in ("global_w", "last_received", "participated"):
            assert np.array_equal(getattr(state, name), getattr(whole, name))
        for b, runs in enumerate(stream.reads):  # the first block for the runs not done at round 0
            going = np.flatnonzero(whole.rounds > block * b) if b else np.flatnonzero(whole_hits != 0)
            assert b == 0 or going.size
            assert runs == list(np.repeat(going, 2) if going.size == 1 else going)  # a lone run twice
        assert not np.any(whole.rounds > block * len(stream.reads))  # no run reached an unread block


@st.composite
def batchings(draw, max_runs=10):
    """(n_runs, order, cuts): the runs in some order, cut into consecutive batches."""
    n_runs = draw(st.integers(1, max_runs))
    order = draw(st.permutations(range(n_runs)))
    cuts = draw(st.sets(st.integers(1, n_runs - 1))) if n_runs > 1 else set()
    return n_runs, order, sorted(cuts)


class TestBatchIndependence:
    """A run's loss_history, rounds and hit are the same bits in any batch of runs: alone, stacked, split or reordered."""

    @settings(max_examples=80, deadline=None)
    @given(
        batching=batchings(),
        n_rounds=st.integers(1, 60),
        shape=st.sampled_from([(1, 4, 2), (3, 8, 3), (5, 40, 6), (4, 12, 9)]),
        seed=st.integers(0, 2**32 - 1),
        p_land=st.floats(0.1, 1.0),
        eps_frac=st.floats(1e-4, 0.5),
        stale_models=st.booleans(),
    )
    # every run alone, and a straggler left alone at the end of a stack
    @example(batching=(4, [2, 0, 3, 1], [1, 2, 3]), n_rounds=60, shape=(5, 40, 6), seed=1, p_land=0.3,
             eps_frac=0.01, stale_models=True)
    @example(batching=(3, [0, 1, 2], []), n_rounds=60, shape=(4, 12, 9), seed=2, p_land=0.2,
             eps_frac=0.01, stale_models=False)
    def test_any_batching_trains_alike(self, batching, n_rounds, shape, seed, p_land, eps_frac, stale_models):
        n_runs, order, cuts = batching
        n_f, samples_per, dim = shape
        _, model = make_regression_problem(n_f, samples_per, dim, rng_seed=seed % 9973, noise_std=0.3)
        rng = np.random.default_rng(seed)
        # a landing rate per run, so the runs cross in different rounds and stragglers train alone
        masks = rng.random((n_runs, n_rounds, n_f)) < rng.uniform(p_land, 1.0, (n_runs, 1, 1))
        eps = eps_frac * (model.global_loss(np.zeros(dim)) - model.f_star)
        whole, whole_hits = run_fl(model, masks, eps, stale_models=stale_models)
        singles = [run_fl(model, masks[[r]], eps, stale_models=stale_models) for r in range(n_runs)]
        for group in np.split(np.array(order), cuts):
            part, hits = run_fl(model, masks[group], eps, stale_models=stale_models)
            for j, r in enumerate(group):
                alone, alone_hits = singles[r]
                for got, got_hits, row in ((part, hits, j), (whole, whole_hits, r)):
                    assert got_hits[row] == alone_hits[0]
                    assert got.rounds[row] == alone.rounds[0]
                    assert np.array_equal(got.loss_history[row], alone.loss_history[0], equal_nan=True)
                    assert np.array_equal(got.global_w[row], alone.global_w[0])
                    assert np.array_equal(got.last_received[row], alone.last_received[0])


class TestQuadraticFormGap:
    """The loss gap run_fl records, the quadratic form (w - w*)^T H (w - w*),
    on noisy problems, where F* > 0 and F - F* cancels."""

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(1, 4, 2), (3, 8, 3), (4, 6, 5), (5, 40, 6)]),
        seed=st.integers(0, 2**32 - 1),
        noise_std=st.floats(0.01, 3.0),
        radius=st.floats(1e-6, 1e3),
    )
    def test_gap_is_the_loss_above_the_optimum(self, shape, seed, noise_std, radius):
        n_f, samples_per, dim = shape
        _, model = make_regression_problem(n_f, samples_per, dim, rng_seed=seed % 9973, noise_std=noise_std)
        assert model.f_star > 0.0
        rng = np.random.default_rng(seed)
        ws = model.w_star[:, None] + radius * rng.standard_normal((dim, 8))
        gaps = model.loss_gaps(ws)
        assert np.all(gaps >= 0.0)
        for w, gap in zip(ws.T, gaps):
            f = model.global_loss(w)
            assert abs(gap - (f - model.f_star)) <= 1e-12 * max(f, model.f_star)

    @settings(max_examples=60, deadline=None)
    @given(
        n_reps=st.integers(1, 8),
        n_rounds=st.integers(1, 40),
        shape=st.sampled_from([(1, 4, 2), (3, 8, 3), (4, 6, 5)]),
        seed=st.integers(0, 2**32 - 1),
        noise_std=st.floats(0.01, 3.0),
        p_land=st.floats(0.2, 1.0),
        pick=st.floats(0.0, 1.0),
    )
    def test_hits_equal_what_readers_cross(self, n_reps, n_rounds, shape, seed, noise_std, p_land, pick):
        """Targets are recorded gaps themselves, so a crossing decided on
        another number than loss_history - f_star would show at the tie."""
        n_f, samples_per, dim = shape
        _, model = make_regression_problem(n_f, samples_per, dim, rng_seed=seed % 9973, noise_std=noise_std)
        masks = np.random.default_rng(seed).random((n_reps, n_rounds, n_f)) < p_land
        recorded = run_fl(model, masks, 1e-300)[0].loss_history - model.f_star
        eps = float(np.sort(recorded.ravel())[int(pick * (recorded.size - 1))])
        if not eps > 0.0:
            eps = 1e-300
        state, hits = run_fl(model, masks, eps)
        assert np.array_equal(hits, _crossing_rounds(model, state, [eps])[:, 0])
        crossed = hits >= 0
        final = state.loss_history[np.arange(n_reps), state.rounds] - model.f_star
        assert np.all(final[crossed] <= eps) and np.all(final[~crossed] > eps)
        assert np.array_equal(state.rounds[crossed], hits[crossed])


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
            draws = draw_channel(point, np.random.default_rng(seed), size=BLOCK)  # the stream's first block
            t_up, t_dn = link_delays(draws, design, point)
            fresh = success_mask(t_up, t_dn, design.beta, point.round_time_s)
            assert np.array_equal(shared[k, 0], fresh[:20])

    def test_points_must_share_their_draws(self, default_scenario):
        other_k = replace(default_scenario, radio=replace(default_scenario.radio, rician_k=3.0))
        with pytest.raises(ValueError, match="antenna.sigma2, radio.bw_up and radio.bw_down"):
            participation_masks([default_scenario, other_k], default_scenario.default_design(), 5, [1])


class TestDatasetValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((5, 2)), np.ones(4))
