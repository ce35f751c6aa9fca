"""Experiment tables: column layout, CSV bytes, reproducibility."""

import importlib
import importlib.util
import threading
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmfl import channel, cli, experiments
from swarmfl.channel import BLOCK, ScenarioSamples, draw_channel, link_delays, participation_masks, success_mask
from swarmfl.convergence import ROUND_CAP
from swarmfl.design import DesignVector
from swarmfl.fl import run_fl
from swarmfl.experiments import (
    ExperimentResult,
    _train,
    emit_csv,
    experiment_compare_designs,
    experiment_optimize,
    experiment_simulate,
    experiment_sweep_sigma,
    experiment_validate_theorem,
)
from swarmfl.saa import baseline_design, problem_constants
from swarmfl.scenario import load_scenario
from swarmfl.seeds import derive_seed

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestEmitCsv:
    def make_result(self):
        result = ExperimentResult("demo", ["name", "weight", "flag", "note", "n"])
        result.append(name="alpha", weight=0.123456789123, flag=True, note=None, n=7)
        result.append(name="beta", weight=2.0, flag=False, note="x", n=-1)
        return result

    def test_formatting(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.make_result(), path)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "experiment,schema_version,name,weight,flag,note,n"
        assert lines[1] == "demo,1,alpha,0.123456789,1,,7"
        assert lines[2] == "demo,1,beta,2,0,x,-1"
        assert text.endswith("\n")

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.make_result(), path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_unknown_row_key_rejected(self):
        result = ExperimentResult("demo", ["a"])
        with pytest.raises(KeyError):
            result.append(a=1, b=2)
        with pytest.raises(KeyError):  # the table fills in its fixed columns
            result.append(a=1, experiment="other")


class TestPredictedRound:
    """The capped prediction the experiments report, at a 5% loss target."""

    def test_zero_probability_hits_cap(self, default_scenario):
        problem = problem_constants(default_scenario)
        assert problem.predicted_round(np.zeros(5), 0.05 * problem.initial_loss_sum) == ROUND_CAP

    def test_tiny_probability_capped(self, default_scenario):
        problem = problem_constants(default_scenario)
        assert problem.predicted_round(np.full(5, 1e-12), 0.05 * problem.initial_loss_sum) == ROUND_CAP

    def test_good_probability_finite(self, default_scenario):
        problem = problem_constants(default_scenario)
        rounds = problem.predicted_round(np.full(5, 0.9), 0.05 * problem.initial_loss_sum)
        assert 0 < rounds < ROUND_CAP


class TestValidateTheorem:
    def test_row_per_target(self, default_scenario):
        res = experiment_validate_theorem(
            default_scenario, mc_runs=3, eps_fracs=(0.15, 0.25)
        )
        assert len(res.rows) == 2
        assert [r["epsilon_frac"] for r in res.rows] == [0.15, 0.25]

    def test_gap_column_consistent(self, default_scenario):
        res = experiment_validate_theorem(
            default_scenario, mc_runs=3, eps_fracs=(0.15, 0.25)
        )
        for row in res.rows:
            assert row["predicted_round"] >= 1
            expected = abs(row["predicted_round"] - row["empirical_mean"]) / row["predicted_round"]
            assert row["relative_gap"] == pytest.approx(expected, abs=1e-12)
            assert row["n_converged"] == 3
            assert row["energy_leader_total"] > 0.0

    def test_probability_cells_in_unit_interval(self, default_scenario):
        res = experiment_validate_theorem(default_scenario, mc_runs=2, eps_fracs=(0.25,))
        row = res.rows[0]
        for i in range(default_scenario.n_followers):
            assert 0.0 < row[f"success_prob_{i + 1}"] <= 1.0


class TestSweepSigma:
    def test_grid_rows(self, default_scenario):
        res = experiment_sweep_sigma(
            default_scenario, sigma2_list=(0.05, 0.2), bw_list=(1e6, 5e6), mc_runs=2
        )
        assert len(res.rows) == 4
        got = {(r["sigma2"], r["bandwidth"]) for r in res.rows}
        assert got == {(0.05, 1e6), (0.05, 5e6), (0.2, 1e6), (0.2, 5e6)}

    def test_rows_carry_predictions(self, default_scenario):
        res = experiment_sweep_sigma(
            default_scenario, sigma2_list=(0.05,), bw_list=(1e6,), mc_runs=2
        )
        row = res.rows[0]
        assert row["predicted_round"] >= 1
        assert row["empirical_mean"] is not None

    @pytest.mark.parametrize(
        "sigma2_list, bw_list",
        [((0.05,), (1e6,)), ((0.01, 0.2), (1e6, 5e6)), ((0.05, 0.05, 0.1, 0.0), (2e6, 1e6, 2e6))],
    )
    def test_one_draw_per_repetition_for_the_whole_grid(self, small_scenario, sigma2_list, bw_list):
        """ss-probs once and ss-run once per repetition, not once per jitter variance."""
        mc_runs = 3
        with counting_draws() as calls:
            experiment_sweep_sigma(small_scenario, sigma2_list=sigma2_list, bw_list=bw_list, mc_runs=mc_runs)
        assert len(calls) == mc_runs + 1

    def test_grid_rows_match_one_jitter_variance_at_a_time(self, small_scenario):
        """Repeated variances keep their rows and order, and each row equals a sweep of its variance alone."""
        sigma2_list, bw_list = (0.2, 0.05, 0.05), (1e6, 5e6)
        res = experiment_sweep_sigma(small_scenario, sigma2_list=sigma2_list, bw_list=bw_list, mc_runs=3)
        alone = [
            row
            for sigma2 in sigma2_list
            for row in experiment_sweep_sigma(
                small_scenario, sigma2_list=(sigma2,), bw_list=bw_list, mc_runs=3
            ).rows
        ]
        assert res.rows == alone
        assert [(r["sigma2"], r["bandwidth"]) for r in res.rows] == [
            (s, b) for s in sigma2_list for b in bw_list
        ]


COMPARE_BWS = (1e6, 2e6)


@contextmanager
def counting_draws():
    """A list that gains one entry per row channel._fill_rows fills: a draw_channel call, a scoring draw
    filled beside training (channel._generate_beside), or one block of a stream."""
    original, calls = channel._fill_rows, []

    def counting(rngs, *args):
        calls.extend([1] * len(rngs))
        return original(rngs, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_fill_rows", counting)
        yield calls


@pytest.fixture(scope="module")
def compare_draws(small_scenario):
    """compare-designs at two bandwidths, and the number of channel draws (rows of _draw_rows) it made."""
    with counting_draws() as calls:
        result = experiment_compare_designs(small_scenario, bw_list=COMPARE_BWS, n_baseline_draws=3)
    return result, len(calls)


@pytest.fixture(scope="module")
def compare(compare_draws):
    return compare_draws[0]


def _design_of(row, n_followers) -> DesignVector:
    p = np.array([row[f"p_{i + 1}"] for i in range(n_followers)])
    return DesignVector(p=p, p_leader=row["p_leader"], beta=row["beta"], v=row["v"])


class TestCompareDesigns:
    def test_two_channel_draws_for_the_whole_grid(self, compare_draws):
        """saa-samples and cd-probs, once each: no bandwidth, solve or design redraws the channel."""
        assert compare_draws[1] == 2

    def test_designs_scored_on_the_cd_probs_draw(self, compare, small_scenario):
        """Every bandwidth's cells read the one cd-probs draw (bandwidth index 0's seed) at that bandwidth."""
        n = small_scenario.n_followers
        seed = derive_seed(small_scenario.base_seed, "cd-probs", 0)
        drawn = ScenarioSamples.generate(small_scenario, small_scenario.n_success_samples, seed)
        for k_bw, bw in enumerate(COMPARE_BWS):
            point = replace(small_scenario, radio=replace(small_scenario.radio, bw_up=bw, bw_down=bw))
            samples = drawn.at(point)
            row = compare.rows[3 * k_bw]
            joint = _design_of(row, n)
            want = [row[f"success_prob_{i + 1}"] for i in range(n)]
            assert np.array_equal(samples.success_probs(joint), want)
            designs = [joint] + [
                baseline_design(kind, joint, point, d)
                for kind in ("power-only", "scheduling-only") for d in range(3)
            ]
            draws = draw_channel(point, np.random.default_rng(seed), size=point.n_success_samples)
            for design in designs:
                masks = success_mask(*link_delays(draws, design, point), design.beta, point.round_time_s)
                assert np.array_equal(samples.success_probs(design), masks.mean(axis=0))

    @pytest.mark.parametrize("bw_list", [COMPARE_BWS[1:], COMPARE_BWS[::-1], (5e6, 1e6)])
    def test_joint_rows_do_not_depend_on_the_rest_of_the_list(self, compare, small_scenario, bw_list):
        """Every joint solve reads the same channel, whatever bandwidths stand beside it or before it,
        and the channel is drawn twice however long the list is."""
        joint = {r["bandwidth"]: r for r in compare.rows if r["design_kind"] == "joint"}
        with counting_draws() as calls:
            other = experiment_compare_designs(small_scenario, bw_list=bw_list, n_baseline_draws=1)
        assert len(calls) == 2
        shared = [r for r in other.rows if r["design_kind"] == "joint" and r["bandwidth"] in joint]
        assert shared
        for row in shared:
            assert row == joint[row["bandwidth"]]

    def test_three_kinds_per_bandwidth(self, compare):
        assert len(compare.rows) == 6
        kinds = [r["design_kind"] for r in compare.rows]
        assert kinds == ["joint", "power-only", "scheduling-only"] * 2

    def test_joint_row_shape(self, compare):
        joint = compare.rows[0]
        assert joint["n_draws"] == 1
        assert joint["predicted_round_std"] == 0.0
        assert joint["reduction_vs_joint"] == 0.0
        assert joint["p_1"] is not None

    def test_baseline_rows_aggregate(self, compare):
        for row in compare.rows:
            if row["design_kind"] == "joint":
                continue
            assert row["n_draws"] == 3
            assert row["predicted_round_mean"] > 0.0
            assert row.get("p_1") is None

    def test_reduction_definition(self, compare):
        by_kind = {(r["bandwidth"], r["design_kind"]): r for r in compare.rows}
        for bw in (1e6, 2e6):
            joint = by_kind[(bw, "joint")]["predicted_round_mean"]
            for kind in ("power-only", "scheduling-only"):
                row = by_kind[(bw, kind)]
                expected = (row["predicted_round_mean"] - joint) / row["predicted_round_mean"]
                assert row["reduction_vs_joint"] == pytest.approx(expected, abs=1e-12)


class TestSimulate:
    def test_telemetry_rows(self, small_scenario):
        res = experiment_simulate(small_scenario, mc_runs=3, eps_frac=0.25)
        assert len(res.rows) == 3
        for rep, row in enumerate(res.rows):
            assert row["run"] == rep
            assert row["empirical_round"] >= 0
            assert row["rounds_executed"] >= row["empirical_round"]
            assert row["final_loss_gap"] >= 0.0
            for i in range(small_scenario.n_followers):
                assert 0.0 <= row[f"participation_rate_{i + 1}"] <= 1.0

    def test_unreached_target_reports_minus_one(self, small_scenario):
        tiny = replace(small_scenario, max_rounds=2).require_valid()
        res = experiment_simulate(tiny, mc_runs=2, eps_frac=0.01)
        for row in res.rows:
            assert row["empirical_round"] == -1
            assert row["rounds_executed"] == 2


def full_horizon(scenario, label, mc_runs, eps_frac, points=None):
    """Oracle: (problem, [(state, hits)] per point) of run_fl on masks of the whole round budget."""
    problem = problem_constants(scenario)
    model = problem.model
    seeds = [derive_seed(scenario.base_seed, label, rep) for rep in range(mc_runs)]
    masks = participation_masks(points or [scenario], scenario.default_design(), scenario.max_rounds, seeds)
    eps_mean = eps_frac * problem.initial_loss_sum / model.n_total
    return problem, [run_fl(model, m, eps_mean, lr=0.5 / model.lipschitz_u) for m in masks]


def crossing_stats(problem, state, eps_frac):
    """(mean, std, count) of the first rounds whose loss gap meets eps_frac, over the runs that reach it."""
    theta = eps_frac * problem.initial_loss_sum / problem.model.n_total
    gaps = state.loss_history - problem.model.f_star
    hits = np.array([np.flatnonzero(g <= theta)[0] for g in gaps if np.any(g <= theta)])
    if hits.size == 0:
        return None, None, 0
    return float(hits.mean()), float(hits.std(ddof=0)), int(hits.size)


def blocks_reached(runs):
    """Blocks the mask stream must draw: per repetition, one for each BLOCK rounds its latest run executes at any point."""
    rounds = np.max([state.rounds for state, _ in runs], axis=0)
    return int(np.sum(-(-rounds // BLOCK)))


class TestMasksOnlyForRoundsReached:
    """Training draws a repetition's next block of masks only while one of its runs is still going at some point."""

    MC_RUNS = 12

    @pytest.fixture(scope="class")
    def late(self, default_scenario):
        """At seed 5 and a loss target of 5e-4, runs cross after round 128, some past round 155."""
        return replace(default_scenario, base_seed=5, max_rounds=155).require_valid()

    def test_default_scenario_draws_each_repetition_once(self, default_scenario):
        with counting_draws() as calls:
            experiment_validate_theorem(default_scenario, mc_runs=self.MC_RUNS)
        assert len(calls) == self.MC_RUNS + 1  # vt-probs, then one vt-run draw per repetition
        with counting_draws() as calls:
            experiment_simulate(default_scenario, mc_runs=self.MC_RUNS)
        assert len(calls) == self.MC_RUNS

    def test_benchmark_trains_on_the_first_chunk_only(self, monkeypatch, tmp_path):
        """Every mc-train command at seed 1 draws its masks once, one block per repetition.

        If this fails, the benchmark reads masks past round BLOCK.
        """
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        blocks = []  # per block read, the repetitions that draw it

        class Recording(channel.MaskStream):
            def __call__(self, runs, out=None):
                blocks.append(np.unique(np.asarray(runs) % (self.shape[0] // len(self.points))).tolist())
                return super().__call__(runs, out)

        monkeypatch.setattr(experiments, "MaskStream", Recording)
        config = PERFBENCH / "scenarios" / "mc-train.json"
        mc_runs = load_scenario(config).mc_runs
        for _, argv in bench.WORKLOADS["mc-train"]:
            blocks.clear()
            out = tmp_path / f"{argv[0]}.csv"
            assert cli.main([*argv, "--config", str(config), "--seed", "1", "--out", str(out)]) == 0
            assert blocks == [list(range(mc_runs))], f"{argv[0]} drew blocks of repetitions {blocks}"

    @settings(max_examples=15, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4),
        eps_frac=st.floats(4e-4, 0.2),
    )
    def test_run_crossing_in_the_first_block_trains_the_same_on_the_full_horizon(
        self, default_scenario, seeds, eps_frac
    ):
        """A run that crosses by round BLOCK keeps its loss_history, rounds and hit on masks of the whole budget."""
        problem = problem_constants(default_scenario)
        model, design = problem.model, default_scenario.default_design()
        eps_mean = eps_frac * problem.initial_loss_sum / model.n_total
        (first, first_hits), (full, full_hits) = [
            run_fl(model, masks[0], eps_mean, lr=0.5 / model.lipschitz_u)
            for masks in (participation_masks([default_scenario], design, n, seeds)
                          for n in (BLOCK, default_scenario.max_rounds))
        ]
        crossed = first_hits >= 0
        assert np.array_equal(first_hits[crossed], full_hits[crossed])
        assert np.array_equal(first.rounds[crossed], full.rounds[crossed])
        assert np.array_equal(first.loss_history[crossed], full.loss_history[crossed, :BLOCK + 1], equal_nan=True)
        assert np.all(np.isnan(full.loss_history[crossed, BLOCK + 1:]))
        # a run still going after round BLOCK has the same first BLOCK rounds
        assert np.array_equal(first.loss_history[~crossed], full.loss_history[~crossed, :BLOCK + 1])

    def test_simulate_matches_full_horizon(self, late):
        with counting_draws() as calls:
            res = experiment_simulate(late, eps_frac=5e-4, mc_runs=self.MC_RUNS)
        problem, [(state, hits)] = full_horizon(late, "sim-run", self.MC_RUNS, 5e-4)
        assert np.any(hits > BLOCK) and np.any(hits < 0)  # both kinds of late run occur
        rates = state.participation_rates()
        for rep, row in enumerate(res.rows):
            assert row["empirical_round"] == hits[rep]
            assert row["rounds_executed"] == state.rounds[rep]
            final_gap = state.loss_history[rep, state.rounds[rep]] - problem.model.f_star
            assert row["final_loss_gap"] == float(final_gap)
            for i in range(late.n_followers):
                assert row[f"participation_rate_{i + 1}"] == float(rates[rep, i])
        assert len(calls) == blocks_reached([(state, hits)])

    def test_validate_theorem_matches_full_horizon(self, late):
        eps_fracs = (0.01, 5e-4)
        with counting_draws() as calls:
            res = experiment_validate_theorem(late, eps_fracs=eps_fracs, mc_runs=self.MC_RUNS)
        problem, [(state, hits)] = full_horizon(late, "vt-run", self.MC_RUNS, min(eps_fracs))
        assert np.any(hits > BLOCK) and np.any(hits < 0)
        for row, frac in zip(res.rows, eps_fracs):
            mean, std, count = crossing_stats(problem, state, frac)
            assert (row["empirical_mean"], row["empirical_std"], row["n_converged"]) == (mean, std, count)
        assert len(calls) == 1 + blocks_reached([(state, hits)])  # vt-probs, then the stream's blocks

    @pytest.mark.parametrize("sigma2_list", [(0.01, 0.2, 0.4), (0.2,)])
    def test_sweep_sigma_matches_full_horizon(self, default_scenario, sigma2_list):
        """A run still going at one point draws its repetition's next block, whichever point leads the list."""
        late = replace(default_scenario, base_seed=5, max_rounds=150).require_valid()
        eps_frac, mc_runs = 0.012, 10
        with counting_draws() as calls:
            res = experiment_sweep_sigma(
                late, sigma2_list=sigma2_list, bw_list=(1e6,), eps_frac=eps_frac, mc_runs=mc_runs
            )
        points = [replace(late, antenna=replace(late.antenna, sigma2=s2)) for s2 in sigma2_list]
        problem, runs = full_horizon(late, "ss-run", mc_runs, eps_frac, points)
        all_hits = np.concatenate([hits for _, hits in runs])
        assert np.any((all_hits > 0) & (all_hits <= BLOCK)) and np.any(all_hits > BLOCK)

        # the trajectories themselves, not only their crossing rounds
        seeds = [derive_seed(late.base_seed, "ss-run", rep) for rep in range(mc_runs)]
        eps_mean = eps_frac * problem.initial_loss_sum / problem.model.n_total
        trained = _train(problem.model, points, late.default_design(), late.max_rounds, seeds, eps_mean)
        for (state, hits), (want, want_hits) in zip(trained, runs):
            width = state.loss_history.shape[1]
            assert np.array_equal(hits, want_hits)
            assert np.array_equal(state.rounds, want.rounds)
            assert np.array_equal(state.loss_history, want.loss_history[:, :width], equal_nan=True)
            assert np.all(np.isnan(want.loss_history[:, width:]))
            assert np.array_equal(state.participation_rates(), want.participation_rates())
        for row, (state, _) in zip(res.rows, runs):
            mean, std, count = crossing_stats(problem, state, eps_frac)
            assert (row["empirical_mean"], row["empirical_std"], row["n_converged"]) == (mean, std, count)
        assert len(calls) == 1 + blocks_reached(runs)  # ss-probs, then the stream's blocks

    def test_block_drawn_once_per_repetition_not_per_point(self, default_scenario, monkeypatch):
        """A repetition's generator advances once per block its runs reach, however many points read it,
        and not at all once every run of it has crossed."""
        late = replace(default_scenario, base_seed=5, max_rounds=300).require_valid()
        points = [replace(late, antenna=replace(late.antenna, sigma2=s2)) for s2 in (0.01, 0.1, 0.2)]
        eps_frac, mc_runs = 0.012, 10
        problem, runs = full_horizon(late, "ss-run", mc_runs, eps_frac, points)
        rounds = np.array([state.rounds for state, _ in runs])  # (points, repetitions)
        reached = -(-rounds.max(axis=0) // BLOCK)  # blocks each repetition must draw
        # a repetition whose runs cross in different blocks at different points, and one done in the first block
        assert np.any(-(-rounds.min(axis=0) // BLOCK) < reached) and np.any(reached == 1)

        calls, draw_rows = [], channel._draw_rows

        def recording(scenario, rngs, size):
            calls.append([rng.bit_generator.seed_seq.entropy for rng in rngs])
            return draw_rows(scenario, rngs, size)

        monkeypatch.setattr(channel, "_draw_rows", recording)
        seeds = [derive_seed(late.base_seed, "ss-run", rep) for rep in range(mc_runs)]
        eps_mean = eps_frac * problem.initial_loss_sum / problem.model.n_total
        _train(problem.model, points, late.default_design(), late.max_rounds, seeds, eps_mean)
        assert all(len(set(call)) == len(call) for call in calls)  # no generator twice in one draw
        drawn = [sum(call.count(seed) for call in calls) for seed in seeds]
        assert drawn == reached.tolist()


class TestScoringDrawBesideTraining:
    """validate-theorem and sweep-sigma fill their scoring draw on a worker thread while the runs train."""

    RUNS = {
        "validate-theorem": lambda s: experiment_validate_theorem(s, eps_fracs=(0.1, 0.05), mc_runs=4),
        "sweep-sigma": lambda s: experiment_sweep_sigma(s, sigma2_list=(0.01, 0.2), bw_list=(1e6, 5e6), mc_runs=4),
    }

    @staticmethod
    def serial(calls):
        """channel._generate_beside made in order on one thread, counting its calls: the draw, then work()."""

        def generate_then_work(scenario, samples_k, rng_seed, work):
            calls.append(rng_seed)
            samples = ScenarioSamples.generate(scenario, samples_k, rng_seed)
            return samples, work()

        return generate_then_work

    @pytest.mark.parametrize("command", RUNS)
    def test_rows_equal_a_serial_run_bit_for_bit(self, small_scenario, monkeypatch, command):
        got = self.RUNS[command](small_scenario)
        calls = []
        monkeypatch.setattr(experiments, "_generate_beside", self.serial(calls))
        want = self.RUNS[command](small_scenario)
        assert len(calls) == 1
        assert got.rows == want.rows

    @pytest.mark.parametrize("where", ["training", "fill"])
    @pytest.mark.parametrize("command", RUNS)
    def test_an_error_reaches_the_caller_with_its_type(self, small_scenario, monkeypatch, command, where):
        """An exception from the training, or from the worker's fill, reaches the caller; no thread is left."""

        class Raised(Exception):
            pass

        caller, fill_rows = threading.get_ident(), channel._fill_rows

        def failing_training(*args):
            raise Raised(where)

        def failing_off_the_caller(*args):  # the stream's own fills, on the calling thread, run as before
            if threading.get_ident() != caller:
                raise Raised(where)
            return fill_rows(*args)

        if where == "training":
            monkeypatch.setattr(experiments, "_train", failing_training)
        else:
            monkeypatch.setattr(channel, "_fill_rows", failing_off_the_caller)
        threads = threading.active_count()
        with pytest.raises(Raised, match=where):
            self.RUNS[command](small_scenario)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("command", RUNS)
    def test_traced_functions_run_on_the_calling_thread(self, small_scenario, monkeypatch, command):
        """Only the scoring draw's fill leaves the calling thread: every function perfbench's tracer wraps
        runs on it."""
        import sys

        from test_public_names import tracer_targets

        seen = []  # (function, thread) of every call

        def on_thread(name, fn):
            def wrapped(*args, **kwargs):
                seen.append((name, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapped

        modules = [m for key, m in list(sys.modules.items()) if m is not None and key.startswith("swarmfl")]
        for module, function in tracer_targets():
            original = getattr(importlib.import_module(f"swarmfl.{module}"), function)
            for mod in modules:
                if getattr(mod, function, None) is original:
                    monkeypatch.setattr(mod, function, on_thread(f"{module}.{function}", original))
        monkeypatch.setattr(channel, "_fill_rows", on_thread("channel._fill_rows", channel._fill_rows))
        self.RUNS[command](small_scenario)
        caller = threading.get_ident()
        assert {name for name, thread in seen if thread != caller} == {"channel._fill_rows"}
        assert {"fl.run_fl", "seeds.derive_seed"} <= {name for name, _ in seen}

    def test_traced_peak_of_the_benchmark_sweep(self):
        """sweep-sigma on the mc-train benchmark's scenario and grid peaks at most 5% above 8.38 MB.

        Measured on numpy 2.4.6: 8.38 MB, against 5.77 MB when the ss-probs
        draw was made before training.  The scoring draw's jitter, the real
        parts of its fadings, one imaginary buffer they share and its
        uniforms, 4.4 MB at 10**4 samples, are held while the runs train.
        One imaginary buffer per fading held as well peaked at 9.39 MB.
        """
        from test_channel import traced_peak

        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        scenario = load_scenario(PERFBENCH / "scenarios" / "mc-train.json")
        peak = traced_peak(lambda: experiment_sweep_sigma(
            scenario, sigma2_list=bench.SIGMA2_GRID, bw_list=bench.BW_GRID, eps_frac=bench.SWEEP_EPS_FRAC
        ))
        assert peak <= 1.05 * 8.38e6


class TestOptimize:
    def test_trace_plus_result(self, small_scenario):
        res = experiment_optimize(small_scenario)
        records = [r["record"] for r in res.rows]
        assert records[-1] == "result"
        assert all(rec == "iteration" for rec in records[:-1])
        assert len(records) >= 2
        final = res.rows[-1]
        assert final["predicted_round"] >= 1
        assert final["p_1"] is not None
        for row in res.rows[:-1]:
            assert row["dual_value"] is not None
            assert row.get("predicted_round") is None


class TestByteReproducibility:
    def test_same_process_rerun_identical(self, small_scenario, tmp_path):
        a = experiment_simulate(small_scenario, mc_runs=3, eps_frac=0.25)
        b = experiment_simulate(small_scenario, mc_runs=3, eps_frac=0.25)
        emit_csv(a, tmp_path / "a.csv")
        emit_csv(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
