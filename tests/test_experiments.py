"""Experiment tables: column layout, CSV bytes, reproducibility."""

import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from swarmfl import channel
from swarmfl.channel import ScenarioSamples, participation_masks
from swarmfl.convergence import ROUND_CAP
from swarmfl.design import DesignVector
from swarmfl.experiments import (
    ExperimentResult,
    emit_csv,
    experiment_compare_designs,
    experiment_optimize,
    experiment_simulate,
    experiment_sweep_sigma,
    experiment_validate_theorem,
)
from swarmfl.saa import baseline_design, problem_constants
from swarmfl.seeds import derive_seed


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
        assert lines[0] == "name,weight,flag,note,n"
        assert lines[1] == "alpha,0.123456789,1,,7"
        assert lines[2] == "beta,2,0,x,-1"
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

    def test_meta_not_in_bytes(self, tmp_path):
        result = self.make_result()
        emit_csv(result, tmp_path / "one.csv")
        result.meta["wall_time_s"] = 123.456
        emit_csv(result, tmp_path / "two.csv")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


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
    """A list that gains one entry per draw_channel call, at every swarmfl module that binds it."""
    original, calls = channel.draw_channel, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        for name, module in list(sys.modules.items()):
            if name.startswith("swarmfl") and getattr(module, "draw_channel", None) is original:
                mp.setattr(module, "draw_channel", counting)
        yield calls


@pytest.fixture(scope="module")
def compare_draws(small_scenario):
    """compare-designs at two bandwidths, and the number of draw_channel calls it made."""
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
    def test_two_channel_draws_per_bandwidth(self, compare_draws):
        """saa-samples and cd-probs: the solve and the designs do not redraw the channel."""
        assert compare_draws[1] == 2 * len(COMPARE_BWS)

    def test_designs_scored_on_the_cd_probs_draw(self, compare, small_scenario):
        n = small_scenario.n_followers
        for k_bw, bw in enumerate(COMPARE_BWS):
            point = replace(small_scenario, radio=replace(small_scenario.radio, bw_up=bw, bw_down=bw))
            seed = derive_seed(small_scenario.base_seed, "cd-probs", k_bw)
            samples = ScenarioSamples.generate(point, point.n_success_samples, seed)
            row = compare.rows[3 * k_bw]
            joint = _design_of(row, n)
            want = [row[f"success_prob_{i + 1}"] for i in range(n)]
            assert np.array_equal(samples.success_probs(joint, point), want)
            designs = [joint] + [
                baseline_design(kind, joint, point, d)
                for kind in ("power-only", "scheduling-only") for d in range(3)
            ]
            for design in designs:
                masks = participation_masks([point], design, point.n_success_samples, [seed])
                assert np.array_equal(
                    samples.success_probs(design, point), masks[0, 0].mean(axis=0)
                )

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

    def test_wall_time_varies_but_bytes_do_not(self, small_scenario, tmp_path):
        a = experiment_simulate(small_scenario, mc_runs=2, eps_frac=0.25)
        b = experiment_simulate(small_scenario, mc_runs=2, eps_frac=0.25)
        assert "wall_time_s" in a.meta and "wall_time_s" in b.meta
        emit_csv(a, tmp_path / "a.csv")
        emit_csv(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
