"""Antenna gains, fading, link delays, and success-probability estimation.

Numeric oracles are recomputed inline from first principles (link-budget
arithmetic, trigonometric identities) rather than read back from the
implementation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmfl import channel
from swarmfl.channel import (
    AntennaPattern,
    ChannelDraw,
    Interferer,
    InterferenceField,
    ScenarioSamples,
    antenna_gain_exact,
    antenna_gain_sectionalized,
    draw_channel,
    estimate_success_probs,
    link_delays,
    participation_masks,
    rician_power_fading,
    sinr_coefficients,
    success_mask,
)
from swarmfl.design import DesignVector
from swarmfl.scenario import SwarmScenario

G_MIN_DEFAULT = 10.0 ** -0.2


def one_follower_scenario(default_scenario, distance=100.0, bw=1e6, interferers=()):
    from swarmfl.energy import ControlRequirements

    radio = replace(default_scenario.radio, bw_up=bw, bw_down=bw)
    return replace(
        default_scenario,
        n_followers=1,
        distances=(distance,),
        radio=radio,
        control=ControlRequirements(tau=(0.05,)),
        uplink_interference=InterferenceField(tuple(interferers)),
        downlink_interference=InterferenceField(tuple(interferers)),
    )


def unit_draw(n_followers=1, n_up=0, n_down=0):
    """A fully deterministic draw: boresight angles, unit fading."""
    return ChannelDraw(
        angle_dev=np.zeros(n_followers + 1),
        fading_up=np.ones(n_followers),
        fading_down=np.ones(n_followers),
        fading_up_interf=np.ones(n_up),
        fading_down_interf=np.ones((n_down, n_followers)),
        active_up=np.ones(n_up, dtype=bool),
        active_down=np.ones(n_down, dtype=bool),
    )


def uplink_s(draw, design, scenario):
    """Upload delay of the only follower under one draw [s]."""
    return float(link_delays(draw, design, scenario)[0][0])


def downlink_s(draw, design, scenario):
    """Broadcast delay toward the only follower under one draw [s]."""
    return float(link_delays(draw, design, scenario)[1][0])


def design_for(scenario, p=0.5, beta=0.5, v=10.0):
    return DesignVector(
        p=np.full(scenario.n_followers, p), p_leader=p, beta=beta, v=v
    )


class TestExactGain:
    def test_boresight_is_unity(self):
        assert antenna_gain_exact(AntennaPattern(), 0.0) == 1.0

    def test_half_angle_value(self):
        # cos^2(pi/4) = 1/2 exactly
        assert antenna_gain_exact(AntennaPattern(), 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_outside_main_lobe_returns_floor(self):
        g = antenna_gain_exact(AntennaPattern(), 1.5)
        assert g == pytest.approx(G_MIN_DEFAULT, rel=1e-12)
        assert g == pytest.approx(0.631, rel=1e-3)

    def test_edge_of_lobe_is_zero(self):
        assert antenna_gain_exact(AntennaPattern(), 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_in_sign(self, rng):
        a = rng.uniform(-2, 2, size=50)
        p = AntennaPattern()
        assert np.allclose(antenna_gain_exact(p, a), antenna_gain_exact(p, -a))

    def test_floor_exceeds_main_lobe_near_edge(self):
        # Known quirk of the piecewise model: the constant side-lobe floor is
        # larger than the main-lobe gain close to the lobe edge.  The model
        # keeps the main-lobe expression inside |angle| <= 1 regardless.
        assert antenna_gain_exact(AntennaPattern(), 0.7) < G_MIN_DEFAULT

    def test_bounded(self, rng):
        g = antenna_gain_exact(AntennaPattern(), rng.uniform(-3, 3, size=200))
        assert np.all((g >= 0.0) & (g <= 1.0))


class TestSectionalizedGain:
    def test_section_index_example(self):
        # section m = floor(0.3 * 4) = 1 -> cos^2(pi * 1 / 8)
        p = AntennaPattern(sections=4)
        want = math.cos(math.pi / 8.0) ** 2
        assert antenna_gain_sectionalized(p, 0.3) == pytest.approx(want, rel=1e-12)

    def test_near_boresight_is_unity(self):
        p = AntennaPattern(sections=8)
        assert antenna_gain_sectionalized(p, 0.01) == 1.0

    def test_outside_lobe_returns_floor(self):
        p = AntennaPattern(sections=8)
        assert antenna_gain_sectionalized(p, 2.0) == pytest.approx(G_MIN_DEFAULT)

    def test_refinement_limit(self):
        # cos^2(pi x / 2) has Lipschitz constant pi/2 on [0, 1]; the staircase
        # with M sections therefore sits within (pi/2) * (pi / (2M)) of the
        # smooth curve.
        m = 64
        p = AntennaPattern(sections=m)
        grid = np.linspace(0.0, 0.999, 2001)
        err = np.abs(
            antenna_gain_sectionalized(p, grid) - antenna_gain_exact(p, grid)
        )
        assert err.max() <= (math.pi / 2.0) * (math.pi / (2.0 * m)) + 1e-12

    def test_staircase_upper_bounds_curve_inside_lobe(self):
        # Each section reports the gain at its inner edge, which dominates the
        # decreasing smooth profile across that section.
        p = AntennaPattern(sections=8)
        grid = np.linspace(0.0, 0.999, 500)
        assert np.all(
            antenna_gain_sectionalized(p, grid) >= antenna_gain_exact(p, grid) - 1e-12
        )


class TestFadingAndDraws:
    def test_rician_power_unit_mean(self):
        rng = np.random.default_rng(7)
        h = rician_power_fading(rng, 10.0, 10**5)
        assert np.all(h > 0)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - 1.0) < 3 * se

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k_factor=st.floats(0.0, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_rician_unit_mean_any_k(self, k_factor, seed):
        h = rician_power_fading(np.random.default_rng(seed), k_factor, 20000)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - 1.0) <= 4 * se

    def test_rician_line_of_sight_limit(self):
        rng = np.random.default_rng(7)
        h = rician_power_fading(rng, 1e12, 1000)
        assert np.max(np.abs(h - 1.0)) < 1e-4

    def test_zero_jitter_degenerates(self, default_scenario):
        s = replace(default_scenario, antenna=replace(default_scenario.antenna, sigma2=0.0))
        draw = draw_channel(s, np.random.default_rng(42))
        assert np.all(draw.angle_dev == 0.0)

    def test_jitter_variance_statistical(self, default_scenario):
        s = replace(default_scenario, antenna=replace(default_scenario.antenna, sigma2=0.04))
        rng = np.random.default_rng(11)
        draw = draw_channel(s, rng, size=20000)
        samples = draw.angle_dev.ravel()
        var = samples.var(ddof=1)
        se = 0.04 * math.sqrt(2.0 / (samples.size - 1))
        assert abs(var - 0.04) < 3 * se

    def test_draw_shapes(self, default_scenario):
        i = default_scenario.n_followers
        ju = len(default_scenario.uplink_interference)
        jd = len(default_scenario.downlink_interference)
        draw = draw_channel(default_scenario, np.random.default_rng(5))
        assert draw.angle_dev.shape == (i + 1,)
        assert draw.fading_up.shape == (i,)
        assert draw.fading_down.shape == (i,)
        assert draw.fading_up_interf.shape == (ju,)
        assert draw.fading_down_interf.shape == (jd, i)
        assert draw.active_up.shape == (ju,)
        batch = draw_channel(default_scenario, np.random.default_rng(5), size=7)
        assert batch.fading_down_interf.shape == (7, jd, i)

    def test_same_seed_same_draw_and_delays(self, default_scenario):
        d1 = draw_channel(default_scenario, np.random.default_rng(33))
        d2 = draw_channel(default_scenario, np.random.default_rng(33))
        design = default_scenario.default_design()
        for name in ("angle_dev", "fading_up", "fading_down", "fading_up_interf"):
            assert np.array_equal(getattr(d1, name), getattr(d2, name))
        t1 = link_delays(d1, design, default_scenario)
        t2 = link_delays(d2, design, default_scenario)
        assert np.array_equal(t1[0], t2[0]) and np.array_equal(t1[1], t2[1])


class TestLinkDelays:
    def test_uplink_link_budget_oracle(self, default_scenario):
        # 0.5 W at 100 m, free path loss exponent 2.5, unity gains and fading,
        # 1 MHz, 80 kbit packet, noise density 10^-20.4 W/Hz.
        s = one_follower_scenario(default_scenario)
        design = design_for(s, p=0.5)
        draw = unit_draw()
        snr = 0.5 * 100.0 ** -2.5 / (1e6 * 10.0 ** -20.4)
        want = 8e4 / (1e6 * math.log2(1.0 + snr))
        got = uplink_s(draw, design, s)
        assert got == pytest.approx(want, rel=1e-12)
        assert snr == pytest.approx(1.26e9, rel=5e-3)
        assert got == pytest.approx(2.65e-3, rel=2e-3)

    def test_downlink_matches_symmetric_uplink(self, default_scenario):
        s = one_follower_scenario(default_scenario)
        design = design_for(s, p=0.5)
        draw = unit_draw()
        up = uplink_s(draw, design, s)
        dn = downlink_s(draw, design, s)
        assert dn == pytest.approx(up, rel=1e-12)

    def test_delay_linear_in_packet_size(self, default_scenario):
        s = one_follower_scenario(default_scenario)
        s2 = replace(s, radio=replace(s.radio, pkt_local=2 * s.radio.pkt_local))
        design = design_for(s)
        draw = unit_draw()
        assert uplink_s(draw, design, s2) == pytest.approx(
            2.0 * uplink_s(draw, design, s), rel=1e-12
        )

    def test_active_interferer_strictly_slows(self, default_scenario):
        interferer = Interferer(distance=300.0, power=1.0, gain_product=0.1, active_prob=1.0)
        s_clean = one_follower_scenario(default_scenario)
        s_noisy = one_follower_scenario(default_scenario, interferers=(interferer,))
        design = design_for(s_clean)
        clean = uplink_s(unit_draw(), design, s_clean)
        noisy = uplink_s(unit_draw(n_up=1, n_down=1), design, s_noisy)
        assert noisy > clean

    def test_monotone_in_power_distance_bandwidth(self, default_scenario):
        base = one_follower_scenario(default_scenario)
        draw = unit_draw()
        lo = uplink_s(draw, design_for(base, p=0.1), base)
        hi = uplink_s(draw, design_for(base, p=0.5), base)
        assert hi < lo
        near = uplink_s(draw, design_for(base), base)
        far = uplink_s(
            draw, design_for(base), one_follower_scenario(default_scenario, distance=150.0)
        )
        assert far > near
        wide = uplink_s(
            draw, design_for(base), one_follower_scenario(default_scenario, bw=5e6)
        )
        assert wide < near

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(1e-3, 0.5), bw=st.floats(1e4, 1e8), distance=st.floats(1.0, 1000.0),
        factor=st.floats(1.0, 10.0),
    )
    def test_delay_monotone_property(self, default_scenario, p, bw, distance, factor):
        """More power or bandwidth never slows a link, more distance never
        speeds it up (up to rounding), with an interferer in the SINR."""
        interferer = Interferer(distance=300.0, power=1.0, gain_product=0.1, active_prob=1.0)
        draw = unit_draw(n_up=1, n_down=1)

        def delays(p=p, bw=bw, distance=distance):
            s = one_follower_scenario(default_scenario, distance, bw, (interferer,))
            return np.concatenate(link_delays(draw, design_for(s, p=p), s))

        base = delays()
        slack = base * (1.0 + 1e-12)
        assert np.all(delays(p=p * factor) <= slack)
        assert np.all(delays(bw=bw * factor) <= slack)
        assert np.all(delays(distance=distance * factor) >= base * (1.0 - 1e-12))

    def test_nonpositive_power_rejected(self, default_scenario):
        s = one_follower_scenario(default_scenario)
        bad = DesignVector(p=np.array([0.0]), p_leader=0.5, beta=0.5, v=10.0)
        with pytest.raises(ValueError):
            link_delays(unit_draw(), bad, s)


class TestSuccessProbability:
    def test_easy_links_always_succeed(self, easy_scenario):
        probs = estimate_success_probs(
            easy_scenario.default_design(), easy_scenario, n_samples=500, rng_seed=1
        )
        assert np.all(probs == 1.0)

    def test_starved_downlink_window_fails(self, default_scenario):
        design = replace(default_scenario.default_design(), beta=0.999)
        probs = estimate_success_probs(design, default_scenario, n_samples=500, rng_seed=1)
        assert np.all(probs < 0.01)

    def test_estimates_self_consistent(self, default_scenario):
        design = default_scenario.default_design()
        small = estimate_success_probs(design, default_scenario, n_samples=10**4, rng_seed=3)
        big = estimate_success_probs(design, default_scenario, n_samples=10**6, rng_seed=4)
        se = np.sqrt(np.maximum(big * (1 - big), 1e-12) / 10**4)
        assert np.all(np.abs(small - big) <= 3 * se)

    def test_estimate_is_mean_of_masks(self, default_scenario):
        design = default_scenario.default_design()
        probs = estimate_success_probs(design, default_scenario, n_samples=2000, rng_seed=9)
        masks = participation_masks([default_scenario], design, 2000, [9])
        assert np.array_equal(probs, masks[0, 0].mean(axis=0))

    def test_bandwidth_points_share_one_draw(self, default_scenario):
        design = default_scenario.default_design()
        points = [
            replace(default_scenario, radio=replace(default_scenario.radio, bw_up=bw, bw_down=bw))
            for bw in (1e6, 2e6, 5e6)
        ]
        samples = ScenarioSamples.generate(points[0], 2000, 9)
        for point in points:
            shared = samples.success_probs(design, point)
            assert shared.shape == (default_scenario.n_followers,)
            alone = estimate_success_probs(design, point, n_samples=2000, rng_seed=9)
            assert np.array_equal(shared, alone)

    @settings(max_examples=25, deadline=None)
    @given(
        sigma2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        bw=st.floats(2e5, 1e7),
        sectionalized=st.booleans(),
    )
    def test_any_jitter_variance_and_bandwidth_read_one_draw(self, default_scenario, sigma2, bw, sectionalized):
        base = replace(default_scenario, use_sectionalized_gain=sectionalized)
        point = replace(
            base,
            antenna=replace(base.antenna, sigma2=sigma2),
            radio=replace(base.radio, bw_up=bw, bw_down=bw),
        )
        design = base.default_design()
        samples = ScenarioSamples.generate(base, 300, 9)
        alone = sinr_coefficients(draw_channel(point, np.random.default_rng(9), size=300), point)
        for shared, own in zip(samples.kernels(point), alone):
            assert np.array_equal(shared, own)
        assert np.array_equal(
            samples.success_probs(design, point), estimate_success_probs(design, point, 300, 9)
        )
        points = [point, base, replace(point, radio=base.radio), point, replace(base, radio=point.radio)]
        grid = participation_masks(points, design, 40, [3, 4])
        for k, one in enumerate(points):
            assert np.array_equal(grid[k], participation_masks([one], design, 40, [3, 4])[0])

    def test_frozen_samples_reject_other_draw_statistics(self, default_scenario):
        design = default_scenario.default_design()
        samples = ScenarioSamples.generate(default_scenario, 100, 9)
        other_k = replace(default_scenario, radio=replace(default_scenario.radio, rician_k=3.0))
        first, *rest = default_scenario.downlink_interference.interferers
        quieter = replace(
            default_scenario,
            downlink_interference=InterferenceField((replace(first, active_prob=0.1), *rest)),
        )
        for point in (other_k, quieter):
            with pytest.raises(ValueError, match="antenna.sigma2, radio.bw_up and radio.bw_down"):
                samples.success_probs(design, point)

    def test_sample_count_checked(self, default_scenario):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_success_probs(default_scenario.default_design(), default_scenario, 0, 1)

    def test_success_mask_windows(self):
        t_up = np.array([[0.02, 0.05], [0.02, 0.02]])
        t_dn = np.array([[0.01, 0.01], [0.09, 0.01]])
        got = success_mask(t_up, t_dn, beta=0.35, round_time=0.1)
        want = np.array([[True, False], [False, True]])
        assert np.array_equal(got, want)


class TestMaskWindows:
    """participation_masks over the first rounds of the budget, repetitions stacked in row-budget groups."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_rounds=st.integers(1, 30),
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5),
        grid=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(2e5, 1e7)), min_size=1, max_size=3),
        budget=st.integers(1, 40),
    )
    def test_window_equals_rounds_of_full_horizon(self, default_scenario, data, n_rounds, seeds, grid, budget):
        stop = data.draw(st.integers(0, n_rounds), label="stop")
        points = [
            replace(
                default_scenario,
                antenna=replace(default_scenario.antenna, sigma2=sigma2),
                radio=replace(default_scenario.radio, bw_up=bw, bw_down=bw),
            )
            for sigma2, bw in grid
        ]
        design = default_scenario.default_design()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_ROW_BUDGET", budget)  # groups split mid-list
            window = participation_masks(points, design, n_rounds, seeds, stop)
            full = participation_masks(points, design, n_rounds, seeds)
        assert window.shape == (len(points), len(seeds), stop, default_scenario.n_followers)
        assert np.array_equal(window, full[:, :, :stop, :])
        for r, seed in enumerate(seeds):  # each repetition's own draw, read alone
            own = ScenarioSamples.generate(points[0], n_rounds, seed)
            for k, point in enumerate(points):
                assert np.array_equal(full[k, r], own._masks(design, point))

    @pytest.mark.parametrize("sectionalized", [False, True])
    def test_stacked_kernels_equal_each_draws_own(self, default_scenario, sectionalized):
        """Kernels of stacked windows equal the same rows of each repetition's draw, bit for bit."""
        base = replace(default_scenario, use_sectionalized_gain=sectionalized)
        seeds, n_rounds, stop = [5, 6, 7], 50, 41
        stacked = channel._stacked_windows(base, n_rounds, seeds, stop)
        for sigma2, bw in [(base.antenna.sigma2, base.radio.bw_up), (0.0, 2e6), (0.3, 1e6)]:
            antenna, radio = replace(base.antenna, sigma2=sigma2), replace(base.radio, bw_up=bw, bw_down=bw)
            point = replace(base, antenna=antenna, radio=radio)
            kernels = stacked.kernels(point)
            for r, seed in enumerate(seeds):
                own = ScenarioSamples.generate(base, n_rounds, seed).kernels(point)
                rows = slice(r * stop, (r + 1) * stop)
                for got, want in zip(kernels, own):
                    assert np.array_equal(got[rows], want[:stop])

    def test_empty_points_rejected(self, default_scenario):
        with pytest.raises(ValueError, match="points"):
            participation_masks([], default_scenario.default_design(), 3, [1])

    @pytest.mark.parametrize("stop", [-1, 6])
    def test_window_bounds_checked(self, default_scenario, stop):
        with pytest.raises(ValueError, match=r"0 <= stop <= n_rounds, got -?\d+, 5"):
            participation_masks([default_scenario], default_scenario.default_design(), 5, [1], stop)

    def test_empty_window_draws_nothing(self, default_scenario, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "draw_channel", lambda *a, **k: calls.append(1))
        out = participation_masks([default_scenario], default_scenario.default_design(), 5, [1, 2], stop=0)
        assert out.shape == (1, 2, 0, default_scenario.n_followers)
        assert calls == []


class TestValidation:
    def test_component_validators_flag_bad_values(self):
        def errors(**kwargs):
            return SwarmScenario(**kwargs).validate()

        assert errors(antenna=AntennaPattern(sigma2=-1.0)) == ["antenna.sigma2 must be >= 0"]
        assert errors(antenna=AntennaPattern(theta_init=np.nan)) == ["antenna.theta_init must be finite"]
        bad = (
            Interferer(distance=10.0, power=-2.0, gain_product=0.1, active_prob=0.5),
            Interferer(distance=10.0, power=1.0, gain_product=0.1, active_prob=1.5),
            Interferer(distance=-5.0, power=1.0, gain_product=0.1, active_prob=0.5),
        )
        assert errors(downlink_interference=InterferenceField(bad)) == [
            "downlink_interference[0].power must be >= 0",
            "downlink_interference[1].active_prob must be in [0, 1]",
            "downlink_interference[2].distance must be > 0",
        ]
