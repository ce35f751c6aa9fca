"""Antenna gains, fading, link delays, and success-probability estimation.

Numeric oracles are recomputed inline from first principles (link-budget
arithmetic, trigonometric identities) rather than read back from the
implementation.
"""

import math
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    sinr_coefficients,
    success_mask,
)
from swarmfl.design import DesignVector
from swarmfl.saa import sample_delays
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


def rician_fading(rng, k_factor, size):
    """channel._rician_in_place on two fresh arrays of standard normals from rng, real part first."""
    re = np.asarray(rng.standard_normal(size))
    return channel._rician_in_place(re, np.asarray(rng.standard_normal(size)), k_factor)


class TestFadingAndDraws:
    def test_rician_power_unit_mean(self):
        rng = np.random.default_rng(7)
        h = rician_fading(rng, 10.0, 10**5)
        assert np.all(h > 0)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - 1.0) < 3 * se

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k_factor=st.floats(0.0, 1e6), seed=st.integers(0, 2**32 - 1))
    def test_rician_unit_mean_any_k(self, k_factor, seed):
        h = rician_fading(np.random.default_rng(seed), k_factor, 20000)
        se = h.std(ddof=1) / math.sqrt(h.size)
        assert abs(h.mean() - 1.0) <= 4 * se

    def test_rician_line_of_sight_limit(self):
        rng = np.random.default_rng(7)
        h = rician_fading(rng, 1e12, 1000)
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


def per_field_draw(scenario, rng, size):
    """Oracle: the channel stream field by field, one generator call per field and per fading part."""
    n_f = scenario.n_followers
    j_up, j_dn = len(scenario.uplink_interference), len(scenario.downlink_interference)
    shape = () if size is None else (size,)
    k = scenario.radio.rician_k
    los, scatter = np.sqrt(k / (k + 1.0)), np.sqrt(1.0 / (2.0 * (k + 1.0)))

    def fading(field_shape):
        re = los + scatter * rng.standard_normal(shape + field_shape)
        im = scatter * rng.standard_normal(shape + field_shape)
        return re * re + im * im

    def active(field):
        probs = np.array([it.active_prob for it in field.interferers], dtype=float)
        return rng.random(shape + (len(probs),)) < probs

    return ChannelDraw(
        angle_dev=np.sqrt(scenario.antenna.sigma2) * rng.standard_normal(shape + (n_f + 1,)),
        fading_up=fading((n_f,)),
        fading_down=fading((n_f,)),
        fading_up_interf=fading((j_up,)),
        fading_down_interf=fading((j_dn, n_f)),
        active_up=active(scenario.uplink_interference),
        active_down=active(scenario.downlink_interference),
    )


def assert_same_draw(got, want):
    for name, array in vars(want).items():
        assert getattr(got, name).shape == array.shape, name
        assert getattr(got, name).dtype == array.dtype, name
        assert np.array_equal(getattr(got, name), array), name


class TestRowDraws:
    """_draw_rows: rows of several generators at once, each row the draw_channel of its generator, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_followers=st.integers(1, 6),
        n_up=st.integers(0, 3),
        n_down=st.integers(0, 3),
        size=st.integers(1, channel.BLOCK + 1),
        rows_per_seed=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        sigma2=st.floats(0.0, 4.0).filter(lambda v: v != 1.0),
        k_factor=st.floats(0.0, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_followers=6, n_up=3, n_down=3, size=channel.BLOCK + 1, rows_per_seed=[3, 1], sigma2=0.01,
             k_factor=10.0, seed=1)
    @example(n_followers=1, n_up=0, n_down=0, size=1, rows_per_seed=[1], sigma2=0.0, k_factor=0.0, seed=2)
    def test_rows_equal_consecutive_draws(
        self, default_scenario, n_followers, n_up, n_down, size, rows_per_seed, sigma2, k_factor, seed
    ):
        base = edge_scenario(default_scenario, np.random.default_rng(seed), n_followers, n_up, n_down, False)
        point = replace(
            base, antenna=replace(base.antenna, sigma2=sigma2), radio=replace(base.radio, rician_k=k_factor)
        )
        seeds = [seed + j for j in range(len(rows_per_seed))]
        gens = [np.random.default_rng(s) for s in seeds]
        rows = channel._draw_rows(point, [g for g, n in zip(gens, rows_per_seed) for _ in range(n)], size)
        row = 0
        for s, n, gen in zip(seeds, rows_per_seed, gens):
            oracle, public = np.random.default_rng(s), np.random.default_rng(s)
            for _ in range(n):
                want = per_field_draw(point, oracle, size)
                assert_same_draw(draw_channel(point, public, size), want)
                assert_same_draw(ChannelDraw(**{name: a[row] for name, a in vars(rows).items()}), want)
                row += 1
            # every row consumed its generator exactly as the oracle's calls did
            assert gen.bit_generator.state == oracle.bit_generator.state == public.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(
        n_followers=st.integers(1, 6),
        n_up=st.integers(0, 3),
        n_down=st.integers(0, 3),
        sigma2=st.floats(0.0, 4.0).filter(lambda v: v != 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_draw_is_its_size_one_row(self, default_scenario, n_followers, n_up, n_down, sigma2, seed):
        base = edge_scenario(default_scenario, np.random.default_rng(seed), n_followers, n_up, n_down, True)
        point = replace(base, antenna=replace(base.antenna, sigma2=sigma2))
        one, row = np.random.default_rng(seed), np.random.default_rng(seed)
        single = draw_channel(point, one)
        assert_same_draw(single, per_field_draw(point, np.random.default_rng(seed), None))
        assert_same_draw(single, ChannelDraw(**{name: a[0] for name, a in vars(draw_channel(point, row, 1)).items()}))
        assert one.bit_generator.state == row.bit_generator.state

    @pytest.mark.parametrize("size", [None, 0, 1, 7, (3, 4)])
    @pytest.mark.parametrize("k_factor", [0.0, 10.0, 1e6])
    def test_rician_fading_is_the_two_normal_formula(self, size, k_factor):
        los, scatter = np.sqrt(k_factor / (k_factor + 1.0)), np.sqrt(1.0 / (2.0 * (k_factor + 1.0)))
        oracle = np.random.default_rng(3)
        re = los + scatter * oracle.standard_normal(size)
        im = scatter * oracle.standard_normal(size)
        normals = np.random.default_rng(3)
        first, second = np.asarray(normals.standard_normal(size)), np.asarray(normals.standard_normal(size))
        got = channel._rician_in_place(first, second, k_factor)
        assert got is first  # formed in the real part's array, a 0-d array in the scalar case
        assert got.shape == np.shape(re) and got.dtype == np.float64 and np.array_equal(got, re * re + im * im)


LEADING_SHAPES = st.one_of(
    st.just(()), st.tuples(st.integers(1, 4)), st.tuples(st.integers(1, 4), st.integers(1, 4))
)


def random_field(rng, n_interferers):
    return InterferenceField(tuple(
        Interferer(
            distance=rng.uniform(10.0, 500.0),
            power=rng.uniform(0.0, 3.0),
            gain_product=rng.uniform(0.0, 1.0),
            active_prob=rng.uniform(0.0, 1.0),
        )
        for _ in range(n_interferers)
    ))


def interferer_coefficients(field, alpha):
    """Power times path loss times gain product of each interferer, in that order, (J,)."""
    distance = np.array([it.distance for it in field.interferers], dtype=float)
    power = np.array([it.power for it in field.interferers], dtype=float)
    gain = np.array([it.gain_product for it in field.interferers], dtype=float)
    return power * distance ** (-alpha) * gain


class TestInterferenceLayout:
    """_interference_power: fading (..., J, V) and activity (..., J) in, one column per victim receiver out."""

    @settings(max_examples=200, deadline=None)
    @given(
        n_interferers=st.integers(0, 12),
        n_victims=st.integers(1, 5),
        lead=LEADING_SHAPES,
        alpha=st.floats(1.5, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_interferers=0, n_victims=1, lead=(), alpha=2.5, seed=0)
    @example(n_interferers=0, n_victims=5, lead=(3,), alpha=2.5, seed=0)
    @example(n_interferers=0, n_victims=2, lead=(2, 4), alpha=2.5, seed=0)
    @example(n_interferers=12, n_victims=2, lead=(2, 4), alpha=2.5, seed=0)
    @example(n_interferers=7, n_victims=1, lead=(3,), alpha=2.5, seed=0)
    def test_sum_equals_explicit_loop(self, n_interferers, n_victims, lead, alpha, seed):
        """Interferers add in order; a single victim column of 8 or more is numpy's pairwise
        sum instead (test_uplink_column_equals_single_victim_sum)."""
        assume(n_victims >= 2 or n_interferers < 8)
        rng = np.random.default_rng(seed)
        field = random_field(rng, n_interferers)
        fading = rng.exponential(size=lead + (n_interferers, n_victims))
        fading[rng.random(fading.shape) < 0.1] = 0.0
        active = rng.random(lead + (n_interferers,)) < 0.5
        got = channel._interference_power(field, fading, active, alpha)
        assert isinstance(got, np.ndarray) and got.shape == lead + (n_victims,) and got.dtype == float
        coef = interferer_coefficients(field, alpha)
        want = np.zeros(lead + (n_victims,))  # no interferers: zeros of the victims' shape
        for idx in np.ndindex(*lead):
            for v in range(n_victims):
                total = 0.0
                for j in range(n_interferers):
                    total += coef[j] * fading[idx + (j, v)] * active[idx + (j,)]
                want[idx + (v,)] = total
        assert np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        n_interferers=st.integers(1, 9),
        lead=st.one_of(LEADING_SHAPES, st.just((2000,))),
        alpha=st.floats(1.5, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_uplink_column_equals_single_victim_sum(self, n_interferers, lead, alpha, seed):
        """The leader as one victim column reads the bits of a sum over a (..., J) layout."""
        rng = np.random.default_rng(seed)
        field = random_field(rng, n_interferers)
        fading = rng.exponential(size=lead + (n_interferers,))
        active = rng.random(lead + (n_interferers,)) < 0.5
        got = channel._interference_power(field, fading[..., None], active, alpha)
        want = (interferer_coefficients(field, alpha) * fading * active).sum(axis=-1)[..., None]
        assert got.shape == want.shape and np.array_equal(got, want)


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

    def test_vanishing_bandwidth_reads_infinite_sinr_quietly(self, default_scenario):
        """At bw = 1e-300 with no interferer the noise term is subnormal and the
        SINR per watt overflows to inf, with no RuntimeWarning."""
        quiet = one_follower_scenario(default_scenario, bw=1e-300)
        draws = draw_channel(quiet, np.random.default_rng(3), size=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            c_up, c_dn = sinr_coefficients(draws, quiet)
            read_up, read_dn = ScenarioSamples.generate(quiet, 64, 3).own_kernels
        assert np.all(np.isposinf(c_up)) and np.all(np.isposinf(c_dn))
        assert np.all(np.isposinf(read_up)) and np.all(np.isposinf(read_dn))

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
        """Delays and both mask paths share one power check, with one message."""
        s = one_follower_scenario(default_scenario)
        samples = ScenarioSamples.generate(s, 10, 1)
        calls = (
            lambda design: link_delays(unit_draw(), design, s),
            lambda design: samples.success_probs(design),
            lambda design: participation_masks([s], design, 3, [1]),
        )
        for value in (0.0, -0.5, np.nan):
            for bad in (
                DesignVector(p=np.array([value]), p_leader=0.5, beta=0.5, v=10.0),
                DesignVector(p=np.array([0.5]), p_leader=value, beta=0.5, v=10.0),
            ):
                for call in calls:
                    with pytest.raises(ValueError, match="transmit powers must be positive"):
                        call(bad)
        wrong_shape = DesignVector(p=np.array([0.5, 0.5]), p_leader=0.5, beta=0.5, v=10.0)
        for call in calls:
            with pytest.raises(ValueError, match=r"design.p has shape \(2,\), expected \(1,\)"):
                call(wrong_shape)


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
        draws = draw_channel(default_scenario, np.random.default_rng(9), size=2000)
        t_up, t_dn = link_delays(draws, design, default_scenario)
        masks = success_mask(t_up, t_dn, design.beta, default_scenario.round_time_s)
        assert np.array_equal(probs, masks.mean(axis=0))

    def test_bandwidth_points_share_one_draw(self, default_scenario):
        design = default_scenario.default_design()
        points = [
            replace(default_scenario, radio=replace(default_scenario.radio, bw_up=bw, bw_down=bw))
            for bw in (1e6, 2e6, 5e6)
        ]
        samples = ScenarioSamples.generate(points[0], 2000, 9)
        for point in points:
            shared = samples.at(point).success_probs(design)
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
        for shared, own in zip(samples.at(point).own_kernels, alone):  # follower-major: (I, K) against (K, I)
            assert np.array_equal(shared, own.T)
        assert np.array_equal(
            samples.at(point).success_probs(design), estimate_success_probs(design, point, 300, 9)
        )
        points = [point, base, replace(point, radio=base.radio), point, replace(base, radio=point.radio)]
        grid = participation_masks(points, design, 40, [3, 4])
        for k, one in enumerate(points):
            assert np.array_equal(grid[k], participation_masks([one], design, 40, [3, 4])[0])

    @pytest.mark.parametrize(
        "sigma2, bw", [(0.01, 1e6), (0.01, 2e6), (0.2, 5e6), (0.0, 2e5)], ids=["equal-copy", "bw", "both", "no-jitter"]
    )
    def test_a_view_reads_the_draws_at_its_point(self, default_scenario, sigma2, bw):
        """at(point) is the same draws with point as their own scenario: every
        read equals that of a draw made at point bit for bit, another view at
        point reads the same, and no array is copied."""
        samples = ScenarioSamples.generate(default_scenario, 300, 9)
        [point] = jitter_bw_points(default_scenario, [(sigma2, bw)])
        view = samples.at(point)
        assert view.scenario is point and view.k == samples.k and view.at(point) is view
        assert np.shares_memory(view.unit_jitter, samples.unit_jitter)
        for mine, theirs in zip(view.parts, samples.parts, strict=True):
            assert np.shares_memory(mine, theirs)
        draws = draw_channel(point, np.random.default_rng(9), size=300)
        want = [c.T for c in sinr_coefficients(draws, point)]  # follower-major
        for reads in (view.own_kernels, samples.at(point).own_kernels):
            for got, one in zip(reads, want, strict=True):
                assert np.array_equal(got, one)
        for design in (default_scenario.default_design(), replace(default_scenario.default_design(), beta=0.3)):
            masks = success_mask(*link_delays(draws, design, point), design.beta, point.round_time_s)
            assert np.array_equal(view.success_probs(design), samples.at(point).success_probs(design))
            assert np.array_equal(view.success_probs(design), masks.mean(axis=0))
            assert np.array_equal(view._masks(design), samples.at(point)._masks(design))
            assert np.array_equal(view._masks(design), masks.T)

    def test_at_the_own_scenario_is_the_samples(self, default_scenario):
        samples = ScenarioSamples.generate(default_scenario, 50, 9)
        assert samples.at(samples.scenario) is samples

    def test_views_at_one_variance_share_the_signal_power(self, default_scenario, monkeypatch):
        """Three bandwidth views at one jitter variance compute the antenna gain
        once between them; a view at another variance computes it again."""
        calls, signal_power = [], channel._signal_power
        monkeypatch.setattr(channel, "_signal_power", lambda *args: calls.append(args) or signal_power(*args))
        samples = ScenarioSamples.generate(default_scenario, 200, 9)
        sigma2 = default_scenario.antenna.sigma2
        points = jitter_bw_points(default_scenario, [(sigma2, bw) for bw in (1e6, 2e6, 5e6)])
        views = [samples.at(point) for point in points]
        for view in views:
            view.own_kernels
        assert len(calls) == 1
        samples.own_kernels  # the drawn scenario is at the same variance
        assert len(calls) == 1
        [other] = jitter_bw_points(default_scenario, [(0.2, 2e6)])
        samples.at(other).own_kernels
        assert len(calls) == 2

    def test_frozen_samples_reject_other_draw_statistics(self, default_scenario):
        """Only the drawn scenario object skips the point check in at(point):
        an equal copy reads the same frequencies and kernels, and a point
        differing in any field but antenna.sigma2, radio.bw_up and
        radio.bw_down raises in at(point), and so in every read through it,
        also deep in the interference field."""
        design = default_scenario.default_design()
        samples = ScenarioSamples.generate(default_scenario, 100, 9)
        own = samples.success_probs(design)
        assert np.array_equal(samples.at(replace(default_scenario)).success_probs(design), own)
        copy_kernels = samples.at(replace(default_scenario)).own_kernels
        for got, want in zip(copy_kernels, samples.at(default_scenario).own_kernels, strict=True):
            assert np.array_equal(got, want)
        other_k = replace(default_scenario, radio=replace(default_scenario.radio, rician_k=3.0))
        other_path = replace(default_scenario, radio=replace(default_scenario.radio, pathloss_exp=4.0, noise_psd=1e-10))
        first, *rest = default_scenario.downlink_interference.interferers
        quieter = replace(
            default_scenario,
            downlink_interference=InterferenceField((replace(first, active_prob=0.1), *rest)),
        )
        points = {
            "radio.rician_k": other_k,
            "radio.pathloss_exp and noise_psd": other_path,
            "downlink_interference.active_prob": quieter,
        }

        def bumped(value):
            if is_dataclass(value):
                head = fields(value)[0].name
                return replace(value, **{head: bumped(getattr(value, head))})
            if isinstance(value, tuple):
                return (*value[:-1], bumped(value[-1]))
            return (not value) if isinstance(value, bool) else 2 * value + 1

        free = {("antenna", "sigma2"), ("radio", "bw_up"), ("radio", "bw_down")}
        for name in (f.name for f in fields(SwarmScenario)):
            if name not in ("antenna", "radio"):
                points[name] = replace(default_scenario, **{name: bumped(getattr(default_scenario, name))})
        for group in ("antenna", "radio"):
            part = getattr(default_scenario, group)
            for f in fields(part):
                if (group, f.name) not in free:
                    changed = replace(part, **{f.name: bumped(getattr(part, f.name))})
                    points[f"{group}.{f.name}"] = replace(default_scenario, **{group: changed})
        for name, point in points.items():
            assert point != default_scenario, name
            reads = (
                lambda: samples.at(point).success_probs(design), lambda: samples.at(point).own_kernels,
                lambda: samples.at(point),
            )
            for read in reads:
                with pytest.raises(ValueError, match="antenna.sigma2, radio.bw_up and radio.bw_down"):
                    read()

    def test_sample_count_checked(self, default_scenario):
        with pytest.raises(ValueError, match="n_samples"):
            estimate_success_probs(default_scenario.default_design(), default_scenario, 0, 1)

    def test_success_mask_windows(self):
        t_up = np.array([[0.02, 0.05], [0.02, 0.02]])
        t_dn = np.array([[0.01, 0.01], [0.09, 0.01]])
        got = success_mask(t_up, t_dn, beta=0.35, round_time=0.1)
        want = np.array([[True, False], [False, True]])
        assert np.array_equal(got, want)


def threshold(pkt, bw, window):
    """Oracle: the SINR at which a packet's delay equals window, inf where it overflows."""
    try:
        return math.expm1(pkt * math.log(2.0) / (bw * window))
    except OverflowError:
        return math.inf


def ulps(x, n):
    """x moved n ulps, up for n > 0 and down for n < 0."""
    for _ in range(abs(n)):
        x = np.nextafter(x, math.copysign(math.inf, n))
    return float(x)


def delay_fits(pkt, bw, sinr, window):
    """Oracle: the exact test, through full delay arrays."""
    return channel._delay(pkt, bw, sinr) <= window


log_floats = st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e)


class TestThresholdMasks:
    """channel._fits decides delay <= window by an SINR threshold, with an exact band around it."""

    @settings(max_examples=300, deadline=None)
    @given(pkt=log_floats, bw=log_floats, window=log_floats, data=st.data())
    @example(pkt=1.0, bw=1.0, window=1e301, data=None)  # rate at the window under _delay's 1e-300 floor
    @example(pkt=1e-300, bw=1e15, window=1e-315, data=None)  # subnormal window and delays, s* = 1
    @example(pkt=1e-290, bw=1.7e30, window=1.0, data=None)  # subnormal threshold
    @example(pkt=1.0, bw=1e308, window=1e16, data=None)  # threshold underflows to 0
    def test_fits_is_delay_within_window(self, pkt, bw, window, data):
        s_star = threshold(pkt, bw, window)
        special = [0.0, 5e-324, math.inf, math.nan]
        near = []
        if 0.0 < s_star < math.inf:
            edges = [s_star, s_star * (1.0 - 1e-9), s_star * (1.0 + 1e-9)]
            near = [ulps(edge, n) for edge in edges for n in range(-4, 5)]
        if data is None:  # an @example: every placed value once
            picks = special + near
        else:
            around = [st.floats(-2e-9, 2e-9).map(lambda d: s_star * (1.0 + d))] if near else []
            values = st.one_of(
                st.sampled_from(special + near), st.floats(0.0, 1e300), *around
            )
            picks = data.draw(st.lists(values, min_size=1, max_size=33))
        sinr = np.array(picks)
        want = delay_fits(pkt, bw, sinr, window)
        assert np.array_equal(channel._fits(pkt, bw, sinr, window), want)
        # _fits sends a gathered subarray to _delay; its bits must be those of the full array
        every_other = np.arange(0, len(sinr), 2)
        full = channel._delay(pkt, bw, sinr).view(np.int64)
        assert np.array_equal(channel._delay(pkt, bw, sinr[every_other]).view(np.int64), full[every_other])

    @pytest.mark.parametrize(
        "pkt, bw, window",
        [
            (8e4, 1e6, 1e-9),  # expm1 overflows: tiny bandwidth * window
            (1.0, 1e30, 1e300),  # huge window: s* underflows to 0, and sinr = 0 still has an infinite delay
            (1.0, 1e308, 1e16),  # s* underflows to 0 though pkt / window = 1e-16 is far above the rate floor
            (8e4, 1e6, 0.0),  # windows <= 0 fit only an infinite SINR
            (8e4, 1e6, -0.05),
        ],
    )
    def test_edge_thresholds_take_exact_path(self, pkt, bw, window):
        sinr = np.array([0.0, 5e-324, 1e-300, 1e-3, 1.0, 1e6, 1e300, math.inf, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = channel._fits(pkt, bw, sinr, window)
            want = delay_fits(pkt, bw, sinr, window)
        assert np.array_equal(got, want)

    def test_threshold_decides_nearly_every_element(self, default_scenario, monkeypatch):
        """estimate_success_probs at the default scenario sends under 1% of its SINRs to _delay."""
        exact = channel._delay
        seen = []

        def counting_delay(pkt_bits, bandwidth, sinr):
            seen.append(np.size(sinr))
            return exact(pkt_bits, bandwidth, sinr)

        monkeypatch.setattr(channel, "_delay", counting_delay)
        n_samples = 10_000
        estimate_success_probs(default_scenario.default_design(), default_scenario, n_samples, 1)
        assert sum(seen) < 0.01 * 2 * n_samples * default_scenario.n_followers


def stream_blocks(point, n_rounds, seed):
    """Oracle: the draws of seed's stream that cover rounds [0, n_rounds), one BLOCK per draw_channel call."""
    rng = np.random.default_rng(seed)
    return [draw_channel(point, rng, size=channel.BLOCK) for _ in range(0, n_rounds, channel.BLOCK)]


def stream_kernels(point, n_rounds, seed):
    """Oracle: (c_up, c_dn) of rounds [0, n_rounds) of seed's stream, drawn at point."""
    blocks = [sinr_coefficients(draw, point) for draw in stream_blocks(point, n_rounds, seed)]
    return tuple(np.concatenate(kernel)[:n_rounds] for kernel in zip(*blocks))


def stream_parts(point, n_rounds, seed):
    """Oracle: unit jitter and jitter-free parts of rounds [0, n_rounds) of seed's stream, each block drawn alone.

    Follower-major, like ScenarioSamples: one row per UAV (jitter) or follower (parts), one column per round.
    """
    unit = replace(point, antenna=replace(point.antenna, sigma2=1.0))
    blocks = [(d.angle_dev.T, *channel._jitter_free_parts(d, point)) for d in stream_blocks(unit, n_rounds, seed)]
    return tuple(np.concatenate(column, axis=1)[:, :n_rounds] for column in zip(*blocks))


def stream_masks(point, design, n_rounds, seed):
    """Oracle: participation in rounds [0, n_rounds) of seed's stream, drawn at point."""
    masks = [
        success_mask(*link_delays(draw, design, point), design.beta, point.round_time_s)
        for draw in stream_blocks(point, n_rounds, seed)
    ]
    return np.concatenate(masks)[:n_rounds]


def recording_draws(monkeypatch):
    """A list that gains the generators of each channel._draw_rows call, one list per call."""
    calls, draw_rows = [], channel._draw_rows

    def recording(scenario, rngs, size):
        calls.append(list(rngs))
        return draw_rows(scenario, rngs, size)

    monkeypatch.setattr(channel, "_draw_rows", recording)
    return calls


def jitter_bw_points(scenario, grid):
    return [
        replace(
            scenario,
            antenna=replace(scenario.antenna, sigma2=sigma2),
            radio=replace(scenario.radio, bw_up=bw, bw_down=bw),
        )
        for sigma2, bw in grid
    ]


class TestMaskWindows:
    """participation_masks over the first rounds of each repetition's block stream, a chunk of repetitions per block."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n_rounds=st.integers(1, 30),
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5),
        grid=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(2e5, 1e7)), min_size=1, max_size=3),
        budget=st.integers(1, 6).map(lambda n: n * channel.BLOCK),
    )
    def test_window_equals_rounds_of_full_horizon(self, default_scenario, data, n_rounds, seeds, grid, budget):
        stop = data.draw(st.integers(0, n_rounds), label="stop")
        points = jitter_bw_points(default_scenario, grid)
        design = default_scenario.default_design()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_CHUNK_ROUNDS", budget)  # chunks of 1 to 6 repetitions split mid-list
            window = participation_masks(points, design, stop, seeds)
            full = participation_masks(points, design, n_rounds, seeds)
        assert window.shape == (len(points), len(seeds), stop, default_scenario.n_followers)
        assert np.array_equal(window, full[:, :, :stop, :])
        for r, seed in enumerate(seeds):  # each repetition's own stream, read alone
            for k, point in enumerate(points):
                assert np.array_equal(full[k, r], stream_masks(point, design, n_rounds, seed))

    @settings(max_examples=15, deadline=None)
    @given(
        rounds=st.tuples(st.integers(1, 400), st.integers(1, 400)),
        seeds=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=3),
        grid=st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(2e5, 1e7)), min_size=1, max_size=2),
    )
    @example(rounds=(127, 129), seeds=[1, 2], grid=[(0.01, 1e6)])
    @example(rounds=(128, 256), seeds=[1], grid=[(0.01, 1e6)])
    @example(rounds=(100, 300), seeds=[3], grid=[(0.2, 2e6)])
    @example(rounds=(130, 257), seeds=[4, 5], grid=[(0.01, 1e6), (0.1, 5e6)])
    @example(rounds=(255, 400), seeds=[6], grid=[(0.05, 1e6)])
    @example(rounds=(257, 400), seeds=[7], grid=[(0.01, 1e6)])
    def test_prefix_stable_across_block_boundaries(self, default_scenario, rounds, seeds, grid):
        """participation_masks(..., n)[:, :, :m] is participation_masks(..., m), for m <= n on either side of a block edge."""
        m, n = sorted(rounds)
        points = jitter_bw_points(default_scenario, grid)
        design = default_scenario.default_design()
        long = participation_masks(points, design, n, seeds)
        assert np.array_equal(participation_masks(points, design, m, seeds), long[:, :, :m, :])
        for r, seed in enumerate(seeds):
            for k, point in enumerate(points):
                assert np.array_equal(long[k, r], stream_masks(point, design, n, seed))

    @pytest.mark.parametrize("n_rounds", [1, 128, 129, 256, 257])
    def test_draws_only_the_blocks_it_reads(self, default_scenario, monkeypatch, n_rounds):
        sizes, draw_rows = [], channel._draw_rows

        def counting(scenario, rngs, size):
            sizes.extend([size] * len(rngs))  # one entry per drawn row
            return draw_rows(scenario, rngs, size)

        monkeypatch.setattr(channel, "_draw_rows", counting)
        participation_masks([default_scenario], default_scenario.default_design(), n_rounds, [1, 2])
        assert sizes == [channel.BLOCK] * (2 * math.ceil(n_rounds / channel.BLOCK))

    @pytest.mark.parametrize(
        "sectionalized, interfered",
        [(False, "both"), (True, "both"), (False, "neither"), (False, "uplink"), (False, "downlink")],
        ids=["False", "True", "no-interferers", "uplink-only", "downlink-only"],
    )
    def test_stacked_kernels_equal_each_draws_own(self, default_scenario, monkeypatch, sectionalized, interfered):
        """Jitter, parts and kernels of stacked streams equal each repetition's own block draws, bit for bit."""
        none = InterferenceField(())
        base = replace(
            default_scenario,
            use_sectionalized_gain=sectionalized,
            uplink_interference=default_scenario.uplink_interference if interfered in ("both", "uplink") else none,
            downlink_interference=default_scenario.downlink_interference if interfered in ("both", "downlink") else none,
        )
        seeds, n_rounds, block = [5, 6, 7], 150, channel.BLOCK  # a whole block and part of the next
        n_f, widths = base.n_followers, [block, n_rounds - block]  # the rounds read of each block
        chunks, of = [], ScenarioSamples._of

        def recording(scenario, draw):
            samples = of(scenario, draw)
            chunks.append(samples)
            return samples

        monkeypatch.setattr(ScenarioSamples, "_of", staticmethod(recording))
        points = jitter_bw_points(base, [(base.antenna.sigma2, base.radio.bw_up), (0.0, 2e6), (0.3, 1e6)])
        # one chunk per block at the budget in force; a budget of two repetitions splits the seeds mid-list
        for budget, split in ((channel._CHUNK_ROUNDS, [seeds]), (2 * block, [seeds[:2], seeds[2:]])):
            chunks.clear()
            monkeypatch.setattr(channel, "_CHUNK_ROUNDS", budget)
            participation_masks(points, base.default_design(), n_rounds, seeds)
            assert [samples.k for samples in chunks] == [len(group) * width for width in widths for group in split]
            for c, (group, samples) in enumerate(zip(split * len(widths), chunks, strict=True)):
                b = c // len(split)  # the block chunk c draws
                rows, read = len(group) * widths[b], slice(b * block, b * block + widths[b])
                arrays = (samples.unit_jitter, *samples.parts)  # follower-major: one column per round
                assert [a.shape for a in arrays] == [(n_f + 1, rows), (n_f, rows), (1, rows), (n_f, rows), (n_f, rows)]
                for r, seed in enumerate(group):
                    kept = slice(r * widths[b], (r + 1) * widths[b])
                    for got, want in zip(arrays, stream_parts(base, n_rounds, seed), strict=True):
                        assert np.array_equal(got[:, kept], want[:, read])
                    for point in points:
                        for got, want in zip(samples.at(point).own_kernels, stream_kernels(point, n_rounds, seed)):
                            assert np.array_equal(got[:, kept], want[read].T)

    @pytest.mark.parametrize("n_rounds, n_seeds", [(128, 40), (129, 20), (500, 10), (channel._CHUNK_ROUNDS + 1, 3)])
    def test_one_row_draw_per_chunk(self, default_scenario, monkeypatch, n_rounds, n_seeds):
        """Each block of each chunk of repetitions is one _draw_rows call, one row per repetition, each repetition
        on one generator in every block, and a chunk holds _CHUNK_ROUNDS // BLOCK repetitions."""
        calls = recording_draws(monkeypatch)
        design, seeds = default_scenario.default_design(), list(range(100, 100 + n_seeds))
        masks = participation_masks([default_scenario], design, n_rounds, seeds)
        n_blocks = math.ceil(n_rounds / channel.BLOCK)
        per_chunk = channel._CHUNK_ROUNDS // channel.BLOCK
        want = [min(per_chunk, n_seeds - first) for first in range(0, n_seeds, per_chunk)]
        assert [len(rngs) for rngs in calls] == want * n_blocks
        generators = [rng for rngs in calls[: len(want)] for rng in rngs]  # the first block's, in order
        assert len({id(rng) for rng in generators}) == n_seeds
        for b in range(n_blocks):
            assert [rng for rngs in calls[b * len(want) : (b + 1) * len(want)] for rng in rngs] == generators
        for r, seed in enumerate(seeds):
            assert np.array_equal(masks[0, r], stream_masks(default_scenario, design, n_rounds, seed))

    def test_chunk_budget_below_a_block_draws_one_repetition_a_call(self, default_scenario, monkeypatch):
        calls = recording_draws(monkeypatch)
        monkeypatch.setattr(channel, "_CHUNK_ROUNDS", channel.BLOCK // 2)
        participation_masks([default_scenario], default_scenario.default_design(), channel.BLOCK + 1, [1, 2, 3])
        assert [len(rngs) for rngs in calls] == [1] * 6

    def test_peak_memory_flat_in_repetitions(self, default_scenario):
        """The traced peak, less the output array, does not grow with the number of repetitions read."""
        design, n_rounds = default_scenario.default_design(), 128
        peaks = []
        for n_seeds in (40, 160):
            seeds = list(range(n_seeds))
            output = n_seeds * n_rounds * default_scenario.n_followers  # bool bytes
            peaks.append(traced_peak(lambda: participation_masks([default_scenario], design, n_rounds, seeds)) - output)
        assert abs(peaks[1] - peaks[0]) <= 0.03 * peaks[0]

    def test_stream_lets_go_of_repetitions_it_will_not_read(self, default_scenario):
        """After a call the stream holds the generators of the repetitions it read, and none after the last block."""
        design, seeds = default_scenario.default_design(), [11, 12, 13]
        stream = channel.MaskStream([default_scenario], design, 300, seeds)
        first = stream([0, 2])
        assert [type(rng).__name__ for rng in stream._rngs] == ["Generator", "NoneType", "Generator"]
        second = stream([2])
        assert stream._rngs == [None, None, stream._rngs[2]] and stream._rngs[2] is not None
        third = stream([2])
        assert stream._rngs == [None, None, None]  # 300 rounds: the third block is the budget's last
        for r, masks in ((0, first[:, :, 0]), (2, np.concatenate([first[:, :, 1], second[:, :, 0], third[:, :, 0]]))):
            assert np.array_equal(masks, stream_masks(default_scenario, design, len(masks), seeds[r]))

    def test_stream_refuses_a_repetition_it_let_go(self, default_scenario):
        """A repetition left out of a call, or read past the budget, raises; the refused call moves no stream."""
        design, seeds = default_scenario.default_design(), [11, 12, 13]
        stream = channel.MaskStream([default_scenario, default_scenario], design, 256, seeds)
        stream([0, 5])  # repetitions 0 and 2, at the first and the second point
        for runs in ([1], [0, 4], [4]):  # repetition 1, at either point
            with pytest.raises(ValueError, match=r"repetitions \[1\] were left out"):
                stream(runs)
        last = stream([0, 5])
        want = stream_masks(default_scenario, design, 256, 11)[channel.BLOCK :]
        assert np.array_equal(last[:, :, 0], want)
        with pytest.raises(ValueError, match=r"repetitions \[0\]"):
            stream([0])

    def test_empty_points_rejected(self, default_scenario):
        with pytest.raises(ValueError, match="points"):
            participation_masks([], default_scenario.default_design(), 3, [1])

    @pytest.mark.parametrize("n_rounds", [-1])
    def test_window_bounds_checked(self, default_scenario, n_rounds):
        with pytest.raises(ValueError, match="n_rounds must be >= 0"):
            participation_masks([default_scenario], default_scenario.default_design(), n_rounds, [1])

    def test_empty_window_draws_nothing(self, default_scenario, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "_draw_rows", lambda *a, **k: calls.append(1))
        out = participation_masks([default_scenario], default_scenario.default_design(), 0, [1, 2])
        assert out.shape == (1, 2, 0, default_scenario.n_followers)
        assert calls == []


def edge_scenario(default_scenario, rng, n_followers, n_up, n_down, sectionalized):
    """The default scenario with n_followers at random distances and random interferer fields."""
    from swarmfl.energy import ControlRequirements

    return replace(
        default_scenario,
        n_followers=n_followers,
        distances=tuple(float(d) for d in rng.uniform(30.0, 150.0, n_followers)),
        control=ControlRequirements(tau=(0.05,) * n_followers),
        uplink_interference=random_field(rng, n_up),
        downlink_interference=random_field(rng, n_down),
        use_sectionalized_gain=sectionalized,
    )


class TestFollowerMajorReads:
    """Kernels, masks and frequencies read off follower-major ScenarioSamples equal the per-draw path bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_followers=st.integers(1, 6),
        n_up=st.integers(0, 3),
        n_down=st.integers(0, 3),
        samples_k=st.integers(1, 40),
        sigma2=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        bw=st.floats(2e5, 1e7),
        sectionalized=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_followers=1, n_up=0, n_down=0, samples_k=1, sigma2=0.0, bw=1e6, sectionalized=False, seed=1)
    @example(n_followers=1, n_up=2, n_down=0, samples_k=7, sigma2=0.2, bw=1e6, sectionalized=True, seed=2)
    @example(n_followers=3, n_up=0, n_down=3, samples_k=1, sigma2=0.05, bw=5e6, sectionalized=False, seed=3)
    @example(n_followers=5, n_up=3, n_down=3, samples_k=40, sigma2=0.0, bw=2e6, sectionalized=True, seed=4)
    def test_reads_equal_each_draws_own(
        self, default_scenario, n_followers, n_up, n_down, samples_k, sigma2, bw, sectionalized, seed
    ):
        rng = np.random.default_rng(seed)
        base = edge_scenario(default_scenario, rng, n_followers, n_up, n_down, sectionalized)
        design = DesignVector(
            p=rng.uniform(0.01, 0.5, n_followers), p_leader=rng.uniform(0.01, 0.5), beta=rng.uniform(0.1, 0.9), v=10.0
        )
        samples = ScenarioSamples.generate(base, samples_k, seed)
        # the drawn point, one at another bandwidth only, and one at another jitter variance and bandwidth
        for point in (base, *jitter_bw_points(base, [(base.antenna.sigma2, bw), (sigma2, bw)])):
            draws = draw_channel(point, np.random.default_rng(seed), size=samples_k)
            read = samples.at(point)
            for got, want in zip(read.own_kernels, sinr_coefficients(draws, point), strict=True):
                assert got.shape == (n_followers, samples_k) and np.array_equal(got, want.T)
            masks = success_mask(*link_delays(draws, design, point), design.beta, point.round_time_s)
            assert np.array_equal(read._masks(design), masks.T)
            assert np.array_equal(read.success_probs(design), masks.mean(axis=0))
            assert np.array_equal(
                participation_masks([base, point], design, samples_k, [seed])[1, 0],
                stream_masks(point, design, samples_k, seed),
            )
        drawn = draw_channel(base, np.random.default_rng(seed), size=samples_k)  # the draw generate made
        for got, want in zip(sample_delays(design, samples, base), link_delays(drawn, design, base), strict=True):
            assert got.shape == (samples_k, n_followers) and np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        n_followers=st.integers(2, 6),
        samples_k=st.integers(1, 300),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_success_probs_count_each_row_as_the_axis_count_does(
        self, default_scenario, n_followers, samples_k, density, seed
    ):
        """success_probs counts each follower's row of masks; its bytes are those of
        count_nonzero(masks, axis=1) / K, with an empty row and a full row among them."""
        rng = np.random.default_rng(seed)
        masks = rng.random((n_followers, samples_k)) < density
        masks[0], masks[-1] = False, True
        samples = ScenarioSamples.generate(default_scenario, samples_k, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ScenarioSamples, "_masks", lambda self, design: masks)
            got = samples.success_probs(default_scenario.default_design())
        assert got.tobytes() == (np.count_nonzero(masks, axis=1) / samples_k).tobytes()
        assert got[0] == 0.0 and got[-1] == 1.0


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees over call(), after an untraced warm-up call has filled every cache."""
    call()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        if not tracing:
            tracemalloc.stop()


class TestTracedPeaks:
    """Traced peak memory of the sample paths: at most 5% above the figures before the follower-major layout.

    Measured then, on numpy 2.4.6: 632 bytes a sample for generate and for
    estimate_success_probs at 2e4 draws, and 3.82 MB for the masks of 100
    repetitions of 128 rounds.  Holding a whole batch's draw while the
    kernels are formed, or stacking raw draw fields before moving them
    follower-major, exceeds these bounds.
    """

    samples_k = 20_000

    def test_generate(self, default_scenario):
        peak = traced_peak(lambda: ScenarioSamples.generate(default_scenario, self.samples_k, 1))
        assert peak / self.samples_k <= 1.05 * 632

    def test_estimate_success_probs(self, default_scenario):
        design = default_scenario.default_design()
        peak = traced_peak(lambda: estimate_success_probs(design, default_scenario, self.samples_k, 1))
        assert peak / self.samples_k <= 1.05 * 632

    def test_generate_beside(self, default_scenario):
        """The draw filled on a worker thread peaks like generate: its scratch arrays go before the samples are made."""
        peak = traced_peak(lambda: channel._generate_beside(default_scenario, self.samples_k, 1, lambda: None))
        assert peak / self.samples_k <= 1.05 * 632

    def test_participation_masks(self, default_scenario):
        design = default_scenario.default_design()
        peak = traced_peak(lambda: participation_masks([default_scenario], design, 128, list(range(100))))
        assert peak <= 1.05 * 3.82e6


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
