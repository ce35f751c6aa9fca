"""Hand-worked cases for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""
import math

import numpy as np
import pytest

import reference as ref


def _still_link(bw=1.0, noise_psd=1.0 / 3.0):
    """One follower at 1 m, alpha 2, no jitter, no interferers, K huge (no
    fading spread): SINR = p / (B N0), delay = pkt / (B log2(1 + SINR))."""
    return {
        "n_followers": 1,
        "distances": [1.0],
        "round_time": 0.1,
        "antenna": {"theta_init": 0.0, "sigma2": 0.0, "g_min": 0.5},
        "radio": {"bw_up": bw, "bw_down": bw, "noise_psd": noise_psd, "pkt_local": 0.1,
                  "pkt_global": 0.1, "rician_k": 1e14, "pathloss_exp": 2.0},
        "uplink_interference": [],
        "downlink_interference": [],
    }


def test_deterministic_delay_and_window_test():
    rng = np.random.default_rng(0)
    # p = 1: SINR 3, log2(4) = 2, delay 0.05 s.  p_L = 3: SINR 9, delay 0.1/log2(10).
    probs, t_up, t_dn = ref.participation(
        _still_link(), {"p": [1.0], "p_leader": 3.0, "beta": 0.55}, 200, rng)
    assert np.allclose(t_up, 0.05, rtol=1e-6)
    assert np.allclose(t_dn, 0.1 / math.log2(10.0), rtol=1e-6)
    assert probs[0] == 1.0  # 0.05 <= 0.055 and 0.0301 <= 0.045
    probs, _, _ = ref.participation(
        _still_link(), {"p": [1.0], "p_leader": 1.0, "beta": 0.55}, 200, rng)
    assert probs[0] == 0.0  # downlink 0.05 > 0.045


def test_antenna_gain_main_lobe_and_floor():
    assert ref.antenna_gain(0.0, 0.5) == 1.0
    assert ref.antenna_gain(0.5, 0.5) == pytest.approx(0.5)  # cos^2(pi/4)
    assert ref.antenna_gain(-1.5, 0.3) == 0.3


def test_interferer_always_on_adds_to_noise():
    sc = _still_link(noise_psd=1.0 / 6.0)
    sc["uplink_interference"] = [{"distance": 1.0, "power": 1.0 / 6.0, "gain_product": 1.0,
                                  "active_prob": 1.0}]
    # noise 1/6 + interference 1/6 = 1/3: the same delay as the quiet link
    _, t_up, _ = ref.participation(sc, {"p": [1.0], "p_leader": 3.0, "beta": 0.55}, 50,
                                   np.random.default_rng(1))
    assert np.allclose(t_up, 0.05, rtol=1e-6)


def test_rician_fading_has_unit_mean():
    h = ref.rician_fading(np.random.default_rng(2), 10.0, 200_000)
    assert h.mean() == pytest.approx(1.0, abs=0.01)


def test_induced_velocity_closed_form():
    # rhs = 2 m g / (q r^2 pi rho) = 2 with m g = pi, q = r = rho = 1
    flight = {"mass": math.pi, "gravity": 1.0, "rotors": 1, "rotor_diameter": 1.0,
              "air_density": 1.0, "efficiency": 0.5}
    assert ref.induced_velocity(flight, 0.0) == pytest.approx(math.sqrt(2.0))  # hover
    # v = sqrt(3): u^2 + 3u - 4 = 0, u = 1, so v_hat = 1
    assert ref.induced_velocity(flight, math.sqrt(3.0)) == pytest.approx(1.0)
    assert ref.flight_power(flight, math.sqrt(3.0)) == pytest.approx(2.0 * math.pi)


def test_curvature_from_pinned_gram():
    sc = {"n_followers": 2, "dataset": {
        "samples_per": 10, "dim": 3, "nuisance_dims": 1, "signal_scale": 1.0,
        "owner_emphasis": 1.0, "nuisance_scale": 2.0, "exact_second_moments": True,
        "noise_std": 0.0, "w_scale": 1.0}}
    mu, u, s0, counts = ref.curvature(sc)
    # Gram diag(4, 1, 1): Hessian diag(8, 2, 2); S0 = 20 * (1 + 1)
    assert (mu, u) == pytest.approx((2.0, 8.0))
    assert s0 == pytest.approx(40.0)
    assert list(counts) == [10.0, 10.0]


def test_round_formula():
    counts = np.array([1.0, 1.0])
    # rho = 0.5: log(1/8)/log(1/2) = 3 exactly, log(0.1)/log(0.5) = 3.32 -> 4
    assert ref.round_formula([1.0, 1.0], counts, 1.0, 2.0, 0.125)[0] == 3
    assert ref.round_formula([1.0, 1.0], counts, 1.0, 2.0, 0.1)[0] == 4
    # half the samples participate: rho = 0.25
    assert ref.round_formula([1.0, 0.0], counts, 1.0, 2.0, 0.75)[0] == 1
    assert ref.round_formula([0.0, 0.0], counts, 1.0, 2.0, 0.1)[0] is None
