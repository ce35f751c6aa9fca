"""Compute, transmission, and flight energy models.

The rotor model takes the induced velocity v_hat as the positive root of the
momentum balance v_hat * sqrt(v^2 + v_hat^2) = rhs with
rhs = 2 * thrust / (rotors * r^2 * pi * air_density); hover gives
v_hat = sqrt(rhs).  Frozen wattages below are hand-derived from the default
parameters.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmfl import energy
from swarmfl.design import DesignVector
from swarmfl.energy import (
    ComputeParams,
    EnergyBudget,
    FlightParams,
    flight_power,
    induced_velocity,
    round_energies,
)
from swarmfl.scenario import SwarmScenario


class TestComputeEnergy:
    def test_energy_per_bit(self):
        # 1e-28 J/cycle/Hz^2 * 1e3 cycles/bit * (1e9 Hz)^2 = 1e-7 J/bit
        assert ComputeParams().energy_per_bit() == pytest.approx(1e-7, rel=1e-12)

    def test_leader_processes_all_follower_packets(self):
        # 5 packets of 8e4 bits at 1e-7 J/bit, with no downlink power and no flight
        got = energy._leader_energy(SwarmScenario(), 0.0, 0.5, 0.0)
        assert got == pytest.approx(0.04, rel=1e-12)

    def test_follower_per_sample_cost(self, default_scenario):
        one = replace(default_scenario, dataset=replace(default_scenario.dataset, samples_per=1))
        assert one.follower_training_energies() == pytest.approx(np.full(5, 0.008), rel=1e-12)
        assert default_scenario.follower_training_energies() == pytest.approx(np.full(5, 0.32), rel=1e-12)

    def test_follower_dataset_energy_from_scenario(self, default_scenario):
        per = default_scenario.follower_training_energies()
        assert per.shape == (5,)
        assert np.allclose(per, 0.32)


class TestInducedVelocity:
    def test_hover_matches_closed_form(self):
        fp = FlightParams()
        want = math.sqrt(2.0 * fp.thrust() / fp.disk_loading_denom())
        got = induced_velocity(fp, 0.0)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(6.2857602, abs=1e-6)
        assert got == pytest.approx(6.29, abs=5e-3)

    def test_fixed_point_residual_small(self):
        fp = FlightParams()
        rhs = 2.0 * fp.thrust() / fp.disk_loading_denom()
        for v in range(0, 21):
            v_hat = induced_velocity(fp, float(v))
            assert abs(v_hat * math.sqrt(v * v + v_hat * v_hat) - rhs) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        rotors=st.integers(1, 8),
        rotor_diameter=st.floats(0.05, 2.0),
        air_density=st.floats(0.3, 1.5),
        mass=st.floats(0.05, 50.0),
        gravity=st.floats(1.0, 25.0),
        v_max=st.floats(0.5, 100.0),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_root_satisfies_momentum_balance(
        self, rotors, rotor_diameter, air_density, mass, gravity, v_max, fractions
    ):
        fp = FlightParams(rotors=rotors, rotor_diameter=rotor_diameter,
                          air_density=air_density, mass=mass, gravity=gravity, v_max=v_max)
        rhs = 2.0 * fp.thrust() / fp.disk_loading_denom()
        speeds = np.minimum(np.asarray(fractions) * v_max, v_max)
        v_hat = induced_velocity(fp, speeds)
        assert np.all(v_hat > 0.0)
        residual = np.abs(v_hat * np.sqrt(speeds**2 + v_hat**2) - rhs) / rhs
        assert residual.max() <= 1e-12

    def test_vectorized_and_monotone_decreasing(self):
        fp = FlightParams()
        speeds = np.linspace(0.0, 20.0, 41)
        v_hat = induced_velocity(fp, speeds)
        assert v_hat.shape == speeds.shape
        assert np.all(np.diff(v_hat) < 0.0)

    def test_speed_domain_enforced(self):
        fp = FlightParams()
        with pytest.raises(ValueError):
            induced_velocity(fp, -1.0)
        with pytest.raises(ValueError):
            induced_velocity(fp, fp.v_max + 1.0)
        with pytest.raises(ValueError):
            induced_velocity(fp, np.array([1.0, np.nan]))


class TestFlightPower:
    def test_hover_power_value(self):
        # v_hat * thrust / efficiency = 6.2857602 * 19.62 / 0.7
        assert flight_power(FlightParams(), 0.0) == pytest.approx(176.18088, rel=1e-5)
        assert flight_power(FlightParams(), 0.0) == pytest.approx(176.3, abs=0.2)

    def test_forward_flight_cheaper_than_hover(self):
        fp = FlightParams()
        powers = flight_power(fp, np.linspace(0.0, 20.0, 21))
        assert np.all(np.diff(powers) < 0.0)


class TestRoundEnergy:
    def test_leader_round_illustration(self, default_scenario):
        # training 0.04 J + downlink 0.5 W for half a round + hover for the
        # whole round: 0.04 + 0.025 + 17.618088 J
        design = DesignVector(
            p=np.full(5, 0.5), p_leader=0.5, beta=0.5, v=0.0
        )
        got, _ = round_energies(design, np.zeros(5), default_scenario)
        assert got == pytest.approx(0.04 + 0.025 + 17.618088, rel=1e-4)
        assert got == pytest.approx(17.7, abs=0.05)

    def test_follower_upload_charge_capped_at_window(self, default_scenario):
        design = default_scenario.default_design()
        window = design.beta * default_scenario.round_time_s
        t_partial = np.full(5, 0.5 * window)
        t_over = np.full(5, 10.0 * window)
        _, e_partial = round_energies(design, t_partial, default_scenario)
        _, e_over = round_energies(design, t_over, default_scenario)
        _, e_atcap = round_energies(design, np.full(5, window), default_scenario)
        _, e_bound = round_energies(design, np.inf, default_scenario)
        assert np.allclose(e_over, e_atcap)
        assert np.array_equal(e_bound, e_atcap)
        assert np.all(e_partial < e_over)
        # transmit term is linear below the cap
        dp = e_atcap - e_partial
        assert np.allclose(dp, np.asarray(design.p) * 0.5 * window)

    def test_one_flight_power_call_per_round(self, default_scenario, monkeypatch):
        calls = []

        def counted(flight, v):
            calls.append(v)
            return flight_power(flight, v)

        monkeypatch.setattr(energy, "flight_power", counted)
        design = default_scenario.default_design()
        t_up = np.random.default_rng(3).uniform(0.0, 0.05, size=(7, 5))
        e_leader, e_followers = round_energies(design, t_up, default_scenario)
        assert len(calls) == 1
        assert np.ndim(e_leader) == 0
        assert e_followers.shape == (7, 5)

    def test_follower_energy_depends_on_own_delay_only(self, default_scenario):
        design = default_scenario.default_design()
        base = np.full(5, 0.01)
        moved = base.copy()
        moved[2] = 0.02
        lead_a, e_a = round_energies(design, base, default_scenario)
        lead_b, e_b = round_energies(design, moved, default_scenario)
        assert lead_a == lead_b
        changed = e_a != e_b
        assert changed.tolist() == [False, False, True, False, False]
        assert e_b[2] - e_a[2] == pytest.approx(design.p[2] * 0.01, rel=1e-9)

    def test_flight_dominates_default_budget_split(self, default_scenario):
        # sanity on orders of magnitude: flying costs tens of joules per
        # round, radio and compute milli- to centi-joules
        design = default_scenario.default_design()
        total, _ = round_energies(design, np.zeros(5), default_scenario)
        fly = flight_power(default_scenario.flight, design.v) * default_scenario.round_time_s
        assert fly / total > 0.95


class TestBudgetValidation:
    def test_invalid_budget_flagged(self):
        assert SwarmScenario(energy_budget=EnergyBudget(e_bar=-1.0)).validate() == [
            "energy_budget.e_bar must be > 0"
        ]
        assert SwarmScenario(energy_budget=EnergyBudget(xi_leader=1.5)).validate() == [
            "energy_budget.xi_leader must be in (0, 1)"
        ]
        assert SwarmScenario(energy_budget=EnergyBudget(e_bar=np.inf)).validate() == [
            "energy_budget.e_bar must be finite"
        ]
        assert not SwarmScenario(energy_budget=EnergyBudget()).validate()
