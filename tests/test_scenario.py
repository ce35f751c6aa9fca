"""Scenario configuration: strict parsing, unit conversion, round-tripping."""

import json
from dataclasses import fields, is_dataclass, replace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swarmfl.channel import Interferer, InterferenceField
from swarmfl.scenario import (
    ConfigError,
    SwarmScenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    serialize_scenario,
)


FRACTION = st.floats(0.01, 0.99)


def drawn(tp, n_followers):
    """Strategy for a field annotated tp, in ranges the validators accept."""
    if tp is InterferenceField:
        return st.lists(instances(Interferer, n_followers), max_size=3).map(
            lambda its: InterferenceField(tuple(its))
        )
    if is_dataclass(tp):
        return instances(tp, n_followers)
    return {
        float: FRACTION,
        int: st.integers(1, 6),
        bool: st.booleans(),
        float | None: st.none() | FRACTION,
        tuple[float, ...]: st.lists(FRACTION, min_size=n_followers, max_size=n_followers).map(tuple),
    }[tp]


def instances(cls, n_followers):
    """Dataclass cls with every field drawn from its annotation."""
    hints = get_type_hints(cls)
    return st.builds(cls, **{f.name: drawn(hints[f.name], n_followers) for f in fields(cls)})


@st.composite
def valid_scenarios(draw):
    n_followers = draw(st.integers(1, 6))
    scenario = replace(draw(instances(SwarmScenario, n_followers)), n_followers=n_followers)
    assume(scenario.validate() == [])
    return scenario


class TestDefaults:
    def test_default_scenario_valid(self, default_scenario):
        assert default_scenario.validate() == []

    @settings(max_examples=60, deadline=None)
    @given(scenario=valid_scenarios())
    @example(scenario=SwarmScenario())  # v_max >= 12, which the draws never reach
    def test_default_design_within_boxes(self, scenario):
        """The experiments run default_design() unchecked: it lies in its boxes
        for every valid scenario."""
        d = scenario.default_design()
        assert d.validate(scenario.p_max, scenario.flight.v_max) == []

    def test_control_deadlines_match_followers(self, default_scenario):
        assert len(default_scenario.control.tau) == default_scenario.n_followers


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario=valid_scenarios())
    def test_generated_scenarios_round_trip(self, scenario):
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
        assert scenario_from_dict(json.loads(serialize_scenario(scenario))) == scenario

    def test_serialized_keys_are_the_dataclass_fields(self, default_scenario):
        def check(obj, form):
            names = {f.name for f in fields(obj)}
            if isinstance(obj, SwarmScenario):
                names = names - {"round_time_s"} | {"round_time"}
            assert set(form) == names
            for f in fields(obj):
                value = getattr(obj, f.name)
                key = "round_time" if f.name == "round_time_s" else f.name
                if isinstance(value, InterferenceField):
                    assert len(form[key]) == len(value) > 0
                    for interferer, entry in zip(value.interferers, form[key]):
                        check(interferer, entry)
                elif is_dataclass(value):
                    check(value, form[key])

        check(default_scenario, scenario_to_dict(default_scenario))

    def test_dict_round_trip_exact(self, default_scenario):
        again = scenario_from_dict(scenario_to_dict(default_scenario))
        assert again == default_scenario

    def test_json_file_round_trip(self, default_scenario, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(default_scenario, path)
        loaded = load_scenario(path)
        assert loaded == default_scenario
        save_scenario(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_serialized_form_is_plain_json(self, default_scenario):
        text = serialize_scenario(default_scenario)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["radio"]["noise_psd"] == pytest.approx(10.0 ** -20.4)

    def test_empty_dict_gives_defaults(self):
        assert scenario_from_dict({}) == SwarmScenario()


class TestStrictParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict({"bandwith": 1e6})
        assert "bandwith" in str(err.value)

    def test_unknown_nested_key_carries_path(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict({"radio": {"bw_upp": 1e6}})
        assert "radio.bw_upp" in str(err.value)

    def test_all_errors_collected_not_just_first(self):
        bad = {
            "radio": {"bw_up": -1.0},
            "flight": {"mass": "heavy"},
            "energy_budget": {"xi_leader": 2.0},
        }
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(bad)
        text = str(err.value)
        assert "radio.bw_up" in text
        assert "flight.mass" in text
        assert "energy_budget.xi_leader" in text

    def test_type_errors_reported_with_field(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict({"n_followers": "five"})
        assert "n_followers" in str(err.value)

    def test_interferer_entries_validated(self):
        bad = {"uplink_interference": [{"distance": 100.0, "power": -1.0,
                                        "gain_product": 0.1, "active_prob": 0.5}]}
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(bad)
        assert "uplink_interference" in str(err.value)

    @pytest.mark.parametrize("entry, missing", [
        ({"distance": 100.0}, ["power", "gain_product", "active_prob"]),
        ({}, ["distance", "power", "gain_product", "active_prob"]),
    ])
    def test_interferer_fields_required(self, entry, missing):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict({"uplink_interference": [entry]})
        assert err.value.errors == [f"uplink_interference[0].{name} is required" for name in missing]

    def test_control_deadline_count_checked(self):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict({"n_followers": 3, "control": {"tau": [0.05, 0.05]},
                                "distances": [50.0, 60.0, 70.0]})
        assert "tau" in str(err.value)


# (JSON path, one out-of-range value) for every field that carries a bound
OUT_OF_RANGE = [
    (("n_followers",), 0),
    (("distances", 2), -1.0),
    (("round_time",), 0.0),
    (("p_max",), 0.0),
    (("antenna", "theta_init"), float("nan")),
    (("antenna", "sigma2"), -1.0),
    (("antenna", "g_min"), 1.5),
    (("antenna", "sections"), 0),
    (("radio", "bw_up"), 0.0),
    (("radio", "bw_down"), 0.0),
    (("radio", "noise_psd"), 0.0),
    (("radio", "pkt_local"), 0.0),
    (("radio", "pkt_global"), 0.0),
    (("radio", "rician_k"), -1.0),
    (("radio", "pathloss_exp"), 0.0),
    (("compute", "kappa"), 0.0),
    (("compute", "cycles_per_bit"), 0.0),
    (("compute", "cpu_freq"), 0.0),
    (("flight", "rotors"), 0),
    (("flight", "rotor_diameter"), 0.0),
    (("flight", "air_density"), 0.0),
    (("flight", "efficiency"), 1.5),
    (("flight", "mass"), 0.0),
    (("flight", "gravity"), 0.0),
    (("flight", "v_max"), 0.0),
    (("energy_budget", "e_bar"), 0.0),
    (("energy_budget", "xi_leader"), 1.0),
    (("energy_budget", "xi_follower"), 0.0),
    (("control", "tau", 1), -1.0),
    (("control", "xi_control"), 1.0),
    (("dataset", "samples_per"), 0),
    (("dataset", "dim"), 0),
    (("dataset", "noise_std"), -1.0),
    (("dataset", "sample_bits"), 0.0),
    (("dataset", "nuisance_dims"), 6),
    (("dataset", "owner_emphasis"), -1.0),
    (("dataset", "signal_scale"), 0.0),
    (("dataset", "nuisance_scale"), 0.0),
    (("dataset", "w_scale"), 0.0),
    (("dataset", "seed"), -1),
    (("saa", "samples_k"), 0),
    (("saa", "c_bar"), 0.0),
    (("saa", "epsilon_opt_frac"), 1.0),
    (("saa", "max_iters"), 0),
    (("saa", "step_scale"), 0.0),
    (("saa", "inner_tol"), 0.0),
    (("saa", "max_cycles"), 0),
    (("saa", "xtol"), 1.0),
    (("uplink_interference", 0, "distance"), 0.0),
    (("uplink_interference", 1, "power"), -1.0),
    (("uplink_interference", 2, "gain_product"), -1.0),
    (("uplink_interference", 0, "active_prob"), -0.5),
    (("downlink_interference", 1, "distance"), -3.0),
    (("downlink_interference", 2, "power"), -1.0),
    (("downlink_interference", 2, "gain_product"), -1.0),
    (("downlink_interference", 0, "active_prob"), 1.5),
    (("epsilon_fracs", 1), 1.0),
    (("mc_runs",), 0),
    (("n_success_samples",), 0),
    (("max_rounds",), 0),
    (("base_seed",), -1),
    (("base_seed",), 2**64),
]


def json_name(path) -> str:
    """The key as error messages spell it: radio.bw_up, distances[2], ..."""
    name = ""
    for part in path:
        name += f"[{part}]" if isinstance(part, int) else f"{'.' if name else ''}{part}"
    return name


class TestBounds:
    @pytest.mark.parametrize("path, value", OUT_OF_RANGE, ids=[json_name(p) for p, _ in OUT_OF_RANGE])
    def test_out_of_range_field_is_named(self, path, value):
        raw = scenario_to_dict(SwarmScenario())
        node = raw
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(raw)
        name = json_name(path)
        assert any(e.startswith(f"{name} must") for e in err.value.errors), err.value.errors

    def test_every_bounded_field_is_covered(self):
        def bounded(cls, prefix):
            for f in fields(cls):
                tp = get_type_hints(cls)[f.name]
                key = "round_time" if f.name == "round_time_s" else f.name
                if tp is InterferenceField:
                    yield from bounded(Interferer, f"{prefix}{key}.")
                elif is_dataclass(tp):
                    yield from bounded(tp, f"{prefix}{key}.")
                elif "bound" in f.metadata:
                    yield prefix + key

        covered = {".".join(p for p in path if isinstance(p, str)) for path, _ in OUT_OF_RANGE}
        assert set(bounded(SwarmScenario, "")) <= covered

    @pytest.mark.parametrize("path", [("p_max",), ("flight", "mass"), ("distances", 0),
                                      ("control", "tau", 4), ("uplink_interference", 2, "distance")])
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_rejected(self, path, value):
        raw = scenario_to_dict(SwarmScenario())
        node = raw
        for part in path[:-1]:
            node = node[part]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(raw)
        assert err.value.errors == [f"{json_name(path)} must be finite"]


class TestPerFollowerDefaults:
    def test_defaults_follow_follower_count(self):
        s = scenario_from_dict({"n_followers": 3})
        assert s.distances == (50.0, 65.0, 80.0)
        assert s.control.tau == (0.05,) * 3

    def test_scalar_deadline_broadcast(self):
        s = scenario_from_dict({"n_followers": 2, "control": {"tau": 0.07}})
        assert s.control.tau == (0.07, 0.07)


class TestUnitAliases:
    def test_noise_density_dbm_per_hz(self):
        s = scenario_from_dict({"radio": {"noise_psd_dbm_hz": -174.0}})
        assert s.radio.noise_psd == pytest.approx(10.0 ** -20.4, rel=1e-12)

    def test_side_lobe_gain_db(self):
        s = scenario_from_dict({"antenna": {"g_min_db": -2.0}})
        assert s.antenna.g_min == pytest.approx(10.0 ** -0.2, rel=1e-12)

    def test_alias_and_si_value_conflict_rejected(self):
        with pytest.raises(ConfigError):
            scenario_from_dict({"radio": {"noise_psd": 1e-20, "noise_psd_dbm_hz": -174.0}})


class TestOverrides:
    def test_follower_distances_array(self, default_scenario):
        d = default_scenario.follower_distances()
        assert isinstance(d, np.ndarray)
        assert d.shape == (default_scenario.n_followers,)
        assert d == pytest.approx(np.linspace(50.0, 80.0, 5))


class TestBuildDataset:
    def test_build_dataset_deterministic(self, default_scenario):
        d1, m1 = default_scenario.build_dataset()
        d2, m2 = default_scenario.build_dataset()
        assert all(
            np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
            for a, b in zip(d1, d2)
        )
        assert m1.strong_mu == m2.strong_mu

    def test_build_dataset_seed_override(self, default_scenario):
        def with_seed(seed):
            return replace(default_scenario, dataset=replace(default_scenario.dataset, seed=seed))

        d1, _ = with_seed(1).build_dataset()
        d2, _ = with_seed(2).build_dataset()
        assert not np.array_equal(d1[0].features, d2[0].features)
