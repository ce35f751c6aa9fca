"""Scenario configuration: every physical and experimental constant in one place.

A scenario is loaded from JSON, validated as a whole (all problems reported
at once, each naming the offending field), and serialized back to a
canonical SI form.  An empty config gives the documented default swarm:
five followers at 40..80 m, 1 MHz links at -174 dBm/Hz noise, 0.5 W power
cap, 0.1 s rounds, quadrotor flight constants, a 7000 J energy budget, and
the bundled synthetic regression problem.

Convenience keys accepted on load: antenna.g_min_db (decibels) and
radio.noise_psd_dbm_hz (dBm/Hz); they are converted once and serialized in
linear/SI units.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import AntennaPattern, Interferer, InterferenceField, RadioParams
from .design import DesignVector
from .energy import ComputeParams, ControlRequirements, EnergyBudget, FlightParams

__all__ = [
    "ConfigError",
    "DatasetSpec",
    "SaaConfig",
    "SwarmScenario",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "serialize_scenario",
    "save_scenario",
    "with_overrides",
]


class ConfigError(ValueError):
    """Configuration rejected; .errors lists every offending field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class DatasetSpec:
    """Shape of the synthetic regression problem the swarm trains on.

    samples_per copies per follower, dim feature coordinates.  With
    owner_emphasis set (the default), nuisance_dims leading coordinates are
    shared high-variance directions with zero ground-truth weight, and each
    remaining coordinate is owned by one follower: the owner draws it at
    signal_scale, everyone else at owner_emphasis * signal_scale.
    exact_second_moments pins the pooled feature covariance to its target
    so curvature constants carry no sampling noise.  sample_bits is the
    on-device size of one training sample, used by the energy model.
    """

    samples_per: int = 40
    dim: int = 6
    noise_std: float = 0.0
    sample_bits: float = 8e4
    nuisance_dims: int = 1
    signal_scale: float = 0.4862
    owner_emphasis: float | None = 0.12
    nuisance_scale: float = 1.0
    exact_second_moments: bool = True
    w_scale: float = 1.0
    seed: int = 7

    def validate(self, prefix: str = "dataset") -> list[str]:
        errors = []
        if self.samples_per < 1:
            errors.append(f"{prefix}.samples_per must be >= 1")
        if self.dim < 1:
            errors.append(f"{prefix}.dim must be >= 1")
        if self.noise_std < 0.0:
            errors.append(f"{prefix}.noise_std must be >= 0")
        if not (self.sample_bits > 0.0):
            errors.append(f"{prefix}.sample_bits must be > 0")
        if self.owner_emphasis is not None:
            if not (0 <= self.nuisance_dims < self.dim):
                errors.append(f"{prefix}.nuisance_dims must be in [0, dim)")
            if not (self.owner_emphasis >= 0.0):
                errors.append(f"{prefix}.owner_emphasis must be >= 0")
            if not (self.signal_scale > 0.0):
                errors.append(f"{prefix}.signal_scale must be > 0")
            if not (self.nuisance_scale > 0.0):
                errors.append(f"{prefix}.nuisance_scale must be > 0")
        return errors

    def build(self, n_followers: int, seed: int | None = None):
        """Instantiate the problem split across n_followers: (datasets, loss_model)."""
        from .fl import make_regression_problem

        kwargs = dict(noise_std=self.noise_std)
        if self.owner_emphasis is not None:
            kwargs.update(
                nuisance_dims=self.nuisance_dims,
                signal_scale=self.signal_scale,
                owner_emphasis=self.owner_emphasis,
                nuisance_scale=self.nuisance_scale,
                exact_second_moments=self.exact_second_moments,
                w_scale=self.w_scale,
            )
        return make_regression_problem(
            n_followers,
            self.samples_per,
            self.dim,
            self.seed if seed is None else seed,
            **kwargs,
        )


@dataclass(frozen=True)
class SaaConfig:
    """Knobs of the sample-average design optimizer.

    samples_k frozen channel draws; c_bar sigmoid sharpness on normalized
    arguments; epsilon_opt_frac sets the optimizer's loss target as a
    fraction of the initial loss sum; step_scale multiplies K to give the
    dual step size; inner_tol/max_cycles bound the coordinate-ascent inner
    solver and xtol its per-coordinate golden-section width (relative to
    the coordinate's box).
    """

    samples_k: int = 1000
    c_bar: float = 50.0
    epsilon_opt_frac: float = 0.05
    max_iters: int = 200
    step_scale: float = 0.1
    inner_tol: float = 1e-6
    max_cycles: int = 50
    xtol: float = 1e-3

    def validate(self, prefix: str = "saa") -> list[str]:
        errors = []
        if self.samples_k < 1:
            errors.append(f"{prefix}.samples_k must be >= 1")
        if not (self.c_bar > 0.0):
            errors.append(f"{prefix}.c_bar must be > 0")
        if not (0.0 < self.epsilon_opt_frac < 1.0):
            errors.append(f"{prefix}.epsilon_opt_frac must be in (0, 1)")
        if self.max_iters < 1:
            errors.append(f"{prefix}.max_iters must be >= 1")
        if not (self.step_scale > 0.0):
            errors.append(f"{prefix}.step_scale must be > 0")
        if not (self.inner_tol > 0.0):
            errors.append(f"{prefix}.inner_tol must be > 0")
        if self.max_cycles < 1:
            errors.append(f"{prefix}.max_cycles must be >= 1")
        if not (0.0 < self.xtol < 1.0):
            errors.append(f"{prefix}.xtol must be in (0, 1)")
        return errors


def _default_distances(n_followers: int) -> tuple[float, ...]:
    if n_followers == 1:
        return (65.0,)
    return tuple(float(d) for d in np.linspace(50.0, 80.0, n_followers))


def _default_interferers() -> tuple[Interferer, ...]:
    side = 10.0 ** -0.4  # squared side-lobe gain of the default antenna
    return tuple(
        Interferer(distance=d, power=1.5, gain_product=side, active_prob=0.5)
        for d in (250.0, 325.0, 400.0)
    )


@dataclass(frozen=True)
class SwarmScenario:
    """Complete description of the swarm, its radio environment, and the job."""

    n_followers: int = 5
    distances: tuple[float, ...] = field(default_factory=lambda: _default_distances(5))
    round_time_s: float = 0.1
    p_max: float = 0.5
    antenna: AntennaPattern = field(default_factory=AntennaPattern)
    radio: RadioParams = field(default_factory=RadioParams)
    compute: ComputeParams = field(default_factory=ComputeParams)
    flight: FlightParams = field(default_factory=FlightParams)
    energy_budget: EnergyBudget = field(default_factory=EnergyBudget)
    control: ControlRequirements = field(
        default_factory=lambda: ControlRequirements(tau=(0.05,) * 5)
    )
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    saa: SaaConfig = field(default_factory=SaaConfig)
    uplink_interference: InterferenceField = field(
        default_factory=lambda: InterferenceField(_default_interferers())
    )
    downlink_interference: InterferenceField = field(
        default_factory=lambda: InterferenceField(_default_interferers())
    )
    epsilon_fracs: tuple[float, ...] = (0.05, 0.10, 0.15, 0.20, 0.25)
    mc_runs: int = 100
    n_success_samples: int = 10000
    max_rounds: int = 500
    use_sectionalized_gain: bool = False
    base_seed: int = 20240501

    def follower_distances(self) -> np.ndarray:
        return np.asarray(self.distances, dtype=float)

    def follower_training_energies(self) -> np.ndarray:
        """Per-follower compute energy of one local training pass [J], shape (I,)."""
        per_follower = self.compute.energy_per_bit() * self.dataset.sample_bits * self.dataset.samples_per
        return np.full(self.n_followers, per_follower)

    def build_dataset(self, seed: int | None = None):
        """Instantiate the synthetic problem: (datasets, loss_model)."""
        return self.dataset.build(self.n_followers, seed)

    def default_design(self) -> DesignVector:
        """A hand-tuned feasible operating point used by the validation runs."""
        return DesignVector(
            p=np.full(self.n_followers, min(0.4, self.p_max)),
            p_leader=min(0.4, self.p_max),
            beta=0.35,
            v=12.0 if self.flight.v_max >= 12.0 else self.flight.v_max / 2.0,
        )

    def validate(self) -> list[str]:
        errors = []
        if self.n_followers < 1:
            errors.append("n_followers must be >= 1")
        if len(self.distances) != self.n_followers:
            errors.append(
                f"distances must list one entry per follower ({self.n_followers}), got {len(self.distances)}"
            )
        for i, d in enumerate(self.distances):
            if not (d > 0.0):
                errors.append(f"distances[{i}] must be > 0")
        if not (self.round_time_s > 0.0):
            errors.append("round_time must be > 0")
        if not (self.p_max > 0.0):
            errors.append("p_max must be > 0")
        errors += self.antenna.validate("antenna")
        errors += self.radio.validate("radio")
        errors += self.compute.validate("compute")
        errors += self.flight.validate("flight")
        errors += self.energy_budget.validate("energy_budget")
        errors += self.control.validate("control")
        if len(self.control.tau) != self.n_followers:
            errors.append(
                f"control.tau must list one entry per follower ({self.n_followers}), got {len(self.control.tau)}"
            )
        errors += self.dataset.validate("dataset")
        errors += self.saa.validate("saa")
        errors += self.uplink_interference.validate("uplink_interference")
        errors += self.downlink_interference.validate("downlink_interference")
        if len(self.epsilon_fracs) == 0:
            errors.append("epsilon_fracs must not be empty")
        for i, f in enumerate(self.epsilon_fracs):
            if not (0.0 < f < 1.0):
                errors.append(f"epsilon_fracs[{i}] must be in (0, 1)")
        if self.mc_runs < 1:
            errors.append("mc_runs must be >= 1")
        if self.n_success_samples < 1:
            errors.append("n_success_samples must be >= 1")
        if self.max_rounds < 1:
            errors.append("max_rounds must be >= 1")
        return errors

    def require_valid(self) -> "SwarmScenario":
        errors = self.validate()
        if errors:
            raise ConfigError(errors)
        return self


# === JSON ingestion ===


def _check_unknown(raw: dict, known: set[str], prefix: str, errors: list[str]):
    for key in raw:
        if key not in known:
            where = f"{prefix}.{key}" if prefix else key
            errors.append(f"unknown key: {where}")


def _num(raw: dict, key: str, default, prefix: str, errors: list[str]) -> float:
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        errors.append(f"{prefix}.{key} must be a number" if prefix else f"{key} must be a number")
        return default
    return float(val)


def _int(raw: dict, key: str, default, prefix: str, errors: list[str]) -> int:
    val = raw.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        errors.append(f"{prefix}.{key} must be an integer" if prefix else f"{key} must be an integer")
        return default
    return int(val)


def _bool(raw: dict, key: str, default, prefix: str, errors: list[str]) -> bool:
    val = raw.get(key, default)
    if not isinstance(val, bool):
        errors.append(f"{prefix}.{key} must be a boolean" if prefix else f"{key} must be a boolean")
        return default
    return bool(val)


def _parse_antenna(raw: dict, errors: list[str]) -> AntennaPattern:
    _check_unknown(raw, {"theta_init", "sigma2", "g_min", "g_min_db", "sections"}, "antenna", errors)
    if "g_min" in raw and "g_min_db" in raw:
        errors.append("antenna: give g_min or g_min_db, not both")
    default = AntennaPattern()
    g_min = _num(raw, "g_min", default.g_min, "antenna", errors)
    if "g_min_db" in raw:
        g_min = 10.0 ** (_num(raw, "g_min_db", -2.0, "antenna", errors) / 10.0)
    return AntennaPattern(
        theta_init=_num(raw, "theta_init", default.theta_init, "antenna", errors),
        sigma2=_num(raw, "sigma2", default.sigma2, "antenna", errors),
        g_min=g_min,
        sections=_int(raw, "sections", default.sections, "antenna", errors),
    )


def _parse_radio(raw: dict, errors: list[str]) -> RadioParams:
    known = {
        "bw_up", "bw_down", "noise_psd", "noise_psd_dbm_hz",
        "pkt_local", "pkt_global", "rician_k", "pathloss_exp",
    }
    _check_unknown(raw, known, "radio", errors)
    if "noise_psd" in raw and "noise_psd_dbm_hz" in raw:
        errors.append("radio: give noise_psd or noise_psd_dbm_hz, not both")
    default = RadioParams()
    noise = _num(raw, "noise_psd", default.noise_psd, "radio", errors)
    if "noise_psd_dbm_hz" in raw:
        noise = 10.0 ** ((_num(raw, "noise_psd_dbm_hz", -174.0, "radio", errors) - 30.0) / 10.0)
    return RadioParams(
        bw_up=_num(raw, "bw_up", default.bw_up, "radio", errors),
        bw_down=_num(raw, "bw_down", default.bw_down, "radio", errors),
        noise_psd=noise,
        pkt_local=_num(raw, "pkt_local", default.pkt_local, "radio", errors),
        pkt_global=_num(raw, "pkt_global", default.pkt_global, "radio", errors),
        rician_k=_num(raw, "rician_k", default.rician_k, "radio", errors),
        pathloss_exp=_num(raw, "pathloss_exp", default.pathloss_exp, "radio", errors),
    )


def _parse_compute(raw: dict, errors: list[str]) -> ComputeParams:
    _check_unknown(raw, {"kappa", "cycles_per_bit", "cpu_freq"}, "compute", errors)
    d = ComputeParams()
    return ComputeParams(
        kappa=_num(raw, "kappa", d.kappa, "compute", errors),
        cycles_per_bit=_num(raw, "cycles_per_bit", d.cycles_per_bit, "compute", errors),
        cpu_freq=_num(raw, "cpu_freq", d.cpu_freq, "compute", errors),
    )


def _parse_flight(raw: dict, errors: list[str]) -> FlightParams:
    known = {"rotors", "rotor_diameter", "air_density", "efficiency", "mass", "gravity", "v_max"}
    _check_unknown(raw, known, "flight", errors)
    d = FlightParams()
    return FlightParams(
        rotors=_int(raw, "rotors", d.rotors, "flight", errors),
        rotor_diameter=_num(raw, "rotor_diameter", d.rotor_diameter, "flight", errors),
        air_density=_num(raw, "air_density", d.air_density, "flight", errors),
        efficiency=_num(raw, "efficiency", d.efficiency, "flight", errors),
        mass=_num(raw, "mass", d.mass, "flight", errors),
        gravity=_num(raw, "gravity", d.gravity, "flight", errors),
        v_max=_num(raw, "v_max", d.v_max, "flight", errors),
    )


def _parse_energy_budget(raw: dict, errors: list[str]) -> EnergyBudget:
    _check_unknown(raw, {"e_bar", "xi_leader", "xi_follower"}, "energy_budget", errors)
    d = EnergyBudget()
    return EnergyBudget(
        e_bar=_num(raw, "e_bar", d.e_bar, "energy_budget", errors),
        xi_leader=_num(raw, "xi_leader", d.xi_leader, "energy_budget", errors),
        xi_follower=_num(raw, "xi_follower", d.xi_follower, "energy_budget", errors),
    )


def _parse_control(raw: dict, n_followers: int, errors: list[str]) -> ControlRequirements:
    _check_unknown(raw, {"tau", "xi_control"}, "control", errors)
    tau_raw = raw.get("tau", 0.05)
    if isinstance(tau_raw, (int, float)) and not isinstance(tau_raw, bool):
        tau = (float(tau_raw),) * n_followers
    elif isinstance(tau_raw, list) and all(
        isinstance(t, (int, float)) and not isinstance(t, bool) for t in tau_raw
    ):
        tau = tuple(float(t) for t in tau_raw)
    else:
        errors.append("control.tau must be a number or a list of numbers")
        tau = (0.05,) * n_followers
    return ControlRequirements(
        tau=tau, xi_control=_num(raw, "xi_control", 0.9, "control", errors)
    )


def _parse_dataset(raw: dict, errors: list[str]) -> DatasetSpec:
    known = {
        "samples_per", "dim", "noise_std", "sample_bits", "nuisance_dims",
        "signal_scale", "owner_emphasis", "nuisance_scale",
        "exact_second_moments", "w_scale", "seed",
    }
    _check_unknown(raw, known, "dataset", errors)
    d = DatasetSpec()
    emphasis = raw.get("owner_emphasis", d.owner_emphasis)
    if emphasis is not None and (isinstance(emphasis, bool) or not isinstance(emphasis, (int, float))):
        errors.append("dataset.owner_emphasis must be a number or null")
        emphasis = d.owner_emphasis
    return DatasetSpec(
        samples_per=_int(raw, "samples_per", d.samples_per, "dataset", errors),
        dim=_int(raw, "dim", d.dim, "dataset", errors),
        noise_std=_num(raw, "noise_std", d.noise_std, "dataset", errors),
        sample_bits=_num(raw, "sample_bits", d.sample_bits, "dataset", errors),
        nuisance_dims=_int(raw, "nuisance_dims", d.nuisance_dims, "dataset", errors),
        signal_scale=_num(raw, "signal_scale", d.signal_scale, "dataset", errors),
        owner_emphasis=None if emphasis is None else float(emphasis),
        nuisance_scale=_num(raw, "nuisance_scale", d.nuisance_scale, "dataset", errors),
        exact_second_moments=_bool(raw, "exact_second_moments", d.exact_second_moments, "dataset", errors),
        w_scale=_num(raw, "w_scale", d.w_scale, "dataset", errors),
        seed=_int(raw, "seed", d.seed, "dataset", errors),
    )


def _parse_saa(raw: dict, errors: list[str]) -> SaaConfig:
    known = {
        "samples_k", "c_bar", "epsilon_opt_frac", "max_iters",
        "step_scale", "inner_tol", "max_cycles", "xtol",
    }
    _check_unknown(raw, known, "saa", errors)
    d = SaaConfig()
    return SaaConfig(
        samples_k=_int(raw, "samples_k", d.samples_k, "saa", errors),
        c_bar=_num(raw, "c_bar", d.c_bar, "saa", errors),
        epsilon_opt_frac=_num(raw, "epsilon_opt_frac", d.epsilon_opt_frac, "saa", errors),
        max_iters=_int(raw, "max_iters", d.max_iters, "saa", errors),
        step_scale=_num(raw, "step_scale", d.step_scale, "saa", errors),
        inner_tol=_num(raw, "inner_tol", d.inner_tol, "saa", errors),
        max_cycles=_int(raw, "max_cycles", d.max_cycles, "saa", errors),
        xtol=_num(raw, "xtol", d.xtol, "saa", errors),
    )


def _parse_interference(raw, name: str, errors: list[str]) -> InterferenceField:
    if not isinstance(raw, list):
        errors.append(f"{name} must be a list of interferer objects")
        return InterferenceField()
    out = []
    for j, entry in enumerate(raw):
        if not isinstance(entry, dict):
            errors.append(f"{name}[{j}] must be an object")
            continue
        _check_unknown(entry, {"distance", "power", "gain_product", "active_prob"}, f"{name}[{j}]", errors)
        out.append(
            Interferer(
                distance=_num(entry, "distance", 1.0, f"{name}[{j}]", errors),
                power=_num(entry, "power", 0.0, f"{name}[{j}]", errors),
                gain_product=_num(entry, "gain_product", 1.0, f"{name}[{j}]", errors),
                active_prob=_num(entry, "active_prob", 0.0, f"{name}[{j}]", errors),
            )
        )
    return InterferenceField(tuple(out))


_TOP_KEYS = {
    "n_followers", "distances", "round_time", "p_max", "antenna", "radio",
    "compute", "flight", "energy_budget", "control", "dataset", "saa",
    "uplink_interference", "downlink_interference", "epsilon_fracs",
    "mc_runs", "n_success_samples", "max_rounds", "use_sectionalized_gain",
    "base_seed",
}


def scenario_from_dict(raw: dict) -> SwarmScenario:
    """Build and fully validate a scenario from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError(["top-level config must be a JSON object"])
    errors: list[str] = []
    _check_unknown(raw, _TOP_KEYS, "", errors)

    defaults = SwarmScenario()
    n_followers = _int(raw, "n_followers", defaults.n_followers, "", errors)
    if n_followers < 1:
        errors.append("n_followers must be >= 1")
        n_followers = defaults.n_followers

    dist_raw = raw.get("distances")
    if dist_raw is None:
        distances = _default_distances(n_followers)
    elif isinstance(dist_raw, list) and all(
        isinstance(d, (int, float)) and not isinstance(d, bool) for d in dist_raw
    ):
        distances = tuple(float(d) for d in dist_raw)
    else:
        errors.append("distances must be a list of numbers")
        distances = _default_distances(n_followers)

    def section(key):
        sub = raw.get(key, {})
        if not isinstance(sub, dict):
            errors.append(f"{key} must be an object")
            return {}
        return sub

    eps_raw = raw.get("epsilon_fracs")
    if eps_raw is None:
        epsilon_fracs = defaults.epsilon_fracs
    elif isinstance(eps_raw, list) and all(
        isinstance(e, (int, float)) and not isinstance(e, bool) for e in eps_raw
    ):
        epsilon_fracs = tuple(float(e) for e in eps_raw)
    else:
        errors.append("epsilon_fracs must be a list of numbers")
        epsilon_fracs = defaults.epsilon_fracs

    up_raw = raw.get("uplink_interference")
    dn_raw = raw.get("downlink_interference")
    scenario = SwarmScenario(
        n_followers=n_followers,
        distances=distances,
        round_time_s=_num(raw, "round_time", defaults.round_time_s, "", errors),
        p_max=_num(raw, "p_max", defaults.p_max, "", errors),
        antenna=_parse_antenna(section("antenna"), errors),
        radio=_parse_radio(section("radio"), errors),
        compute=_parse_compute(section("compute"), errors),
        flight=_parse_flight(section("flight"), errors),
        energy_budget=_parse_energy_budget(section("energy_budget"), errors),
        control=_parse_control(section("control"), n_followers, errors),
        dataset=_parse_dataset(section("dataset"), errors),
        saa=_parse_saa(section("saa"), errors),
        uplink_interference=(
            InterferenceField(_default_interferers())
            if up_raw is None
            else _parse_interference(up_raw, "uplink_interference", errors)
        ),
        downlink_interference=(
            InterferenceField(_default_interferers())
            if dn_raw is None
            else _parse_interference(dn_raw, "downlink_interference", errors)
        ),
        epsilon_fracs=epsilon_fracs,
        mc_runs=_int(raw, "mc_runs", defaults.mc_runs, "", errors),
        n_success_samples=_int(raw, "n_success_samples", defaults.n_success_samples, "", errors),
        max_rounds=_int(raw, "max_rounds", defaults.max_rounds, "", errors),
        use_sectionalized_gain=_bool(raw, "use_sectionalized_gain", defaults.use_sectionalized_gain, "", errors),
        base_seed=_int(raw, "base_seed", defaults.base_seed, "", errors),
    )
    errors += scenario.validate()
    if errors:
        raise ConfigError(errors)
    return scenario


def load_scenario(path) -> SwarmScenario:
    """Read, parse, and validate a JSON scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return scenario_from_dict(raw)


def scenario_to_dict(s: SwarmScenario) -> dict:
    """Canonical SI-unit dict form; load(serialize(x)) == x."""

    def interferers(fieldset: InterferenceField):
        return [
            {
                "distance": it.distance,
                "power": it.power,
                "gain_product": it.gain_product,
                "active_prob": it.active_prob,
            }
            for it in fieldset.interferers
        ]

    return {
        "n_followers": s.n_followers,
        "distances": list(s.distances),
        "round_time": s.round_time_s,
        "p_max": s.p_max,
        "antenna": {
            "theta_init": s.antenna.theta_init,
            "sigma2": s.antenna.sigma2,
            "g_min": s.antenna.g_min,
            "sections": s.antenna.sections,
        },
        "radio": {
            "bw_up": s.radio.bw_up,
            "bw_down": s.radio.bw_down,
            "noise_psd": s.radio.noise_psd,
            "pkt_local": s.radio.pkt_local,
            "pkt_global": s.radio.pkt_global,
            "rician_k": s.radio.rician_k,
            "pathloss_exp": s.radio.pathloss_exp,
        },
        "compute": {
            "kappa": s.compute.kappa,
            "cycles_per_bit": s.compute.cycles_per_bit,
            "cpu_freq": s.compute.cpu_freq,
        },
        "flight": {
            "rotors": s.flight.rotors,
            "rotor_diameter": s.flight.rotor_diameter,
            "air_density": s.flight.air_density,
            "efficiency": s.flight.efficiency,
            "mass": s.flight.mass,
            "gravity": s.flight.gravity,
            "v_max": s.flight.v_max,
        },
        "energy_budget": {
            "e_bar": s.energy_budget.e_bar,
            "xi_leader": s.energy_budget.xi_leader,
            "xi_follower": s.energy_budget.xi_follower,
        },
        "control": {"tau": list(s.control.tau), "xi_control": s.control.xi_control},
        "dataset": {
            "samples_per": s.dataset.samples_per,
            "dim": s.dataset.dim,
            "noise_std": s.dataset.noise_std,
            "sample_bits": s.dataset.sample_bits,
            "nuisance_dims": s.dataset.nuisance_dims,
            "signal_scale": s.dataset.signal_scale,
            "owner_emphasis": s.dataset.owner_emphasis,
            "nuisance_scale": s.dataset.nuisance_scale,
            "exact_second_moments": s.dataset.exact_second_moments,
            "w_scale": s.dataset.w_scale,
            "seed": s.dataset.seed,
        },
        "saa": {
            "samples_k": s.saa.samples_k,
            "c_bar": s.saa.c_bar,
            "epsilon_opt_frac": s.saa.epsilon_opt_frac,
            "max_iters": s.saa.max_iters,
            "step_scale": s.saa.step_scale,
            "inner_tol": s.saa.inner_tol,
            "max_cycles": s.saa.max_cycles,
            "xtol": s.saa.xtol,
        },
        "uplink_interference": interferers(s.uplink_interference),
        "downlink_interference": interferers(s.downlink_interference),
        "epsilon_fracs": list(s.epsilon_fracs),
        "mc_runs": s.mc_runs,
        "n_success_samples": s.n_success_samples,
        "max_rounds": s.max_rounds,
        "use_sectionalized_gain": s.use_sectionalized_gain,
        "base_seed": s.base_seed,
    }


def serialize_scenario(s: SwarmScenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def save_scenario(s: SwarmScenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(s))


def with_overrides(s: SwarmScenario, **kwargs) -> SwarmScenario:
    """Frozen-dataclass convenience: replace top-level fields and revalidate."""
    return replace(s, **kwargs).require_valid()
