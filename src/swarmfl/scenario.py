"""Scenario configuration: every physical and experimental constant in one place.

A scenario is loaded from JSON, validated as a whole (all problems reported
at once, each naming the offending field), and serialized back to a
canonical SI form.  An empty config gives the documented default swarm:
five followers at 50..80 m, 1 MHz links at -174 dBm/Hz noise, 0.5 W power
cap, 0.1 s rounds, quadrotor flight constants, a 7000 J energy budget, and
the bundled synthetic regression problem.

The JSON form is one walk over the dataclass fields: each section is an
object keyed by field name, interference fields are lists of interferer
objects.  The few keys that depart from that are listed in _IRREGULAR:
round_time for round_time_s; the decibel conveniences antenna.g_min_db and
radio.noise_psd_dbm_hz, converted once and serialized in linear/SI units;
distances and control.tau, which default to one entry per follower; and a
single number for control.tau, which stands for every follower.
"""
from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from typing import get_type_hints

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

    samples_per: int = field(default=40, metadata={"bound": ">= 1"})
    dim: int = field(default=6, metadata={"bound": ">= 1"})
    noise_std: float = field(default=0.0, metadata={"bound": ">= 0"})
    sample_bits: float = field(default=8e4, metadata={"bound": "> 0"})
    nuisance_dims: int = 1
    signal_scale: float = field(default=0.4862, metadata={"bound": "finite"})
    owner_emphasis: float | None = field(default=0.12, metadata={"bound": ">= 0"})
    nuisance_scale: float = field(default=1.0, metadata={"bound": "finite"})
    exact_second_moments: bool = True
    w_scale: float = field(default=1.0, metadata={"bound": "finite"})
    seed: int = field(default=7, metadata={"bound": ">= 0"})

    def validate(self) -> list[str]:
        """The rules that tie the dataset's fields together."""
        # both layouts need a nonsingular pooled Gram matrix
        checks = [("samples_per", self.samples_per >= self.dim, f">= dim ({self.dim})")]
        if self.owner_emphasis is not None:
            checks += [
                ("nuisance_dims", 0 <= self.nuisance_dims < self.dim, "in [0, dim)"),
                ("signal_scale", self.signal_scale > 0.0, "> 0"),
                ("nuisance_scale", self.nuisance_scale > 0.0, "> 0"),
                # a negative w_scale only flips the sign of the truth vector
                ("w_scale", self.w_scale != 0.0, "nonzero"),
            ]
        return [f"dataset.{name} must be {rule}" for name, ok, rule in checks if not ok]

    def build(self, n_followers: int):
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
        return make_regression_problem(n_followers, self.samples_per, self.dim, self.seed, **kwargs)


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

    samples_k: int = field(default=1000, metadata={"bound": ">= 1"})
    c_bar: float = field(default=50.0, metadata={"bound": "> 0"})
    epsilon_opt_frac: float = field(default=0.05, metadata={"bound": "in (0, 1)"})
    max_iters: int = field(default=200, metadata={"bound": ">= 1"})
    step_scale: float = field(default=0.1, metadata={"bound": "> 0"})
    inner_tol: float = field(default=1e-6, metadata={"bound": "> 0"})
    max_cycles: int = field(default=50, metadata={"bound": ">= 1"})
    xtol: float = field(default=1e-3, metadata={"bound": "in (0, 1)"})


def _default_distances(n_followers: int) -> tuple[float, ...]:
    if n_followers == 1:
        return (65.0,)
    return tuple(float(d) for d in np.linspace(50.0, 80.0, n_followers))


def _default_tau(n_followers: int) -> tuple[float, ...]:
    return (0.05,) * n_followers


def _default_interferers() -> tuple[Interferer, ...]:
    side = 10.0 ** -0.4  # squared side-lobe gain of the default antenna
    return tuple(
        Interferer(distance=d, power=1.5, gain_product=side, active_prob=0.5)
        for d in (250.0, 325.0, 400.0)
    )


@dataclass(frozen=True)
class SwarmScenario:
    """Complete description of the swarm, its radio environment, and the job."""

    n_followers: int = field(default=5, metadata={"bound": ">= 1"})
    distances: tuple[float, ...] = field(
        default_factory=lambda: _default_distances(5), metadata={"bound": "> 0"}
    )
    round_time_s: float = field(default=0.1, metadata={"bound": "> 0"})
    p_max: float = field(default=0.5, metadata={"bound": "> 0"})
    antenna: AntennaPattern = field(default_factory=AntennaPattern)
    radio: RadioParams = field(default_factory=RadioParams)
    compute: ComputeParams = field(default_factory=ComputeParams)
    flight: FlightParams = field(default_factory=FlightParams)
    energy_budget: EnergyBudget = field(default_factory=EnergyBudget)
    control: ControlRequirements = field(
        default_factory=lambda: ControlRequirements(tau=_default_tau(5))
    )
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    saa: SaaConfig = field(default_factory=SaaConfig)
    uplink_interference: InterferenceField = field(
        default_factory=lambda: InterferenceField(_default_interferers())
    )
    downlink_interference: InterferenceField = field(
        default_factory=lambda: InterferenceField(_default_interferers())
    )
    epsilon_fracs: tuple[float, ...] = field(
        default=(0.05, 0.10, 0.15, 0.20, 0.25), metadata={"bound": "in (0, 1)"}
    )
    mc_runs: int = field(default=100, metadata={"bound": ">= 1"})
    n_success_samples: int = field(default=10000, metadata={"bound": ">= 1"})
    max_rounds: int = field(default=500, metadata={"bound": ">= 1"})
    use_sectionalized_gain: bool = False
    base_seed: int = field(default=20240501, metadata={"bound": "in [0, 2**64)"})

    def follower_distances(self) -> np.ndarray:
        return np.asarray(self.distances, dtype=float)

    def follower_training_energies(self) -> np.ndarray:
        """Per-follower compute energy of one local training pass [J], shape (I,)."""
        per_follower = self.compute.energy_per_bit() * self.dataset.sample_bits * self.dataset.samples_per
        return np.full(self.n_followers, per_follower)

    def build_dataset(self):
        """Instantiate the synthetic problem: (datasets, loss_model)."""
        return self.dataset.build(self.n_followers)

    def default_design(self) -> DesignVector:
        """A hand-tuned feasible operating point used by the validation runs."""
        return DesignVector(
            p=np.full(self.n_followers, min(0.4, self.p_max)),
            p_leader=min(0.4, self.p_max),
            beta=0.35,
            v=12.0 if self.flight.v_max >= 12.0 else self.flight.v_max / 2.0,
        )

    def validate(self) -> list[str]:
        """Every problem with the scenario, each naming its JSON key.

        Field bounds come from the "bound" metadata of the fields; the rules
        that tie fields together are checked here.
        """
        errors = _bound_errors(self, "")
        for key, values in (("distances", self.distances), ("control.tau", self.control.tau)):
            if len(values) != self.n_followers:
                errors.append(
                    f"{key} must list one entry per follower ({self.n_followers}), got {len(values)}"
                )
        if len(self.epsilon_fracs) == 0:
            errors.append("epsilon_fracs must not be empty")
        return errors + self.dataset.validate()

    def require_valid(self) -> "SwarmScenario":
        errors = self.validate()
        if errors:
            raise ConfigError(errors)
        return self


# === JSON form, derived from the dataclass fields ===


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(value) -> bool:
    return isinstance(value, list) and all(_number(v) for v in value)


# field annotation -> (accepts the JSON value, converts it, what it must be)
_SCALARS = {
    float: (_number, float, "a number"),
    int: (_integer, int, "an integer"),
    bool: (lambda v: isinstance(v, bool), bool, "a boolean"),
    float | None: (
        lambda v: v is None or _number(v), lambda v: v if v is None else float(v), "a number or null"
    ),
    tuple[float, ...]: (_numbers, lambda v: tuple(float(x) for x in v), "a list of numbers"),
}


@dataclass(frozen=True)
class _Key:
    """How one field departs from the plain JSON form, a key named after it."""

    json_key: str | None = None  # the key, where it is not the field name
    db_key: str | None = None  # decibel alternative to the SI key
    from_db: Callable[[float], float] | None = None
    per_follower: Callable[[int], tuple] | None = None  # default sized by the follower count
    broadcast: bool = False  # one number stands for every follower
    counts_followers: bool = False  # this field is the follower count


_PLAIN = _Key()
_IRREGULAR = {
    (SwarmScenario, "n_followers"): _Key(counts_followers=True),
    (SwarmScenario, "distances"): _Key(per_follower=_default_distances),
    (SwarmScenario, "round_time_s"): _Key(json_key="round_time"),
    (AntennaPattern, "g_min"): _Key(db_key="g_min_db", from_db=lambda db: 10.0 ** (db / 10.0)),
    (RadioParams, "noise_psd"): _Key(
        db_key="noise_psd_dbm_hz", from_db=lambda dbm: 10.0 ** ((dbm - 30.0) / 10.0)
    ),
    (ControlRequirements, "tau"): _Key(per_follower=_default_tau, broadcast=True),
}
_BAD = object()  # a value that was absent or could not be converted


def _json_key(cls, name: str) -> str:
    return _IRREGULAR.get((cls, name), _PLAIN).json_key or name


@cache
def _field_types(cls) -> dict:
    return get_type_hints(cls)


# a field's "bound" metadata -> the test each of its values must pass; the
# bound is also the error text
_BOUNDS = {
    "finite": lambda x: True,
    "> 0": lambda x: x > 0,
    ">= 0": lambda x: x >= 0,
    ">= 1": lambda x: x >= 1,
    "in (0, 1)": lambda x: 0 < x < 1,
    "in (0, 1]": lambda x: 0 < x <= 1,
    "in [0, 1]": lambda x: 0 <= x <= 1,
    "in [0, 2**64)": lambda x: 0 <= x < 2**64,  # a seed derive_seed keeps whole
}


def _bound_errors(obj, path: str) -> list[str]:
    """Values of obj and of its sections outside their field bounds.

    Walks the fields as _Reader does (into sections, into each interferer,
    into each tuple element) and names each value by its JSON key.
    """
    prefix = f"{path}." if path else ""
    errors = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        where = prefix + _json_key(type(obj), f.name)
        if isinstance(value, InterferenceField):
            for j, interferer in enumerate(value.interferers):
                errors += _bound_errors(interferer, f"{where}[{j}]")
        elif is_dataclass(value):
            errors += _bound_errors(value, where)
        elif "bound" in f.metadata:
            errors += _value_errors(where, value, f.metadata["bound"])
    return errors


def _value_errors(name: str, value, bound: str) -> list[str]:
    """value, or each entry of a tuple or list, outside bound (a key of
    _BOUNDS), named name or name[i].  Every bounded number must also be
    finite."""
    many = isinstance(value, (tuple, list))
    errors = []
    for i, x in enumerate(value if many else [value]):
        where = f"{name}[{i}]" if many else name
        if isinstance(x, float) and not math.isfinite(x):
            errors.append(f"{where} must be finite")
        elif x is not None and not _BOUNDS[bound](x):
            errors.append(f"{where} must be {bound}")
    return errors


class _Reader:
    """One pass over a JSON config.  Collects every error, and tracks the
    follower count that sizes per-follower defaults."""

    def __init__(self):
        self.errors: list[str] = []
        self.n_followers = SwarmScenario.n_followers

    def section(self, cls, raw, path: str):
        """Dataclass cls from its JSON object, or None if it cannot be built.

        Absent keys keep the dataclass default, and a bad value is reported
        and falls back to it.  A field with no default that is absent or
        bad leaves the section unbuilt.  Nested sections are read even when
        absent, so their per-follower defaults follow the follower count.
        """
        if not isinstance(raw, dict):
            self.errors.append(f"{path} must be an object")
            return None
        prefix = f"{path}." if path else ""
        known, kwargs, built = set(), {}, True
        for f in fields(cls):
            tp = _field_types(cls)[f.name]
            rule = _IRREGULAR.get((cls, f.name), _PLAIN)
            key = rule.json_key or f.name
            known.add(key)
            value = _BAD
            if key in raw or (is_dataclass(tp) and tp is not InterferenceField):
                value = self.value(tp, raw.get(key, {}), prefix + key, rule)
            if rule.db_key:
                known.add(rule.db_key)
                if rule.db_key in raw:
                    if key in raw:
                        self.errors.append(f"{path}: give {key} or {rule.db_key}, not both")
                    db = self.value(float, raw[rule.db_key], prefix + rule.db_key, _PLAIN)
                    value = _BAD if db is _BAD else rule.from_db(db)
            if value is _BAD and rule.per_follower:
                # validate() reports a negative count; its defaults are empty
                value = rule.per_follower(max(self.n_followers, 0))
            if value is not _BAD:
                kwargs[f.name] = value
                if rule.counts_followers:
                    self.n_followers = value
            elif f.default is MISSING and f.default_factory is MISSING:
                if key not in raw:
                    self.errors.append(f"{prefix}{key} is required")
                built = False
        self.errors += [f"unknown key: {prefix}{key}" for key in raw if key not in known]
        return cls(**kwargs) if built else None

    def value(self, tp, raw, where: str, rule: _Key):
        """raw converted to the field annotation tp, or _BAD once reported."""
        if tp is InterferenceField:
            if not isinstance(raw, list):
                self.errors.append(f"{where} must be a list of interferer objects")
                return _BAD
            entries = [self.section(Interferer, entry, f"{where}[{j}]") for j, entry in enumerate(raw)]
            return InterferenceField(tuple(e for e in entries if e is not None))
        if is_dataclass(tp):
            built = self.section(tp, raw, where)
            return _BAD if built is None else built
        accepts, convert, what = _SCALARS[tp]
        if rule.broadcast and _number(raw):
            return (float(raw),) * self.n_followers
        if accepts(raw):
            return convert(raw)
        self.errors.append(f"{where} must be {'a number or ' if rule.broadcast else ''}{what}")
        return _BAD


def scenario_from_dict(raw: dict) -> SwarmScenario:
    """Build and fully validate a scenario from a parsed JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError(["top-level config must be a JSON object"])
    reader = _Reader()
    scenario = reader.section(SwarmScenario, raw, "")
    errors = reader.errors + scenario.validate()
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


def _to_json(value):
    if isinstance(value, InterferenceField):
        return [_to_json(it) for it in value.interferers]
    if is_dataclass(value):
        return {_json_key(type(value), f.name): _to_json(getattr(value, f.name)) for f in fields(value)}
    return list(value) if isinstance(value, tuple) else value


def scenario_to_dict(s: SwarmScenario) -> dict:
    """Canonical SI-unit dict form; load(serialize(x)) == x."""
    return _to_json(s)


def serialize_scenario(s: SwarmScenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def save_scenario(s: SwarmScenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(s))

