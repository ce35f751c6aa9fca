"""Wireless links between swarm members.

Directional antennas with orientation jitter, Rician small-scale fading,
external interferers, and the resulting SINR-based transmission delays for
the follower->leader uplinks and leader->follower downlinks.  A round of
duration T_r is split by the scheduling fraction beta into an uplink window
beta*T_r and a downlink window (1-beta)*T_r; a follower participates in a
round only if both of its transfers fit their windows.

Angles are normalized so that +/-1 is the edge of the antenna main lobe.
All quantities are SI (seconds, watts, hertz, meters).
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .design import DesignVector
    from .scenario import SwarmScenario

__all__ = [
    "AntennaPattern",
    "RadioParams",
    "Interferer",
    "InterferenceField",
    "ChannelDraw",
    "ScenarioSamples",
    "antenna_gain_exact",
    "antenna_gain_sectionalized",
    "rician_power_fading",
    "draw_channel",
    "sinr_coefficients",
    "link_delays",
    "success_mask",
    "participation_masks",
    "estimate_success_probs",
]


# === antenna model ===


@dataclass(frozen=True)
class AntennaPattern:
    """Main-lobe antenna with a flat side-lobe floor.

    theta_init : normalized boresight offset applied to every link
                 (0 means the antennas start pointed at each other)
    sigma2     : variance of the per-UAV orientation jitter, drawn once
                 per round per UAV and shared by all of that UAV's links
    g_min      : side-lobe gain (linear), used outside the main lobe
    sections   : number of quantization sections M for the sectionalized
                 approximation of the main lobe
    """

    theta_init: float = field(default=0.0, metadata={"bound": "finite"})
    sigma2: float = field(default=0.01, metadata={"bound": ">= 0"})
    g_min: float = field(default=10.0 ** -0.2, metadata={"bound": "in (0, 1]"})
    sections: int = field(default=8, metadata={"bound": ">= 1"})


def antenna_gain_exact(pattern: AntennaPattern, total_angle) -> float | np.ndarray:
    """Main-lobe gain cos^2(pi/2 * angle) inside |angle| <= 1, g_min outside.

    total_angle is the normalized pointing error of the link, boresight
    offset plus orientation jitter.  Scalar in, scalar out; arrays broadcast.
    """
    a = np.abs(np.asarray(total_angle, dtype=float))
    main = np.cos(0.5 * np.pi * np.minimum(a, 1.0)) ** 2
    out = np.where(a <= 1.0, main, pattern.g_min)
    return float(out) if out.ndim == 0 else out


def antenna_gain_sectionalized(pattern: AntennaPattern, total_angle) -> float | np.ndarray:
    """Staircase approximation of the main lobe with M equal sections.

    The lobe [0, 1) is split into M sections and each section reports the
    gain at its inner edge, cos^2(pi*m/(2M)) with m = floor(|angle|*M).
    |angle| = 1 falls through to m = M, which gives the exact edge value 0;
    |angle| > 1 returns the side-lobe floor g_min.
    """
    m_sections = int(pattern.sections)
    a = np.abs(np.asarray(total_angle, dtype=float))
    m = np.floor(np.minimum(a, 1.0) * m_sections)
    stair = np.cos(0.5 * np.pi * m / m_sections) ** 2
    out = np.where(a <= 1.0, stair, pattern.g_min)
    return float(out) if out.ndim == 0 else out


# === link and interference description ===


@dataclass(frozen=True)
class RadioParams:
    """Radio-layer constants shared by all links.

    bw_up, bw_down : per-link bandwidth of uplink / downlink channels [Hz]
    noise_psd      : noise power spectral density [W/Hz]
    pkt_local      : size of one follower model upload [bits]
    pkt_global     : size of one global model broadcast [bits]
    rician_k       : Rician K-factor of the small-scale fading (linear)
    pathloss_exp   : path loss exponent alpha
    """

    bw_up: float = field(default=1e6, metadata={"bound": "> 0"})
    bw_down: float = field(default=1e6, metadata={"bound": "> 0"})
    noise_psd: float = field(default=10.0 ** -20.4, metadata={"bound": "> 0"})
    pkt_local: float = field(default=8e4, metadata={"bound": "> 0"})
    pkt_global: float = field(default=8e4, metadata={"bound": "> 0"})
    rician_k: float = field(default=10.0, metadata={"bound": ">= 0"})
    pathloss_exp: float = field(default=2.5, metadata={"bound": "> 0"})


@dataclass(frozen=True)
class Interferer:
    """One external transmitter that may collide with a swarm link.

    distance     : distance to the victim receiver [m]
    power        : transmit power [W]
    gain_product : fixed tx*rx antenna gain product toward the victim
    active_prob  : probability the interferer transmits in a given round
    """

    distance: float = field(metadata={"bound": "> 0"})
    power: float = field(metadata={"bound": ">= 0"})
    gain_product: float = field(metadata={"bound": ">= 0"})
    active_prob: float = field(metadata={"bound": "in [0, 1]"})


@dataclass(frozen=True)
class InterferenceField:
    """A set of external interferers sharing a channel with the swarm."""

    interferers: tuple[Interferer, ...] = ()

    def __len__(self) -> int:
        return len(self.interferers)

    def distances(self) -> np.ndarray:
        return np.array([it.distance for it in self.interferers], dtype=float)

    def powers(self) -> np.ndarray:
        return np.array([it.power for it in self.interferers], dtype=float)

    def gain_products(self) -> np.ndarray:
        return np.array([it.gain_product for it in self.interferers], dtype=float)

    def active_probs(self) -> np.ndarray:
        return np.array([it.active_prob for it in self.interferers], dtype=float)


# === per-round randomness ===


@dataclass
class ChannelDraw:
    """One joint realization of everything random in a communication round.

    Leading axes may hold a batch of independent draws; the trailing axes
    are as documented.  Slot 0 of angle_dev is the leader, slots 1..I the
    followers.
    """

    angle_dev: np.ndarray  # (..., I+1) orientation jitter per UAV
    fading_up: np.ndarray  # (..., I) power fading, follower i -> leader
    fading_down: np.ndarray  # (..., I) power fading, leader -> follower i
    fading_up_interf: np.ndarray  # (..., Ju) interferer -> leader
    fading_down_interf: np.ndarray  # (..., Jd, I) interferer -> follower i
    active_up: np.ndarray  # (..., Ju) bool, uplink interferer transmitting
    active_down: np.ndarray  # (..., Jd) bool, downlink interferer transmitting


def rician_power_fading(rng: np.random.Generator, k_factor: float, size) -> np.ndarray:
    """Unit-mean power gain of a Rician channel with K-factor k_factor.

    The line-of-sight component has power K/(K+1) and the scattered
    component 1/(K+1), so the mean power gain is exactly 1.
    """
    los = np.sqrt(k_factor / (k_factor + 1.0))
    scatter = np.sqrt(1.0 / (2.0 * (k_factor + 1.0)))
    re = los + scatter * rng.standard_normal(size)
    im = scatter * rng.standard_normal(size)
    return re * re + im * im


def draw_channel(scenario: "SwarmScenario", rng: np.random.Generator, size: int | None = None) -> ChannelDraw:
    """Draw one (size=None) or a batch of channel realizations.

    Condition that must hold: the generator is consumed the same way at
    every jitter variance.  The jitter is sqrt(antenna.sigma2) times the
    first standard normals drawn, and nothing else drawn depends on sigma2
    (bandwidth is not read at all).  ScenarioSamples draws once at unit
    variance and rescales that jitter to read any sigma2 off the same
    draws, bit for bit as a draw at that sigma2 would give; sweeps over
    jitter variance or bandwidth are coupled draw-for-draw because of it.
    """
    n_f = scenario.n_followers
    j_up = len(scenario.uplink_interference)
    j_dn = len(scenario.downlink_interference)
    shape = () if size is None else (size,)
    sigma = np.sqrt(scenario.antenna.sigma2)
    k = scenario.radio.rician_k
    angle_dev = sigma * rng.standard_normal(shape + (n_f + 1,))
    fading_up = rician_power_fading(rng, k, shape + (n_f,))
    fading_down = rician_power_fading(rng, k, shape + (n_f,))
    fading_up_interf = rician_power_fading(rng, k, shape + (j_up,))
    fading_down_interf = rician_power_fading(rng, k, shape + (j_dn, n_f))
    active_up = rng.random(shape + (j_up,)) < scenario.uplink_interference.active_probs()
    active_down = rng.random(shape + (j_dn,)) < scenario.downlink_interference.active_probs()
    return ChannelDraw(
        angle_dev=angle_dev,
        fading_up=fading_up,
        fading_down=fading_down,
        fading_up_interf=fading_up_interf,
        fading_down_interf=fading_down_interf,
        active_up=active_up,
        active_down=active_down,
    )


# === SINR and delays ===


def _gain(scenario: "SwarmScenario", angle) -> np.ndarray:
    if scenario.use_sectionalized_gain:
        return antenna_gain_sectionalized(scenario.antenna, angle)
    return antenna_gain_exact(scenario.antenna, angle)


@cache
def _interference_coefficients(field: InterferenceField, pathloss_exp: float) -> np.ndarray:
    """Power times path loss times antenna gains of each interferer, (J,)."""
    coef = field.powers() * field.distances() ** (-pathloss_exp) * field.gain_products()
    coef.flags.writeable = False  # shared by every call with this field
    return coef


def _interference_power(field: InterferenceField, fading, active, pathloss_exp, per_victim: bool):
    """Received interference, summed over active interferers.

    With per_victim=False the fading is laid out (..., J) for a single
    victim; with per_victim=True it is (..., J, V) with one column per
    victim receiver.  active is (..., J) either way.
    """
    if len(field) == 0:
        return 0.0
    coef = _interference_coefficients(field, pathloss_exp)
    if per_victim:
        term = coef[:, None] * fading * np.asarray(active)[..., :, None]
        return term.sum(axis=-2)
    term = coef * fading * active
    return term.sum(axis=-1)


def _jitter_free_parts(draw: ChannelDraw, scenario: "SwarmScenario"):
    """The parts of a draw's SINR kernels that neither jitter nor bandwidth changes.

    Returns (faded_up, interf_up, faded_dn, interf_dn): fading times path
    loss of every uplink and downlink, and the received interference power
    at each receiver.
    """
    alpha = scenario.radio.pathloss_exp
    path = scenario.follower_distances() ** (-alpha)
    interf_up = _interference_power(
        scenario.uplink_interference, draw.fading_up_interf, draw.active_up, alpha, per_victim=False
    )
    interf_dn = _interference_power(
        scenario.downlink_interference, draw.fading_down_interf, draw.active_down, alpha, per_victim=True
    )
    return draw.fading_up * path, np.asarray(interf_up)[..., None], draw.fading_down * path, interf_dn


def _signal_power(faded_up, faded_dn, angle_dev, scenario: "SwarmScenario"):
    """Received signal power per watt of every uplink and downlink under jitter angle_dev."""
    theta = scenario.antenna.theta_init
    gain_product = _gain(scenario, theta + angle_dev[..., 1:]) * _gain(scenario, theta + angle_dev[..., :1])
    return faded_up * gain_product, faded_dn * gain_product


def _kernels(num_up, interf_up, num_dn, interf_dn, radio: RadioParams) -> tuple[np.ndarray, np.ndarray]:
    """SINR per watt; only the noise term bw * N0 added to the interference reads bandwidth."""
    c_up = num_up / (interf_up + radio.bw_up * radio.noise_psd)
    c_dn = num_dn / (interf_dn + radio.bw_down * radio.noise_psd)
    return c_up, c_dn


def sinr_coefficients(draw: ChannelDraw, scenario: "SwarmScenario") -> tuple[np.ndarray, np.ndarray]:
    """SINR per watt of own transmit power, for every follower link.

    Returns (c_up, c_dn), each shaped like draw.fading_up, such that the
    uplink SINR of follower i at power p_i is p_i * c_up[..., i] and the
    downlink SINR at leader power p_L is p_L * c_dn[..., i].
    """
    faded_up, interf_up, faded_dn, interf_dn = _jitter_free_parts(draw, scenario)
    num_up, num_dn = _signal_power(faded_up, faded_dn, draw.angle_dev, scenario)
    return _kernels(num_up, interf_up, num_dn, interf_dn, scenario.radio)


def _delay(pkt_bits: float, bandwidth: float, sinr) -> np.ndarray:
    """Link delay [s] of a packet at the given SINR; inf where the rate is zero."""
    rate = bandwidth * np.log1p(sinr) / np.log(2.0)
    with np.errstate(divide="ignore"):
        return np.where(rate > 0.0, pkt_bits / np.maximum(rate, 1e-300), np.inf)


def _kernel_delays(c_up, c_dn, design: "DesignVector", scenario: "SwarmScenario"):
    p = np.asarray(design.p, dtype=float)
    if p.shape != (scenario.n_followers,):
        raise ValueError(f"design.p has shape {p.shape}, expected ({scenario.n_followers},)")
    if not (np.all(p > 0.0) and design.p_leader > 0.0):  # NaN fails too
        raise ValueError("transmit powers must be positive")
    t_up = _delay(scenario.radio.pkt_local, scenario.radio.bw_up, p * c_up)
    t_dn = _delay(scenario.radio.pkt_global, scenario.radio.bw_down, design.p_leader * c_dn)
    return t_up, t_dn


def link_delays(draw: ChannelDraw, design: "DesignVector", scenario: "SwarmScenario") -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink delays of every follower under one draw (or batch).

    Returns (t_up, t_dn) in seconds, shaped like draw.fading_up.  Raises
    ValueError if any transmit power is non-positive.
    """
    return _kernel_delays(*sinr_coefficients(draw, scenario), design, scenario)


def success_mask(t_up: np.ndarray, t_dn: np.ndarray, beta: float, round_time: float) -> np.ndarray:
    """Participation indicator: upload fits beta*T_r and broadcast fits (1-beta)*T_r."""
    return (t_up <= beta * round_time) & (t_dn <= (1.0 - beta) * round_time)


@dataclass(frozen=True)
class ScenarioSamples:
    """K frozen channel draws, read by every design and grid point scored on them.

    The draws are made once, through draw_channel at unit jitter variance:
    one batch of K (generate), or the kept rows of several batches stacked
    into K rows (_from_parts, as participation_masks does).  Every kernel,
    delay and mask is computed row by row, so a row reads the same bits
    whichever rows it is stacked with.
    A point read off them may differ from the drawn scenario in
    antenna.sigma2 and in its link bandwidths.  Fading times path loss and
    the interference powers are kept from the draw; per jitter variance only
    the antenna gain is recomputed, from sqrt(sigma2) * unit_jitter, which
    is the product draw_channel forms.  So every point reads exactly the
    kernels of a draw at its own sigma2 (see draw_channel for the condition
    this rests on).  A design only rescales the kernels: uplink SINR of
    follower i in sample k is p_i * c_up[k, i], downlink p_L * c_dn[k, i].
    """

    scenario: "SwarmScenario"
    unit_jitter: np.ndarray  # (K, I+1) orientation jitter at unit variance, leader first
    parts: tuple  # (faded_up, interf_up, faded_dn, interf_dn), see _jitter_free_parts
    c_up: np.ndarray  # (K, I) kernels at the scenario's own jitter variance and bandwidths
    c_dn: np.ndarray  # (K, I)
    # the signal power of one jitter variance, the last one read: {sigma2: (num_up, num_dn)}
    _signal: dict = field(repr=False, compare=False)

    @staticmethod
    def generate(scenario: "SwarmScenario", samples_k: int, rng_seed: int) -> "ScenarioSamples":
        """samples_k draws from a generator seeded with rng_seed."""
        if samples_k < 1:
            raise ValueError("samples_k must be >= 1")
        draws = draw_channel(_unit_variance(scenario), np.random.default_rng(rng_seed), size=samples_k)
        return ScenarioSamples._from_parts(scenario, draws.angle_dev, _jitter_free_parts(draws, scenario))

    @staticmethod
    def _from_parts(scenario: "SwarmScenario", unit_jitter: np.ndarray, parts: tuple) -> "ScenarioSamples":
        """Samples from the unit-variance jitter and the jitter-free parts of draws of scenario."""
        faded_up, interf_up, faded_dn, interf_dn = parts
        sigma2 = scenario.antenna.sigma2
        num_up, num_dn = signal = _signal_power(faded_up, faded_dn, np.sqrt(sigma2) * unit_jitter, scenario)
        c_up, c_dn = _kernels(num_up, interf_up, num_dn, interf_dn, scenario.radio)
        return ScenarioSamples(scenario, unit_jitter, parts, c_up, c_dn, {sigma2: signal})

    @property
    def k(self) -> int:
        return self.c_up.shape[0]

    def kernels(self, point: "SwarmScenario") -> tuple[np.ndarray, np.ndarray]:
        """(c_up, c_dn), the SINR per watt of every link at point's jitter variance and bandwidths."""
        sigma2 = point.antenna.sigma2
        if sigma2 == self.scenario.antenna.sigma2 and point.radio == self.scenario.radio:
            return self.c_up, self.c_dn
        faded_up, interf_up, faded_dn, interf_dn = self.parts
        if sigma2 not in self._signal:
            self._signal.clear()  # hold one jitter variance's signal at a time
            self._signal[sigma2] = _signal_power(
                faded_up, faded_dn, np.sqrt(sigma2) * self.unit_jitter, self.scenario
            )
        num_up, num_dn = self._signal[sigma2]
        return _kernels(num_up, interf_up, num_dn, interf_dn, point.radio)

    def _masks(self, design: "DesignVector", point: "SwarmScenario") -> np.ndarray:
        t_up, t_dn = _kernel_delays(*self.kernels(point), design, point)
        return success_mask(t_up, t_dn, design.beta, point.round_time_s)

    def success_probs(self, design: "DesignVector", point: "SwarmScenario") -> np.ndarray:
        """Per-follower participation frequency of design at point, shape (I,)."""
        _require_same_draws(self.scenario, [point])
        return self._masks(design, point).mean(axis=0)


def _require_same_draws(scenario: "SwarmScenario", points) -> None:
    """Points read off the draws of scenario may differ from it only in jitter variance and bandwidth."""
    for point in points:
        antenna = replace(point.antenna, sigma2=scenario.antenna.sigma2)
        radio = replace(point.radio, bw_up=scenario.radio.bw_up, bw_down=scenario.radio.bw_down)
        if replace(point, antenna=antenna, radio=radio) != scenario:
            raise ValueError("points may differ only in antenna.sigma2, radio.bw_up and radio.bw_down")


def _unit_variance(scenario: "SwarmScenario") -> "SwarmScenario":
    """scenario at jitter variance 1, the variance every ScenarioSamples is drawn at."""
    return replace(scenario, antenna=replace(scenario.antenna, sigma2=1.0))


# Rounds whose SINR parts participation_masks stacks into one ScenarioSamples
# (4I + 2 floats a round, 22 at five followers), so memory stays flat however
# many repetitions are read.
_ROW_BUDGET = 4096


def participation_masks(
    points: "list[SwarmScenario]",
    design: "DesignVector",
    n_rounds: int,
    seeds,
    stop: int | None = None,
) -> np.ndarray:
    """Participation indicators of coupled training runs in rounds [0, stop).

    The shape is (B, R, stop, I).

    Repetition r draws n_rounds channel realizations once, from its own
    generator seeded with seeds[r], and reads them under each of the B
    points, which may differ only in jitter variance and link bandwidths
    (see ScenarioSamples).  Trajectories with the same seed are thus coupled
    draw-for-draw across the points.  stop defaults to n_rounds.  Every
    repetition draws all n_rounds, so the random stream of a round does not
    depend on stop; only the first stop rounds are turned into kernels,
    delays and masks, and they equal the same rounds of the full-horizon
    masks.  Repetitions are stacked, in groups of at most _ROW_BUDGET rounds
    (at least one repetition), into one ScenarioSamples each group, read
    once per point.  Points that share a jitter variance are cheapest read
    one after another: the antenna gain is recomputed whenever the variance
    changes.
    """
    if len(points) == 0:
        raise ValueError("points must not be empty")
    _require_same_draws(points[0], points[1:])
    stop = n_rounds if stop is None else stop
    if n_rounds < 0:
        raise ValueError("n_rounds must be >= 0")
    if not 0 <= stop <= n_rounds:
        raise ValueError(f"need 0 <= stop <= n_rounds, got {stop}, {n_rounds}")
    scenario, n_f = points[0], points[0].n_followers
    out = np.empty((len(points), len(seeds), stop, n_f), dtype=bool)
    if stop == 0:
        return out  # no rounds, nothing to draw
    group = max(1, _ROW_BUDGET // stop)
    for first in range(0, len(seeds), group):
        reps = slice(first, first + group)
        samples = _stacked_windows(scenario, n_rounds, seeds[reps], stop)
        for k, point in enumerate(points):
            out[k, reps] = samples._masks(design, point).reshape(-1, stop, n_f)
    return out


def _stacked_windows(scenario: "SwarmScenario", n_rounds: int, seeds, stop: int):
    """Rounds [0, stop) of n_rounds draws per seed, stacked seed after seed into one ScenarioSamples."""
    unit = _unit_variance(scenario)
    n_f = scenario.n_followers
    rows = len(seeds) * stop
    unit_jitter = np.empty((rows, n_f + 1))
    parts = (np.empty((rows, n_f)), np.empty((rows, 1)), np.empty((rows, n_f)), np.empty((rows, n_f)))
    for r, seed in enumerate(seeds):
        draw = draw_channel(unit, np.random.default_rng(seed), size=n_rounds)
        window = ChannelDraw(**{f.name: getattr(draw, f.name)[:stop] for f in fields(ChannelDraw)})
        kept = slice(r * stop, (r + 1) * stop)
        unit_jitter[kept] = window.angle_dev
        for stacked, part in zip(parts, _jitter_free_parts(window, scenario)):
            stacked[kept] = part
    return ScenarioSamples._from_parts(scenario, unit_jitter, parts)


def estimate_success_probs(
    design: "DesignVector", scenario: "SwarmScenario", n_samples: int, rng_seed: int
) -> np.ndarray:
    """Per-follower participation frequency over n_samples seeded draws, shape (I,)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return ScenarioSamples.generate(scenario, n_samples, rng_seed).success_probs(design, scenario)
