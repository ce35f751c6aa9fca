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

from dataclasses import dataclass, replace
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

    theta_init: float = 0.0
    sigma2: float = 0.01
    g_min: float = 10.0 ** -0.2
    sections: int = 8

    def validate(self, prefix: str = "antenna") -> list[str]:
        errors = []
        if not np.isfinite(self.theta_init):
            errors.append(f"{prefix}.theta_init must be finite")
        if not (self.sigma2 >= 0.0):
            errors.append(f"{prefix}.sigma2 must be >= 0")
        if not (0.0 < self.g_min <= 1.0):
            errors.append(f"{prefix}.g_min must be in (0, 1]")
        if int(self.sections) < 1 or self.sections != int(self.sections):
            errors.append(f"{prefix}.sections must be an integer >= 1")
        return errors


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

    bw_up: float = 1e6
    bw_down: float = 1e6
    noise_psd: float = 10.0 ** -20.4
    pkt_local: float = 8e4
    pkt_global: float = 8e4
    rician_k: float = 10.0
    pathloss_exp: float = 2.5

    def validate(self, prefix: str = "radio") -> list[str]:
        errors = []
        if not (self.bw_up > 0.0):
            errors.append(f"{prefix}.bw_up must be > 0")
        if not (self.bw_down > 0.0):
            errors.append(f"{prefix}.bw_down must be > 0")
        if not (self.noise_psd > 0.0):
            errors.append(f"{prefix}.noise_psd must be > 0")
        if not (self.pkt_local > 0.0):
            errors.append(f"{prefix}.pkt_local must be > 0")
        if not (self.pkt_global > 0.0):
            errors.append(f"{prefix}.pkt_global must be > 0")
        if not (self.rician_k >= 0.0):
            errors.append(f"{prefix}.rician_k must be >= 0")
        if not (self.pathloss_exp > 0.0):
            errors.append(f"{prefix}.pathloss_exp must be > 0")
        return errors


@dataclass(frozen=True)
class Interferer:
    """One external transmitter that may collide with a swarm link.

    distance     : distance to the victim receiver [m]
    power        : transmit power [W]
    gain_product : fixed tx*rx antenna gain product toward the victim
    active_prob  : probability the interferer transmits in a given round
    """

    distance: float
    power: float
    gain_product: float
    active_prob: float

    def validate(self, prefix: str = "interferer") -> list[str]:
        errors = []
        if not (self.distance > 0.0):
            errors.append(f"{prefix}.distance must be > 0")
        if not (self.power >= 0.0):
            errors.append(f"{prefix}.power must be >= 0")
        if not (self.gain_product >= 0.0):
            errors.append(f"{prefix}.gain_product must be >= 0")
        if not (0.0 <= self.active_prob <= 1.0):
            errors.append(f"{prefix}.active_prob must be in [0, 1]")
        return errors


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

    def validate(self, prefix: str = "interference") -> list[str]:
        errors = []
        for j, it in enumerate(self.interferers):
            errors += it.validate(f"{prefix}[{j}]")
        return errors


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

    The draw order is fixed so that scenarios differing only in jitter
    variance or bandwidth consume the generator identically, which keeps
    sweeps over those parameters coupled draw-for-draw.
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


def _interference_power(field: InterferenceField, fading, active, pathloss_exp, per_victim: bool):
    """Received interference, summed over active interferers.

    With per_victim=False the fading is laid out (..., J) for a single
    victim; with per_victim=True it is (..., J, V) with one column per
    victim receiver.  active is (..., J) either way.
    """
    if len(field) == 0:
        return 0.0
    coef = field.powers() * field.distances() ** (-pathloss_exp) * field.gain_products()
    if per_victim:
        term = coef[:, None] * fading * np.asarray(active)[..., :, None]
        return term.sum(axis=-2)
    term = coef * fading * active
    return term.sum(axis=-1)


def sinr_coefficients(draw: ChannelDraw, scenario: "SwarmScenario") -> tuple[np.ndarray, np.ndarray]:
    """SINR per watt of own transmit power, for every follower link.

    Returns (c_up, c_dn), each shaped like draw.fading_up, such that the
    uplink SINR of follower i at power p_i is p_i * c_up[..., i] and the
    downlink SINR at leader power p_L is p_L * c_dn[..., i].  Everything in
    these coefficients is fixed once the draw is fixed, so design search
    can reuse them.
    """
    radio = scenario.radio
    alpha = radio.pathloss_exp
    dist = scenario.follower_distances()
    gain_follower = _gain(scenario, scenario.antenna.theta_init + draw.angle_dev[..., 1:])
    gain_leader = _gain(scenario, scenario.antenna.theta_init + draw.angle_dev[..., :1])
    gain_product = gain_follower * gain_leader
    path = dist ** (-alpha)

    interf_up = _interference_power(
        scenario.uplink_interference, draw.fading_up_interf, draw.active_up, alpha, per_victim=False
    )
    interf_dn = _interference_power(
        scenario.downlink_interference, draw.fading_down_interf, draw.active_down, alpha, per_victim=True
    )
    denom_up = np.asarray(interf_up)[..., None] + radio.bw_up * radio.noise_psd
    denom_dn = interf_dn + radio.bw_down * radio.noise_psd

    c_up = draw.fading_up * path * gain_product / denom_up
    c_dn = draw.fading_down * path * gain_product / denom_dn
    return c_up, c_dn


def _delay(pkt_bits: float, bandwidth: float, sinr: np.ndarray) -> np.ndarray:
    rate = bandwidth * np.log2(1.0 + sinr)
    with np.errstate(divide="ignore"):
        return np.where(rate > 0.0, pkt_bits / np.maximum(rate, 1e-300), np.inf)


def link_delays(draw: ChannelDraw, design: "DesignVector", scenario: "SwarmScenario") -> tuple[np.ndarray, np.ndarray]:
    """Uplink and downlink delays of every follower under one draw (or batch).

    Returns (t_up, t_dn) in seconds, shaped like draw.fading_up.  Raises
    ValueError if any transmit power is non-positive.
    """
    p = np.asarray(design.p, dtype=float)
    if p.shape != (scenario.n_followers,):
        raise ValueError(
            f"design.p has shape {p.shape}, expected ({scenario.n_followers},)"
        )
    if np.any(p <= 0.0) or design.p_leader <= 0.0:
        raise ValueError("transmit powers must be positive")
    c_up, c_dn = sinr_coefficients(draw, scenario)
    t_up = _delay(scenario.radio.pkt_local, scenario.radio.bw_up, p * c_up)
    t_dn = _delay(scenario.radio.pkt_global, scenario.radio.bw_down, design.p_leader * c_dn)
    return t_up, t_dn


def success_mask(t_up: np.ndarray, t_dn: np.ndarray, beta: float, round_time: float) -> np.ndarray:
    """Participation indicator: upload fits beta*T_r and broadcast fits (1-beta)*T_r."""
    return (t_up <= beta * round_time) & (t_dn <= (1.0 - beta) * round_time)


def participation_masks(
    points: "list[SwarmScenario]",
    design: "DesignVector",
    n_rounds: int,
    seeds,
) -> np.ndarray:
    """Participation indicators of coupled training runs, shape (B, R, T, I).

    Repetition r draws n_rounds channel realizations from its own generator,
    seeded with seeds[r], so trajectories with the same seed are coupled
    draw-for-draw across scenarios that differ only in jitter variance or
    bandwidth.  The B scenarios in points may differ only in their link
    bandwidths, which draw_channel never reads: each repetition is drawn
    once and its delays are evaluated under every point.
    """
    first = points[0]
    for point in points[1:]:
        radio = replace(point.radio, bw_up=first.radio.bw_up, bw_down=first.radio.bw_down)
        if replace(point, radio=radio) != first:
            raise ValueError("points may differ only in radio.bw_up and radio.bw_down")
    if n_rounds < 0:
        raise ValueError("n_rounds must be >= 0")
    out = np.empty((len(points), len(seeds), n_rounds, first.n_followers), dtype=bool)
    for r, seed in enumerate(seeds):
        draws = draw_channel(first, np.random.default_rng(seed), size=n_rounds)
        for k, point in enumerate(points):
            t_up, t_dn = link_delays(draws, design, point)
            out[k, r] = success_mask(t_up, t_dn, design.beta, point.round_time_s)
    return out


def estimate_success_probs(design: "DesignVector", scenario, n_samples: int, rng_seed: int) -> np.ndarray:
    """Monte Carlo per-follower participation probabilities, shape (I,).

    The estimate is the mean of n_samples participation masks drawn from
    one seeded generator.  scenario may also be a list of points that
    differ only in bandwidth, as in participation_masks; every point is
    then read off the same draws, shape (B, I).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    points = scenario if isinstance(scenario, list) else [scenario]
    probs = participation_masks(points, design, n_samples, [rng_seed])[:, 0].mean(axis=1)
    return probs if isinstance(scenario, list) else probs[0]
