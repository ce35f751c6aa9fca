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

import math
import sys
import threading
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
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
    "draw_channel",
    "sinr_coefficients",
    "link_delays",
    "success_mask",
    "MaskStream",
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


@cache
def _interferer_table(field: InterferenceField) -> np.ndarray:
    """Rows distance, power, gain_product and active_prob of field's interferers, (4, J)."""
    rows = [[it.distance, it.power, it.gain_product, it.active_prob] for it in field.interferers]
    table = np.array(rows, dtype=float).reshape(-1, 4).T  # (4, 0) with no interferers too
    table.flags.writeable = False  # shared by every call with this field
    return table


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


def _rician_in_place(re: np.ndarray, im: np.ndarray, k_factor: float) -> np.ndarray:
    """Power gain re^2 + im^2 of a Rician channel with K-factor k_factor, formed in re.

    re and im hold standard normals on entry; im is scratch.  The
    line-of-sight component has power K/(K+1) and the scattered component
    1/(K+1), so the mean power gain is exactly 1.
    """
    los = np.sqrt(k_factor / (k_factor + 1.0))
    scatter = np.sqrt(1.0 / (2.0 * (k_factor + 1.0)))
    re *= scatter
    re += los
    re *= re
    im *= scatter
    im *= im
    re += im
    return re


def _draw_rows(scenario: "SwarmScenario", rngs, size: int) -> ChannelDraw:
    """len(rngs) rows of size channel realizations, row r read from rngs[r]; leading axes (len(rngs), size).

    A row takes, field by field in ChannelDraw order, the standard normals
    of the jitter and of each fading's real, then imaginary part, and the
    uniforms of the uplink, then downlink interferers' activity, each
    written into its row of a preallocated array (_fill_rows); the fading
    is then formed over all rows at once (_formed), so a generator repeated
    over consecutive rows reads as its consecutive draw_channel calls.
    """
    normals, uniforms = _row_arrays(scenario, len(rngs), size)
    _fill_rows(rngs, normals, uniforms)
    return _formed(scenario, normals, uniforms)


def _row_arrays(scenario: "SwarmScenario", n_rows: int, size: int) -> tuple[list, list]:
    """The empty arrays _fill_rows writes, leading axes (n_rows, size): normals and uniforms in draw order."""
    n_f = scenario.n_followers
    j_up, j_dn = len(scenario.uplink_interference), len(scenario.downlink_interference)
    lead = (n_rows, size)
    fading_shapes = ((n_f,), (n_f,), (j_up,), (j_dn, n_f))
    normals = [np.empty(lead + (n_f + 1,))]
    normals += [np.empty(lead + shape) for shape in fading_shapes for _ in "ri"]  # real, then imaginary part
    return normals, [np.empty(lead + (j,)) for j in (j_up, j_dn)]


def _fill_rows(rngs, normals: list, uniforms: list) -> None:
    """Write row r of every array from rngs[r]; generator calls only, so it may run on another thread."""
    for row, rng in enumerate(rngs):
        for out in normals:
            rng.standard_normal(out=out[row])
        for out in uniforms:
            rng.random(out=out[row])


def _formed(scenario: "SwarmScenario", normals: list, uniforms: list) -> ChannelDraw:
    """The draw of filled _row_arrays: jitter scaled to scenario's sigma2, Rician gains and interferer activity."""
    angle_dev, *fading = normals
    angle_dev *= np.sqrt(scenario.antenna.sigma2)
    k = scenario.radio.rician_k
    interference = (scenario.uplink_interference, scenario.downlink_interference)
    return ChannelDraw(
        angle_dev,
        *(_rician_in_place(re, im, k) for re, im in zip(fading[::2], fading[1::2])),
        *(u < _interferer_table(f)[3] for u, f in zip(uniforms, interference)),
    )


def _generate_beside(scenario: "SwarmScenario", samples_k: int, rng_seed: int, work) -> "ScenarioSamples":
    """ScenarioSamples.generate(scenario, samples_k, rng_seed), its generator fills made while work() runs.

    This thread makes the generator and the arrays, a worker thread runs
    only _fill_rows on them (the calls draw_channel makes, in its order),
    and work() runs here meanwhile.  After the worker is joined, this
    thread forms the draw and the samples, so the bits are generate's.  An
    exception from work, or else from the fill, reaches the caller, and no
    thread is left running either way.  The worker calls no public swarmfl
    function, so spans wrapped around those read one thread's calls.
    """
    unit = _unit_variance(scenario)
    rngs = [np.random.default_rng(rng_seed)]
    normals, uniforms = _row_arrays(unit, 1, samples_k)
    failed = []

    def fill():
        try:
            _fill_rows(rngs, normals, uniforms)
        except BaseException as exc:  # handed to the caller after the join
            failed.append(exc)

    worker = threading.Thread(target=fill, name="swarmfl-fill")
    worker.start()
    try:
        work()
    finally:
        worker.join()
    if failed:
        raise failed[0]
    draws = _formed(unit, normals, uniforms)
    del normals, uniforms  # the imaginary parts and uniforms are scratch: let them go before the samples are made
    return ScenarioSamples._of(scenario, ChannelDraw(**{name: a[0] for name, a in vars(draws).items()}))


def draw_channel(scenario: "SwarmScenario", rng: np.random.Generator, size: int | None = None) -> ChannelDraw:
    """Draw one (size=None) or a batch of channel realizations: one row of _draw_rows.

    Condition that must hold: the generator is consumed the same way at
    every jitter variance.  The jitter is sqrt(antenna.sigma2) times the
    first standard normals drawn, and nothing else drawn depends on sigma2
    (bandwidth is not read at all).  ScenarioSamples draws once at unit
    variance and rescales that jitter to read any sigma2 off the same
    draws, bit for bit as a draw at that sigma2 would give; sweeps over
    jitter variance or bandwidth are coupled draw-for-draw because of it.
    """
    rows = _draw_rows(scenario, [rng], 1 if size is None else size)
    index = (0, 0) if size is None else 0
    return ChannelDraw(**{name: a[index] for name, a in vars(rows).items()})


# === SINR and delays ===


def _gain(scenario: "SwarmScenario", angle) -> np.ndarray:
    if scenario.use_sectionalized_gain:
        return antenna_gain_sectionalized(scenario.antenna, angle)
    return antenna_gain_exact(scenario.antenna, angle)


def _interference_power(field: InterferenceField, fading, active, pathloss_exp) -> np.ndarray:
    """Received interference at V victim receivers, summed over active interferers, shape (..., V).

    fading is laid out (..., J, V), one column per victim; active is (..., J).
    Interferers are added in order, as numpy sums them; one column of 8 or more, which numpy sums pairwise, uses sum.
    """
    distance, power, gain_product, _ = _interferer_table(field)
    coef = power * distance ** (-pathloss_exp) * gain_product
    if fading.shape[-1] == 1 and len(coef) >= 8:
        return (coef[:, None] * fading * active[..., :, None]).sum(axis=-2)
    total = np.zeros(fading.shape[:-2] + fading.shape[-1:])
    for j, c in enumerate(coef):
        total += c * fading[..., j, :] * active[..., j, None]
    return total


def _jitter_free_parts(draw: ChannelDraw, scenario: "SwarmScenario"):
    """The parts of a draw's SINR kernels that neither jitter nor bandwidth changes, as follower-major views.

    Returns (faded_up, interf_up, faded_dn, interf_dn), shaped (I, ...),
    (1, ...), (I, ...) and (I, ...) for a draw with batch axes (...): fading
    times path loss of every uplink and downlink, and the received
    interference power at each receiver (the leader for the uplinks, each
    follower for the downlinks).  Each is formed in the draw's layout, so
    the interference sums add in one order for any batch, and then viewed
    with the follower axis first.
    """
    alpha = scenario.radio.pathloss_exp
    path = scenario.follower_distances() ** (-alpha)
    interf_up = _interference_power(  # the leader is the one uplink victim
        scenario.uplink_interference, draw.fading_up_interf[..., None], draw.active_up, alpha
    )
    interf_dn = _interference_power(scenario.downlink_interference, draw.fading_down_interf, draw.active_down, alpha)
    parts = (draw.fading_up * path, interf_up, draw.fading_down * path, interf_dn)
    return tuple(a.transpose(-1, *range(a.ndim - 1)) for a in parts)


def _signal_power(faded_up, faded_dn, jitter, scenario: "SwarmScenario"):
    """Received signal power per watt of every uplink and downlink under jitter, (I+1, ...) leader first."""
    theta = scenario.antenna.theta_init
    gain_product = _gain(scenario, theta + jitter[1:]) * _gain(scenario, theta + jitter[:1])
    return faded_up * gain_product, faded_dn * gain_product


def _kernels(num_up, interf_up, num_dn, interf_dn, radio: RadioParams) -> tuple[np.ndarray, np.ndarray]:
    """SINR per watt; only the noise term bw * N0 added to the interference reads bandwidth.

    A quotient beyond the float range, as at a vanishing bandwidth with no
    interference, reads inf: an infinite SINR.
    """
    with np.errstate(over="ignore", divide="ignore"):
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
    num_up, num_dn = _signal_power(faded_up, faded_dn, np.moveaxis(draw.angle_dev, -1, 0), scenario)
    return tuple(np.moveaxis(c, 0, -1) for c in _kernels(num_up, interf_up, num_dn, interf_dn, scenario.radio))


def _delay(pkt_bits: float, bandwidth: float, sinr) -> np.ndarray:
    """Link delay [s] of a packet at the given SINR; inf where the rate is zero or too small to send it."""
    with np.errstate(**_DELAY_ERRSTATE):
        return _bare_delay(pkt_bits, bandwidth, sinr)


def _bare_delay(pkt_bits: float, bandwidth: float, sinr) -> np.ndarray:
    """_delay for a caller that already holds np.errstate(**_DELAY_ERRSTATE)."""
    rate = bandwidth * np.log1p(sinr) / np.log(2.0)
    return np.where(rate > 0.0, pkt_bits / np.maximum(rate, 1e-300), np.inf)


_DELAY_ERRSTATE = {"divide": "ignore", "over": "ignore"}  # rates and delays beyond the float range read inf

# Relative half-width of the SINR band around a window's threshold inside which
# _fits asks _delay.  Rounding in _delay and in the threshold moves the
# boundary by about 1e-12 relative at most (a few ulps, times at most
# ln(sinr) ~ 710 where log1p flattens), far inside the band.
_BAND = 1e-9


def _fits(pkt_bits: float, bandwidth: float, sinr: np.ndarray, window: float) -> np.ndarray:
    """_delay(pkt_bits, bandwidth, sinr) <= window, bit for bit, mostly without computing delays.

    A delay fits its window exactly when sinr >= s* = expm1(pkt_bits * ln2 /
    (bandwidth * window)), where the rate bandwidth * log2(1 + sinr) reaches
    pkt_bits / window.  Elements at least _BAND relative away from s* are
    decided by that threshold; only those inside the band go through _delay.
    The whole array goes through _delay unless the window and s* are normal
    numbers and the rate pkt_bits / window is at least 1e-290, far above the
    1e-300 floor _delay puts under a rate.  So a window <= 0, an s* that
    overflows or underflows to 0 (where sinr = 0 still has an infinite
    delay), and subnormal or clamped extremes all take the exact path.
    """
    window = float(window)
    rate = float(pkt_bits) / window if window >= sys.float_info.min else math.nan
    try:
        s_star = math.expm1(rate * math.log(2.0) / float(bandwidth)) if rate >= 1e-290 else math.nan
    except (OverflowError, ZeroDivisionError):
        s_star = math.nan
    if not sys.float_info.min <= s_star < math.inf:  # NaN fails too
        return _delay(pkt_bits, bandwidth, sinr) <= window
    fits = sinr >= s_star * (1.0 + _BAND)
    near = (sinr > s_star * (1.0 - _BAND)) & ~fits
    if near.any():
        fits[near] = _delay(pkt_bits, bandwidth, sinr[near]) <= window
    return fits


def _checked_powers(design: "DesignVector", scenario: "SwarmScenario") -> np.ndarray:
    """design.p as an array, after checking its shape and that every transmit power is positive."""
    p = np.asarray(design.p, dtype=float)
    if p.shape != (scenario.n_followers,):
        raise ValueError(f"design.p has shape {p.shape}, expected ({scenario.n_followers},)")
    if not (np.all(p > 0.0) and design.p_leader > 0.0):  # NaN fails too
        raise ValueError("transmit powers must be positive")
    return p


def _kernel_delays(c_up, c_dn, design: "DesignVector", scenario: "SwarmScenario"):
    p = _checked_powers(design, scenario)
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

    The draws are made once, at unit jitter variance: one draw_channel
    batch of K (generate), or the next BLOCK of each of a chunk of
    repetitions' streams, repetition after repetition (MaskStream); _of
    builds both.  Every array is follower-major, one contiguous row of K
    samples per follower (the leader is row 0 of unit_jitter), so a
    design's kernels, masks and frequencies run along rows of K, not
    across I columns.  Every kernel, delay and mask is computed sample by
    sample, so a sample reads the same bits whichever samples it is stacked
    with.
    Every read (own_kernels, _masks, success_probs) is at the samples' own
    scenario; at(point) is the one way to read the draws at another point,
    which may differ from it only in antenna.sigma2 and its link bandwidths.
    Fading times path loss and the interference powers are kept from the
    draw; per jitter variance only the antenna gain is recomputed, from
    sqrt(sigma2) * unit_jitter, which is the product draw_channel forms, and
    the views of one draw share it.  So every point reads exactly the
    kernels of a draw at its own sigma2 (see draw_channel for the condition
    this rests on).  A design only rescales the kernels: uplink SINR of
    follower i in sample k is p_i * c_up[i, k], downlink p_L * c_dn[i, k].
    Its masks are threshold tests on those SINRs, with an exact band (see
    _fits), so every mask is success_mask of link_delays bit for bit.
    """

    scenario: "SwarmScenario"
    unit_jitter: np.ndarray  # (I+1, K) orientation jitter at unit variance, leader first
    parts: tuple  # (faded_up, interf_up, faded_dn, interf_dn): (I, K), (1, K), (I, K), (I, K); see _jitter_free_parts
    # the signal power of one jitter variance, the last one read here or by a view: {sigma2: (num_up, num_dn)}
    _signal: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def generate(scenario: "SwarmScenario", samples_k: int, rng_seed: int) -> "ScenarioSamples":
        """samples_k draws from a generator seeded with rng_seed."""
        if samples_k < 1:
            raise ValueError("samples_k must be >= 1")
        draws = draw_channel(_unit_variance(scenario), np.random.default_rng(rng_seed), size=samples_k)
        return ScenarioSamples._of(scenario, draws)

    @staticmethod
    def _of(scenario: "SwarmScenario", draw: ChannelDraw) -> "ScenarioSamples":
        """Samples of draw, made at scenario's unit variance: follower axis first, batch axes flattened in order."""
        unit_jitter, *parts = (
            np.ascontiguousarray(a.reshape(len(a), -1))
            for a in (np.moveaxis(draw.angle_dev, -1, 0), *_jitter_free_parts(draw, scenario))
        )
        return ScenarioSamples(scenario, unit_jitter, tuple(parts))

    @property
    def k(self) -> int:
        return self.unit_jitter.shape[1]

    def at(self, point: "SwarmScenario") -> "ScenarioSamples":
        """The same draws read at point: self at the own scenario object, else a view sharing
        the arrays and the signal cache, after _require_same_draws (ValueError)."""
        if point is self.scenario:
            return self
        _require_same_draws(self.scenario, [point])
        return ScenarioSamples(point, self.unit_jitter, self.parts, self._signal)

    @cached_property
    def own_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """(c_up, c_dn), each (I, K): the SINR per watt of every link at the scenario's variance and bandwidths."""
        sigma2 = self.scenario.antenna.sigma2
        faded_up, interf_up, faded_dn, interf_dn = self.parts
        if sigma2 not in self._signal:
            self._signal.clear()  # hold one jitter variance's signal at a time
            self._signal[sigma2] = _signal_power(faded_up, faded_dn, np.sqrt(sigma2) * self.unit_jitter, self.scenario)
        num_up, num_dn = self._signal[sigma2]
        return _kernels(num_up, interf_up, num_dn, interf_dn, self.scenario.radio)

    def _masks(self, design: "DesignVector") -> np.ndarray:
        """success_mask of design, (I, K), decided by SINR thresholds (see _fits)."""
        p = _checked_powers(design, self.scenario)[:, None]
        c_up, c_dn = self.own_kernels
        radio, beta, round_time = self.scenario.radio, design.beta, self.scenario.round_time_s
        up = _fits(radio.pkt_local, radio.bw_up, p * c_up, beta * round_time)
        return up & _fits(radio.pkt_global, radio.bw_down, design.p_leader * c_dn, (1.0 - beta) * round_time)

    def success_probs(self, design: "DesignVector") -> np.ndarray:
        """Per-follower participation frequency of design, shape (I,)."""
        # one count per row: count_nonzero with axis=1 goes through an intp sum, several times slower
        return np.array([np.count_nonzero(row) for row in self._masks(design)]) / self.k


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


# Rounds per row of a repetition's stream, as one draw_channel(size=BLOCK) call would draw them.
BLOCK = 128

# Rounds of each chunk of repetitions whose next BLOCK MaskStream draws, reduces
# to SINR parts and reads masks off in one go (whole BLOCKs, one repetition at
# least): per-call costs are paid once a chunk, and memory stays flat however
# many repetitions are read.  Half as many rounds cost 5-20% more time on a
# 12-point sweep; twice as many double the traced peak (TestTracedPeaks).
_CHUNK_ROUNDS = 16 * BLOCK


class MaskStream:
    """Participation masks of B * R coupled training runs, one BLOCK of rounds a call, for run_fl.

    Run k * R + r reads repetition r's stream (the generator seeded with
    seeds[r], kept open while the n_rounds budget has rounds left and the
    last call read the repetition) under points[k], which may differ only
    in jitter variance and link bandwidths (see ScenarioSamples): a
    repetition's runs are coupled draw-for-draw.  Each chunk of
    repetitions is drawn at points[0] and read at every point through
    ScenarioSamples.at, so points that share a variance are cheapest read
    one after another: the views share the antenna gain, which is
    recomputed whenever the variance changes.
    """

    def __init__(self, points: "list[SwarmScenario]", design: "DesignVector", n_rounds: int, seeds):
        if len(points) == 0:
            raise ValueError("points must not be empty")
        _require_same_draws(points[0], points[1:])
        if n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        self.points, self.design, self._unit = points, design, _unit_variance(points[0])
        self.shape = (len(points) * len(seeds), n_rounds, points[0].n_followers)
        self._rngs = list(seeds)  # a repetition's seed, then its generator once a block is drawn, None once let go
        self._drawn = 0  # rounds drawn of each repetition read

    def __call__(self, runs, out: np.ndarray | None = None) -> np.ndarray:
        """Masks of runs in the next BLOCK rounds within the budget, (rounds, I, len(runs)), or written into out.

        Each repetition with a run in runs draws its next block, a chunk of
        them per _draw_rows call, and is read at each point with a run of
        it.  The generator of every other repetition is let go: one left
        out, or read after the budget's last block, raises ValueError.
        """
        runs, n_f = np.asarray(runs, dtype=int), self.shape[2]
        point_of, rep_of = np.divmod(runs, len(self._rngs))
        reps, at = np.unique(rep_of, return_inverse=True)  # the repetitions drawn, and each run's among them
        gone = [int(r) for r in reps if self._rngs[r] is None]
        if gone:
            raise ValueError(f"repetitions {gone} were left out of an earlier call or have used up the round budget")
        out = np.empty((min(BLOCK, self.shape[1] - self._drawn), n_f, len(runs)), dtype=bool) if out is None else out
        per_call = max(1, _CHUNK_ROUNDS // BLOCK)
        self._drawn += BLOCK
        kept = [None] * len(self._rngs)  # a repetition's generator, kept while the budget has rounds left
        for first in range(0, len(reps), per_call):
            group = reps[first : first + per_call]
            rngs = [np.random.default_rng(self._rngs[r]) for r in group]  # a generator passes through as is
            if self._drawn < self.shape[1]:
                for r, rng in zip(group, rngs):
                    kept[r] = rng
            window = (a[:, : len(out)] for a in vars(_draw_rows(self._unit, rngs, BLOCK)).values())  # views of out's rounds
            samples = ScenarioSamples._of(self.points[0], ChannelDraw(*window))
            in_group = (at >= first) & (at < first + per_call)
            for k, point in enumerate(self.points):
                cols = np.flatnonzero(in_group & (point_of == k))
                if cols.size:
                    masks = samples.at(point)._masks(self.design).reshape(n_f, len(group), len(out))
                    out[:, :, cols] = masks[:, at[cols] - first].transpose(2, 0, 1)
        self._rngs = kept
        return out


def participation_masks(points: "list[SwarmScenario]", design: "DesignVector", n_rounds: int, seeds) -> np.ndarray:
    """Participation indicators of coupled training runs in rounds [0, n_rounds), (B, R, n_rounds, I).

    The first blocks of MaskStream(points, design, n_rounds, seeds), read
    for every run and written in place: the full-horizon oracle of run_fl's
    reads.  So the masks of a shorter horizon are the first of a longer one.
    """
    stream = MaskStream(points, design, n_rounds, seeds)
    out = np.empty((len(points), len(seeds), n_rounds, stream.shape[2]), dtype=bool)
    rounds = out.reshape(stream.shape).transpose(1, 2, 0)  # a (n_rounds, I, runs) view
    for start in range(0, n_rounds, BLOCK):
        stream(np.arange(stream.shape[0]), rounds[start : start + BLOCK])
    return out


def estimate_success_probs(
    design: "DesignVector", scenario: "SwarmScenario", n_samples: int, rng_seed: int
) -> np.ndarray:
    """Per-follower participation frequency over n_samples seeded draws, shape (I,)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return ScenarioSamples.generate(scenario, n_samples, rng_seed).success_probs(design)
