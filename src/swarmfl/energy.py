"""Training energy, communication energy, and flight power of swarm UAVs.

Training energy is the usual cycles-per-bit CPU model.  Flight power comes
from momentum theory: the rotor downwash (induced velocity) balances the
level-flight thrust at a given forward speed, a balance that is quadratic in
the squared downwash and so has a closed-form root, and the mechanical power
is thrust times downwash corrected by an efficiency factor.

Per round, the leader pays for compute, for transmitting during the whole
downlink window, and for flying the whole round; a follower pays for
compute, for its own upload for as long as that upload actually takes, and
for flying the whole round.  The asymmetry (full window vs. realized delay)
is part of the model definition and is kept as is.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .design import DesignVector
    from .scenario import SwarmScenario

__all__ = [
    "ComputeParams",
    "FlightParams",
    "ControlRequirements",
    "EnergyBudget",
    "training_energy_leader",
    "induced_velocity",
    "flight_power",
    "round_energies",
]


@dataclass(frozen=True)
class ComputeParams:
    """CPU energy model: energy = kappa * cycles_per_bit * cpu_freq^2 per bit.

    kappa          : chip-dependent energy coefficient [J per cycle per (cycle/s)^2]
    cycles_per_bit : CPU cycles needed per bit processed
    cpu_freq       : clock frequency [cycles/s]
    """

    kappa: float = field(default=1e-28, metadata={"bound": "> 0"})
    cycles_per_bit: float = field(default=1e3, metadata={"bound": "> 0"})
    cpu_freq: float = field(default=1e9, metadata={"bound": "> 0"})

    def energy_per_bit(self) -> float:
        return self.kappa * self.cycles_per_bit * self.cpu_freq**2


@dataclass(frozen=True)
class FlightParams:
    """Rotorcraft parameters for the induced-velocity power model.

    rotors         : number of rotors q
    rotor_diameter : diameter of one rotor [m]
    air_density    : [kg/m^3]
    efficiency     : mechanical/aerodynamic efficiency in (0, 1]
    mass           : vehicle mass [kg]
    gravity        : [m/s^2]
    v_max          : maximum forward speed [m/s]
    """

    rotors: int = field(default=4, metadata={"bound": ">= 1"})
    rotor_diameter: float = field(default=0.254, metadata={"bound": "> 0"})
    air_density: float = field(default=1.225, metadata={"bound": "> 0"})
    efficiency: float = field(default=0.7, metadata={"bound": "in (0, 1]"})
    mass: float = field(default=2.0, metadata={"bound": "> 0"})
    gravity: float = field(default=9.81, metadata={"bound": "> 0"})
    v_max: float = field(default=20.0, metadata={"bound": "> 0"})

    def thrust(self) -> float:
        """Level-flight thrust requirement [N]."""
        return self.mass * self.gravity

    def disk_loading_denom(self) -> float:
        """q * r^2 * pi * rho, the denominator of the induced-velocity map."""
        return self.rotors * self.rotor_diameter**2 * np.pi * self.air_density


@dataclass(frozen=True)
class ControlRequirements:
    """Latency budget of the swarm control loop.

    tau        : per-follower command deadline [s]; a follower's broadcast
                 must land within tau of the window start with probability
                 at least xi_control
    xi_control : required probability of meeting the deadline
    """

    tau: tuple[float, ...] = field(metadata={"bound": "> 0"})
    xi_control: float = field(default=0.9, metadata={"bound": "in (0, 1)"})


@dataclass(frozen=True)
class EnergyBudget:
    """Total energy available to each UAV for the whole training job.

    e_bar       : budget [J], same for every UAV
    xi_leader   : required probability the leader finishes within budget
    xi_follower : required probability per follower
    """

    e_bar: float = field(default=7000.0, metadata={"bound": "> 0"})
    xi_leader: float = field(default=0.9, metadata={"bound": "in (0, 1)"})
    xi_follower: float = field(default=0.9, metadata={"bound": "in (0, 1)"})


def training_energy_leader(compute: ComputeParams, pkt_local_bits: float, n_followers: int) -> float:
    """Energy the leader spends aggregating one round of follower uploads [J]."""
    if n_followers < 0:
        raise ValueError("n_followers must be >= 0")
    return compute.energy_per_bit() * pkt_local_bits * n_followers


def induced_velocity(flight: FlightParams, v) -> float | np.ndarray:
    """Rotor downwash speed at forward speed v [m/s].

    Solves v_hat * sqrt(v^2 + v_hat^2) = rhs, rhs = 2A / (q r^2 pi rho) with
    A the level-flight thrust (momentum theory; Leishman, Principles of
    Helicopter Aerodynamics).  Squared, the balance is quadratic in
    u = v_hat^2, u^2 + v^2 u - rhs^2 = 0, whose positive root is taken in
    the cancellation-free form u = 2 rhs^2 / (v^2 + sqrt(v^4 + 4 rhs^2)).
    Hover (v = 0) gives v_hat = sqrt(rhs).  Works elementwise on arrays of
    speeds.
    """
    v_arr = np.asarray(v, dtype=float)
    if not np.all((v_arr >= 0.0) & (v_arr <= flight.v_max)):  # NaN fails too
        raise ValueError(f"speed must be within [0, v_max={flight.v_max}]")
    rhs = 2.0 * flight.thrust() / flight.disk_loading_denom()
    v2 = v_arr * v_arr
    v_hat = np.sqrt(2.0 * rhs**2 / (v2 + np.sqrt(v2 * v2 + 4.0 * rhs**2)))
    return float(v_hat) if v_hat.ndim == 0 else v_hat


def flight_power(flight: FlightParams, v) -> float | np.ndarray:
    """Mechanical power to hold speed v in level flight [W]."""
    return induced_velocity(flight, v) * flight.thrust() / flight.efficiency


def round_energies(design: "DesignVector", t_up, scenario: "SwarmScenario"):
    """Per-round energy of the leader and of every follower [J].

    Returns (e_leader, e_followers), e_followers shaped like the realized
    upload delays t_up (..., I).  Upload energy is charged over the realized
    delay capped at the uplink window (the radio stops transmitting when
    the window closes), so t_up = inf gives each follower's upper bound.
    """
    e_fly = _flight_energy(scenario, design.v)
    e_work = _follower_work_energies(
        scenario.follower_training_energies(), np.asarray(design.p), t_up,
        design.beta * scenario.round_time_s,
    )
    return _leader_energy(scenario, design.p_leader, design.beta, e_fly), e_work + e_fly


def _flight_energy(scenario: "SwarmScenario", v) -> float:
    """Energy of flying one round at speed v [J]."""
    return flight_power(scenario.flight, v) * scenario.round_time_s


def _leader_energy(scenario: "SwarmScenario", p_leader, beta, e_fly) -> float:
    """The leader's round: aggregation, the whole downlink window, flight [J]."""
    return (
        training_energy_leader(scenario.compute, scenario.radio.pkt_local, scenario.n_followers)
        + p_leader * (1.0 - beta) * scenario.round_time_s
        + e_fly
    )


def _follower_work_energies(train, p, t_up, uplink_window):
    """Follower compute plus upload energy, before flight [J].

    Elementwise in its arguments, so a single follower's column is computed
    from that follower's entries exactly as the full array is.
    """
    return train + p * np.minimum(t_up, uplink_window)
