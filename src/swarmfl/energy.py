"""Training energy, communication energy, and flight power of swarm UAVs.

Training energy is the usual cycles-per-bit CPU model.  Flight power comes
from momentum theory: the rotor downwash (induced velocity) solves a scalar
fixed-point equation in the forward speed, and the mechanical power is
thrust times downwash corrected by an efficiency factor.

Per round, the leader pays for compute, for transmitting during the whole
downlink window, and for flying the whole round; a follower pays for
compute, for its own upload for as long as that upload actually takes, and
for flying the whole round.  The asymmetry (full window vs. realized delay)
is part of the model definition and is kept as is.
"""
from __future__ import annotations

from dataclasses import dataclass
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
    "training_energy_follower",
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

    kappa: float = 1e-28
    cycles_per_bit: float = 1e3
    cpu_freq: float = 1e9

    def energy_per_bit(self) -> float:
        return self.kappa * self.cycles_per_bit * self.cpu_freq**2

    def validate(self, prefix: str = "compute") -> list[str]:
        errors = []
        if not (self.kappa > 0.0):
            errors.append(f"{prefix}.kappa must be > 0")
        if not (self.cycles_per_bit > 0.0):
            errors.append(f"{prefix}.cycles_per_bit must be > 0")
        if not (self.cpu_freq > 0.0):
            errors.append(f"{prefix}.cpu_freq must be > 0")
        return errors


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

    rotors: int = 4
    rotor_diameter: float = 0.254
    air_density: float = 1.225
    efficiency: float = 0.7
    mass: float = 2.0
    gravity: float = 9.81
    v_max: float = 20.0

    def thrust(self) -> float:
        """Level-flight thrust requirement [N]."""
        return self.mass * self.gravity

    def disk_loading_denom(self) -> float:
        """q * r^2 * pi * rho, the denominator of the induced-velocity map."""
        return self.rotors * self.rotor_diameter**2 * np.pi * self.air_density

    def validate(self, prefix: str = "flight") -> list[str]:
        errors = []
        if int(self.rotors) < 1 or self.rotors != int(self.rotors):
            errors.append(f"{prefix}.rotors must be an integer >= 1")
        if not (self.rotor_diameter > 0.0):
            errors.append(f"{prefix}.rotor_diameter must be > 0")
        if not (self.air_density > 0.0):
            errors.append(f"{prefix}.air_density must be > 0")
        if not (0.0 < self.efficiency <= 1.0):
            errors.append(f"{prefix}.efficiency must be in (0, 1]")
        if not (self.mass > 0.0):
            errors.append(f"{prefix}.mass must be > 0")
        if not (self.gravity > 0.0):
            errors.append(f"{prefix}.gravity must be > 0")
        if not (self.v_max > 0.0):
            errors.append(f"{prefix}.v_max must be > 0")
        return errors


@dataclass(frozen=True)
class ControlRequirements:
    """Latency budget of the swarm control loop.

    tau        : per-follower command deadline [s]; a follower's broadcast
                 must land within tau of the window start with probability
                 at least xi_control
    xi_control : required probability of meeting the deadline
    """

    tau: tuple[float, ...]
    xi_control: float = 0.9

    def validate(self, prefix: str = "control") -> list[str]:
        errors = []
        for i, t in enumerate(self.tau):
            if not (t > 0.0):
                errors.append(f"{prefix}.tau[{i}] must be > 0")
        if not (0.0 < self.xi_control < 1.0):
            errors.append(f"{prefix}.xi_control must be in (0, 1)")
        return errors


@dataclass(frozen=True)
class EnergyBudget:
    """Total energy available to each UAV for the whole training job.

    e_bar       : budget [J], same for every UAV
    xi_leader   : required probability the leader finishes within budget
    xi_follower : required probability per follower
    """

    e_bar: float = 7000.0
    xi_leader: float = 0.9
    xi_follower: float = 0.9

    def validate(self, prefix: str = "energy_budget") -> list[str]:
        errors = []
        if not (self.e_bar > 0.0):
            errors.append(f"{prefix}.e_bar must be > 0")
        if not (0.0 < self.xi_leader < 1.0):
            errors.append(f"{prefix}.xi_leader must be in (0, 1)")
        if not (0.0 < self.xi_follower < 1.0):
            errors.append(f"{prefix}.xi_follower must be in (0, 1)")
        return errors


def training_energy_leader(compute: ComputeParams, pkt_local_bits: float, n_followers: int) -> float:
    """Energy the leader spends aggregating one round of follower uploads [J]."""
    if n_followers < 0:
        raise ValueError("n_followers must be >= 0")
    return compute.energy_per_bit() * pkt_local_bits * n_followers


def training_energy_follower(compute: ComputeParams, sample_bits) -> float:
    """Energy one follower spends on a local training pass over its samples [J]."""
    bits = np.asarray(sample_bits, dtype=float)
    if bits.size == 0:
        return 0.0
    return float(compute.energy_per_bit() * bits.sum())


def induced_velocity(flight: FlightParams, v) -> float | np.ndarray:
    """Rotor downwash speed at forward speed v [m/s].

    Solves v_hat * sqrt(v^2 + v_hat^2) = 2A / (q r^2 pi rho) with A the
    level-flight thrust, by damped fixed-point iteration started at the
    hover solution.  Works elementwise on arrays of speeds.
    """
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr < 0.0) or np.any(v_arr > flight.v_max):
        raise ValueError(f"speed must be within [0, v_max={flight.v_max}]")
    rhs = 2.0 * flight.thrust() / flight.disk_loading_denom()
    hover = np.sqrt(rhs)
    v_hat = np.full_like(v_arr, hover, dtype=float)
    omega = 0.5
    tol = 1e-12 * max(rhs, 1.0)
    for _ in range(200):
        v_hat = (1.0 - omega) * v_hat + omega * rhs / np.sqrt(v_arr**2 + v_hat**2)
        residual = np.abs(v_hat * np.sqrt(v_arr**2 + v_hat**2) - rhs)
        if np.all(residual < tol):
            break
    else:
        raise RuntimeError("induced-velocity iteration did not converge in 200 steps")
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
    t_round = scenario.round_time_s
    e_fly = flight_power(scenario.flight, design.v) * t_round
    e_leader = (
        training_energy_leader(scenario.compute, scenario.radio.pkt_local, scenario.n_followers)
        + design.p_leader * (1.0 - design.beta) * t_round
        + e_fly
    )
    t_tx = np.minimum(t_up, design.beta * t_round)
    e_followers = scenario.follower_training_energies() + np.asarray(design.p) * t_tx + e_fly
    return e_leader, e_followers
