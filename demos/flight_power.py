#!/usr/bin/env python3
"""
Walks through the rotor-flight energy model: induced velocity as a function
of forward speed, the hover closed form, and where a communication round's
energy actually goes.
"""
import numpy as np

from swarmfl.energy import FlightParams, flight_power, induced_velocity, round_energies
from swarmfl.scenario import SwarmScenario

params = FlightParams()
rhs = 2.0 * params.thrust() / params.disk_loading_denom()

print(f"thrust at mass {params.mass} kg: {params.thrust():.3f} N")
print(f"hover induced velocity, closed form sqrt(2T / (q d^2 pi rho)): {np.sqrt(rhs):.4f} m/s")
print()
print("speed [m/s]   induced [m/s]   power [W]")
for v in (0.0, 4.0, 8.0, 12.0, 16.0, 20.0):
    v_hat = induced_velocity(params, v)
    watts = flight_power(params, v)
    print(f"  {v:5.1f}       {v_hat:8.4f}     {watts:8.2f}")

print()
print("faster forward flight sheds downwash, so cruising is cheaper than hovering.")
print()

scenario = SwarmScenario().require_valid()
design = scenario.default_design()
e_leader, e_followers = round_energies(design, np.full(scenario.n_followers, 0.02), scenario)
e_follower = e_followers[0]
flight_share = flight_power(scenario.flight, design.v) * scenario.round_time_s
print(f"leader round energy at the default design:   {e_leader:8.4f} J")
print(f"follower 1 round energy at the default design: {e_follower:7.4f} J")
print(f"flight alone accounts for {flight_share:.4f} J of each,")
print("so round counts, not radio power, dominate the mission energy budget.")
