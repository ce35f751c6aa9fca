"""Federated learning over a leader/follower UAV swarm.

Library code imports from the submodules (swarmfl.channel, swarmfl.fl,
swarmfl.saa, swarmfl.experiments, ...); the package root exposes only
load_scenario, so importing it loads the scenario and its sections alone.
"""

from .scenario import load_scenario

__all__ = ["load_scenario"]
