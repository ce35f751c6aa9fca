#!/usr/bin/env python3
"""
Trains the synthetic regression problem over lossy links and shows what
participation failures do to the loss trajectory.

Two runs on the same data and seed: the default design and a starved
upload window.
"""
import numpy as np

from swarmfl.design import DesignVector
from swarmfl.fl import participation_masks, run_fl
from swarmfl.scenario import SwarmScenario

SEED = 2718
ROUNDS = 80

scenario = SwarmScenario().require_valid()
_, model = scenario.build_dataset()
default = scenario.default_design()
starved = DesignVector(p=default.p, p_leader=default.p_leader, beta=0.16, v=default.v)

runs = {}
for label, design in (("default design", default), ("starved uploads", starved)):
    masks = participation_masks([scenario], design, ROUNDS, [SEED])[0]  # one repetition
    state, crossed = run_fl(model, masks, 1e-15)
    gaps = state.loss_history[0] - model.f_star
    rate = state.participation_rates()[0]
    runs[label] = gaps
    print(f"{label}: mean participation per follower {np.round(rate, 3)}")

print()
print("loss gap (mean loss minus optimum) every 10 rounds")
print("round    default design    starved uploads")
for t in range(0, ROUNDS + 1, 10):
    cells = "".join(f"    {runs[label][t]:12.3e}" for label in runs)
    print(f"  {t:3d} {cells}")

print()
print("with a starved upload window the aggregator keeps reusing stale")
print("models, and the trajectory flattens out long before the optimum.")
