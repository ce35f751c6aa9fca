"""Closed-form prediction of the number of rounds to reach a loss target.

With per-round participation probabilities P_i and curvature constants mu
(strong convexity) and U (smoothness), the expected loss gap contracts per
round by at least the factor 1 - rho with

    rho = sum_i N_i P_i mu / (N U),

and the predicted round count to bring the initial raw loss sum below a
target epsilon is ceil(log(epsilon / initial_loss_sum) / log(1 - rho)).
The prediction is an upper-bound-style estimate: it treats participation as
independent across rounds and followers with stationary probabilities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ROUND_CAP", "TrainingProblem", "training_problem", "convergence_round"]

# Round count standing in for "never converges" when no follower ever
# participates (the prediction would be infinite; a finite cap keeps
# aggregates computable and is conservative in every comparison we report).
ROUND_CAP = 10**6


def convergence_round(rho: float, epsilon: float, initial_loss_sum: float) -> int:
    """Predicted rounds until the raw loss sum falls below epsilon at speed rho.

    Raises ValueError when rho is too small to move 1 - rho (no
    participation, no finite prediction) or rho >= 1 (contraction factor
    would be nonpositive).  Targets at or above the initial loss clamp to
    0 rounds.
    """
    if 1.0 - rho >= 1.0:
        raise ValueError("rho is 0 to float precision: no follower ever participates")
    if rho >= 1.0:
        raise ValueError("rho >= 1: contraction factor must stay positive")
    ratio = epsilon / initial_loss_sum
    if ratio >= 1.0:
        return 0
    return max(0, math.ceil(math.log(ratio) / math.log(1.0 - rho)))


@dataclass(frozen=True, eq=False)
class TrainingProblem:
    """The training problem the swarm solves, and its round predictor.

    counts           : samples per follower, shape (I,)
    mu               : strong convexity of the mean loss
    lipschitz_u      : smoothness of the mean loss
    initial_loss_sum : sum of all per-sample losses at the zero model
    model            : the loss model these constants come from
    """

    counts: np.ndarray
    mu: float
    lipschitz_u: float
    initial_loss_sum: float
    model: object = None

    def __post_init__(self):
        object.__setattr__(self, "counts", np.array(self.counts, dtype=float))
        self.counts.flags.writeable = False  # one cached problem serves every caller
        if np.any(self.counts <= 0):
            raise ValueError("counts must be positive")
        if not (0.0 < self.mu <= self.lipschitz_u):
            raise ValueError("need 0 < mu <= lipschitz_u")
        if not (self.initial_loss_sum > 0.0):
            raise ValueError("initial_loss_sum must be > 0")

    def speed(self, probs) -> float:
        """Per-round contraction speed rho in [0, mu/U] at success probabilities probs."""
        p = np.asarray(probs, dtype=float)
        if p.shape != self.counts.shape or not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError(f"success probabilities must lie in [0, 1], shape {self.counts.shape}")
        return self._speed(p)

    def _speed(self, p: np.ndarray) -> float:
        """speed without its checks, for callers whose p is an (I,) float array in [0, 1] by construction."""
        weighted = float((self.counts * p).sum())
        return weighted * self.mu / (self.counts.sum() * self.lipschitz_u)

    def predicted_round(self, probs, eps_sum: float) -> int:
        """Predicted rounds until the raw loss sum falls below eps_sum.

        At most ROUND_CAP, which also stands for "never" when no follower
        participates.  rho = 1 (mu = U and every link up) would contract the
        gap to zero; it is held just below 1, as the optimizer's rows hold it.
        """
        rho = min(self.speed(probs), 1.0 - 1e-12)
        if not (eps_sum > 0.0):
            raise ValueError("eps_sum must be > 0")
        if 1.0 - rho >= 1.0:  # convergence_round has no finite answer
            return ROUND_CAP
        return min(convergence_round(rho, eps_sum, self.initial_loss_sum), ROUND_CAP)


@lru_cache(maxsize=32)
def training_problem(n_followers: int, dataset) -> TrainingProblem:
    """Build the dataset split across n_followers once and keep its problem.

    Everything that predicts or trains on a scenario reads this one cached
    entry; scenarios that differ elsewhere (bandwidth, jitter, budgets)
    share it.
    """
    _, model = dataset.build(n_followers)
    s0 = model.total_loss_sum(np.zeros(model.dim))
    return TrainingProblem(model.counts, model.strong_mu, model.lipschitz_u, s0, model)
