"""The decision variables of the joint link/schedule/speed design."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DesignVector"]


@dataclass(frozen=True)
class DesignVector:
    """One candidate operating point of the swarm.

    p        : follower transmit powers [W], shape (I,)
    p_leader : leader transmit power [W]
    beta     : fraction of the round given to uplink, in (0, 1)
    v        : common flight speed [m/s]
    """

    p: np.ndarray
    p_leader: float
    beta: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))

    def validate(self, p_max: float, v_max: float) -> list[str]:
        """Box-constraint violations as human-readable messages (empty if valid)."""
        errors = []
        if self.p.ndim != 1:
            errors.append("design.p must be a 1-d array")
            return errors
        if not np.all((self.p > 0.0) & (self.p <= p_max)):  # NaN fails too
            errors.append(f"design.p must lie in (0, p_max={p_max}] per follower")
        if not (0.0 < self.p_leader <= p_max):
            errors.append(f"design.p_leader must lie in (0, p_max={p_max}]")
        if not (0.0 < self.beta < 1.0):
            errors.append("design.beta must lie in (0, 1)")
        if not (0.0 < self.v <= v_max):
            errors.append(f"design.v must lie in (0, v_max={v_max}]")
        return errors

    def as_flat(self) -> np.ndarray:
        """Concatenated (p_1..p_I, p_leader, beta, v) vector."""
        return np.concatenate([self.p, [self.p_leader, self.beta, self.v]])

    @staticmethod
    def from_flat(flat: np.ndarray, n_followers: int) -> "DesignVector":
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (n_followers + 3,):
            raise ValueError(f"expected {n_followers + 3} entries, got {flat.shape}")
        return DesignVector(
            p=flat[:n_followers].copy(),
            p_leader=float(flat[n_followers]),
            beta=float(flat[n_followers + 1]),
            v=float(flat[n_followers + 2]),
        )
