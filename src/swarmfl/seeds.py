"""Deterministic seed derivation for experiment sub-tasks.

Every stochastic sub-task (a Monte Carlo repetition, a success-probability
estimate, a baseline draw) gets its own child seed derived from the base
seed plus a path of labels, so runs are reproducible regardless of
execution order and two different sub-tasks never share a generator.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed"]


def _to_word(part) -> int:
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    raise TypeError(f"seed path parts must be str or int, got {type(part).__name__}")


def derive_seed(base_seed: int, *path) -> int:
    """A 64-bit child seed for the sub-task identified by path."""
    words = [int(base_seed) & 0xFFFFFFFFFFFFFFFF] + [_to_word(p) for p in path]
    state = np.random.SeedSequence(words).generate_state(2, dtype=np.uint32)
    return int(state[0]) | (int(state[1]) << 32)

