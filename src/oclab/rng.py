"""Deterministic, splittable randomness.

Every random choice in the toolkit flows from a single 64-bit seed.
Sub-tasks derive their own streams by hashing (seed, label), so adding a
new consumer never perturbs the draws of an existing one.  Only
``getrandbits``/``randrange`` are used on the underlying generator,
which keeps the streams stable across interpreter versions.  The l1
coefficient samples call ``getrandbits`` alone: they run the rejection
loop of ``randrange(0, 1 << 16)`` themselves, so they draw that stream
without its per-call cost.
"""

from __future__ import annotations

import hashlib
import random


def split_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, label: str) -> random.Random:
    """Independent generator for the sub-task named by ``label``."""
    return random.Random(split_seed(seed, label))


def sample_subset(rng: random.Random, n: int, k: int) -> tuple:
    """k distinct indices from range(n), sorted; partial Fisher-Yates."""
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randrange(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:k]))

