"""Deterministic seed derivation for independent RNG streams.

Every stochastic component (exploration, tie-breaking, replay sampling,
environment layouts, validation) gets its own ``random.Random`` seeded
through :func:`derive_seed` so that runs are reproducible across processes
regardless of ``PYTHONHASHSEED``.

Training and validation/evaluation draw environment seeds from disjoint
integer ranges (``TRAIN_SEED_RANGE`` vs ``EVAL_SEED_RANGE``). The seeds are
disjoint, not the start layouts: the grid has four layouts and a default
block start is one of C(16, 4) = 1,820 arrangements, so an evaluation
trial can start where a training trial did.
"""
from __future__ import annotations

import hashlib
import random

# Half-open ranges partitioning the 32-bit seed space.
TRAIN_SEED_RANGE = (0, 2**31)
EVAL_SEED_RANGE = (2**31, 2**32)


def derive_seed(base: int, label: str) -> int:
    """Derive a stable 63-bit seed from a base seed and a stream label.

    Uses SHA-256 so the mapping is stable across processes and Python
    versions (the builtin ``hash`` is salted and must not be used here).
    """
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def stream(base: int, label: str) -> random.Random:
    """A fresh ``random.Random`` for the given (base seed, label) pair."""
    return random.Random(derive_seed(base, label))


def training_env_seed(rng: random.Random) -> int:
    """Draw an environment seed from the training half of the seed space."""
    return rng.randrange(*TRAIN_SEED_RANGE)


def eval_env_seed(rng: random.Random) -> int:
    """Draw an environment seed from the evaluation half of the seed space."""
    return rng.randrange(*EVAL_SEED_RANGE)
