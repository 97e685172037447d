"""Deterministic seed derivation.

Every random decision in the package flows from a single master seed through
``derive_seed``.  Units of work (LDM columns, recorder trials) get their own
derived seed, so results do not depend on execution order and stay
reproducible under concurrency.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import integer


def derive_seed(master_seed: int, *tags: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a role tag path.

    The derivation is a SHA-256 hash of the decimal master seed joined with
    the string form of each tag, so ``derive_seed(7, "column", 3)`` is stable
    across processes, platforms, and runs.
    """
    text = "|".join(str(part) for part in (integer(master_seed, "master_seed"), *tags))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(master_seed: int, *tags: object) -> np.random.Generator:
    """A fresh PCG64 generator seeded by ``derive_seed(master_seed, *tags)``."""
    return np.random.default_rng(derive_seed(master_seed, *tags))
