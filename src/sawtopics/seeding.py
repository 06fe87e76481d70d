"""Deterministic seed derivation for multi-stage pipelines.

Every stage that needs randomness derives its own seed from the single
user-facing seed plus a stage tag, so adding or reordering stages never
perturbs the random streams of the others.
"""

from __future__ import annotations

import hashlib


def derive_seed(seed: int, tag: str) -> int:
    """Map (seed, tag) to an independent 63-bit seed.

    SHA-256 of ``"{seed}:{tag}"`` truncated to 8 bytes; stable across
    platforms and Python versions.
    """
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1
