"""Seed-derivation helpers.

Every sampling entry point in the package takes an explicit seed and derives
independent substreams from it, so trials can run in any order (or on any
worker) and still reproduce bit-identically.  Philox is counter-based, which
makes the streams cheap to spawn and platform-stable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import numpy.random  # noqa: F401  (numpy would load it lazily, in a trial's first draw)

__all__ = ["derive_seed", "substream"]


def _key_to_int(key: int | str) -> int:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"seed keys must be nonnegative, got {key}")
        return int(key)
    # Stable across runs and platforms, unlike hash().
    digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(master_seed: int, *keys: int | str) -> np.random.Generator:
    """Derive a reproducible generator from a master seed and a key path.

    Keys may be integers (trial indices) or short strings (stream tags such
    as "model" or "phi-g"); strings are hashed to 64-bit integers so the
    entropy pool is purely numeric.
    """
    entropy = [int(master_seed)] + [_key_to_int(k) for k in keys]
    ss = np.random.SeedSequence(entropy)
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(master_seed: int, *keys: int | str) -> int:
    """Collapse a key path to a single integer seed for APIs that take one."""
    entropy = [int(master_seed)] + [_key_to_int(k) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
