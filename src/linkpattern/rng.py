"""Named, reproducible random substreams.

Every source of randomness in the package derives from a single integer
seed plus a tuple of stream names.  The names are hashed with a stable
digest (not Python's randomized ``hash``) so the same (seed, names) pair
yields the same generator on every run and platform.
"""

import hashlib
import numbers

import numpy as np


def _digest(name: str) -> int:
    return int.from_bytes(hashlib.blake2s(name.encode("utf-8"), digest_size=8).digest(), "little")


def _check_seed(seed, error=ValueError) -> None:
    """Raise ``error`` unless ``seed`` is an integer (negative ones included)."""
    if not isinstance(seed, numbers.Integral):
        raise error(f"seed must be an integer, got {seed!r}")


def substream(seed: int, *names: str) -> np.random.Generator:
    """Return a Generator for the substream identified by ``names``.

    Distinct name tuples give statistically independent streams; the same
    tuple always gives the same stream.  Raises ValueError unless ``seed``
    is an integer; its low 64 bits seed the stream.
    """
    _check_seed(seed)
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF,) + tuple(_digest(n) for n in names)
    return np.random.default_rng(np.random.SeedSequence(entropy))
