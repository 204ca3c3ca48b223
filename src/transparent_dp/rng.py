"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from a stream derived from
``(master seed, consumer labels)``.  Streams are counter-based (Philox), so
the draw sequence for a given ``(seed, labels)`` pair is identical across
runs, platforms, and thread counts.  Two different label paths never share
a stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

_SEED_MASK = (1 << 64) - 1


def stream(seed: int, *labels: int | str) -> np.random.Generator:
    """Return the child random stream for ``(seed, labels)``.

    Parameters
    ----------
    seed : int
        Master seed for the whole experiment.
    *labels : int or str
        Path naming the logical consumer, e.g. ``("replicate", 12)`` or
        ``("mcem", "iter", 3)``.

    Returns
    -------
    numpy.random.Generator
        A Philox-backed generator unique to this label path.
    """
    digest = hashlib.sha256("/".join(map(str, labels)).encode("utf-8")).digest()
    # One uint32 array of the words SeedSequence would split the list
    # [seed, *digest words] into, which it converts one int at a time: the
    # seed's low word, its high word only when nonzero, then the digest's
    # eight little-endian words.
    seed = int(seed) & _SEED_MASK
    seed_bytes = seed.to_bytes(8 if seed >> 32 else 4, "little")
    entropy = np.frombuffer(seed_bytes + digest, dtype="<u4")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive a child master seed for a nested consumer.

    Used when a sub-experiment takes an integer seed of its own (so it can
    name further child streams internally) rather than a ready stream.
    """
    path = f"{int(seed) & _SEED_MASK}/" + "/".join(map(str, labels))
    digest = hashlib.sha256(path.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
