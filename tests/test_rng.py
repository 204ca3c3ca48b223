"""Seeded streams: ``stream`` reads the entropy it always read."""

import hashlib

import numpy as np
import pytest

from transparent_dp.rng import derive_seed, stream


def list_seeded_stream(seed, *labels):
    # The construction every seeded output was made with: a SeedSequence
    # built from a list of Python ints, the masked seed then the digest words.
    digest = hashlib.sha256("/".join(map(str, labels)).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 32, 4)]
    entropy = [int(seed) & ((1 << 64) - 1), *words]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# Seeds of one and two 32-bit words, the largest, a derived 64-bit seed,
# and two that the 64-bit mask folds (-1 to 2^64 - 1, 2^64 + 5 to 5).
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, derive_seed(3, "child", 5), -1, 2**64 + 5]
LABELS = [(), (12,), ("dissimilarity",), ("mcem", "iter", 3)]


@pytest.mark.parametrize("labels", LABELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stream_matches_the_list_seeded_stream(seed, labels):
    ours = stream(seed, *labels).random(1000)
    assert np.array_equal(ours, list_seeded_stream(seed, *labels).random(1000))


def test_derive_seed_is_unchanged():
    assert derive_seed(0, "x") == 5154572919779615919
    assert derive_seed(7, "ellipse-study", "mcem", 3) == 1271824853889471308
    assert derive_seed(2**64 - 1, "a", 1) == derive_seed(-1, "a", 1) == 7447246543542339357
