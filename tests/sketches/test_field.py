"""k-wise independent hashing over GF(2^61 - 1)."""

import random

from repro.sketches import KWiseHash, PRIME
from sketch_oracle import kwise_hash, trailing_zeros


def test_hash_is_deterministic():
    h = KWiseHash(4, random.Random(1))
    assert kwise_hash(h, 42) == kwise_hash(h, 42)


def test_hash_range():
    h = KWiseHash(4, random.Random(2))
    for x in range(100):
        assert 0 <= kwise_hash(h, x) < PRIME


def test_different_seeds_differ():
    a = KWiseHash(4, random.Random(3))
    b = KWiseHash(4, random.Random(4))
    assert any(kwise_hash(a, x) != kwise_hash(b, x) for x in range(10))


def test_degree_matches_k():
    h = KWiseHash(5, random.Random(5))
    assert len(h.coefficients) == 5


def test_leading_coefficient_nonzero():
    for seed in range(20):
        h = KWiseHash(3, random.Random(seed))
        assert h.coefficients[0] != 0


def test_uniformity_rough():
    """Bucketed outputs should not all collapse (sanity, not a real
    statistical test)."""
    h = KWiseHash(8, random.Random(6))
    buckets = [0] * 16
    for x in range(4000):
        buckets[kwise_hash(h, x) % 16] += 1
    assert min(buckets) > 100


def test_k_must_be_positive():
    import pytest

    with pytest.raises(ValueError):
        KWiseHash(0, random.Random(0))


def test_trailing_zeros():
    assert trailing_zeros(1) == 0
    assert trailing_zeros(8) == 3
    assert trailing_zeros(12) == 2
    assert trailing_zeros(0) == 61


def test_trailing_zeros_geometric_distribution():
    rng = random.Random(7)
    h = KWiseHash(8, rng)
    levels = [trailing_zeros(kwise_hash(h, x)) for x in range(8000)]
    zero_fraction = sum(1 for l in levels if l == 0) / len(levels)
    assert 0.4 < zero_fraction < 0.6  # ~1/2 of hashes are odd
