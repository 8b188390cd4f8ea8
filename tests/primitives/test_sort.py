"""Claim 1 — distributed sample sort."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import Cluster, ModelConfig
from repro.primitives.sort import SortLayout, sample_sort


def make_cluster(n=64, m=512) -> Cluster:
    return Cluster(ModelConfig.heterogeneous(n=n, m=m), rng=random.Random(7))


def distribute(cluster, items, name="data"):
    cluster.distribute_edges(items, name=name)


def globally_sorted(cluster, name, key):
    previous = None
    for machine in cluster.smalls:
        for item in machine.get(name, []):
            if previous is not None and key(item) < previous:
                return False
            previous = key(item)
    return True


def test_sorts_integers():
    cluster = make_cluster()
    distribute(cluster, [(i,) for i in range(200)][::-1])
    layout = sample_sort(cluster, "data", key=0)
    assert globally_sorted(cluster, "data", key=lambda x: x)
    assert layout.total == 200


def test_constant_round_count():
    """Sorting charges O(1) rounds regardless of the data size."""
    counts = []
    for size in (50, 500):
        cluster = make_cluster()
        distribute(cluster, [(i,) for i in range(size)][::-1])
        sample_sort(cluster, "data", key=0)
        counts.append(cluster.ledger.rounds)
    assert counts[1] <= counts[0] + 2  # no growth with input size


def test_sorts_tuples_by_key():
    cluster = make_cluster()
    rng = random.Random(1)
    items = [(rng.randrange(100), i) for i in range(150)]
    distribute(cluster, items)
    sample_sort(cluster, "data", key=(0, 1))
    assert globally_sorted(cluster, "data", key=lambda t: (t[0], t[1]))


def test_empty_dataset():
    cluster = make_cluster()
    distribute(cluster, [])
    layout = sample_sort(cluster, "data", key=0)
    assert layout.total == 0
    assert cluster.ledger.rounds == 0


def test_preserves_multiset():
    cluster = make_cluster()
    rng = random.Random(5)
    items = [(rng.randrange(30),) for _ in range(300)]  # duplicates
    distribute(cluster, items)
    sample_sort(cluster, "data", key=0)
    assert sorted(items) == cluster.all_items("data")


def test_layout_offsets_and_rank_lookup():
    layout = SortLayout(machine_ids=[10, 11, 12], counts=[3, 0, 2])
    assert layout.offsets == [0, 3, 3]
    assert layout.total == 5
    assert layout.machine_of_rank_many([0, 2, 3]) == [10, 10, 12]
    with pytest.raises(IndexError):
        layout.machine_of_rank_many([5])


def test_layout_offsets_are_cached():
    layout = SortLayout(machine_ids=[10, 11, 12], counts=[3, 0, 2])
    first = layout.offsets
    assert layout.offsets is first  # computed once, reused by rank lookups
    assert layout.total == 5
    assert layout.machine_of_rank_many(range(5)) == [10, 10, 10, 12, 12]


def test_key_must_be_a_field_spec():
    cluster = make_cluster()
    distribute(cluster, [(i,) for i in range(10)])
    for key in (lambda row: row[0], "0", (), 0.5):
        with pytest.raises(TypeError, match="key must be a column index"):
            sample_sort(cluster, "data", key=key)
    assert cluster.ledger.rounds == 0


def test_works_without_large_machine():
    config = ModelConfig.sublinear(n=64, m=512)
    cluster = Cluster(config, rng=random.Random(3))
    distribute(cluster, [(i,) for i in range(100)][::-1])
    sample_sort(cluster, "data", key=0)
    assert globally_sorted(cluster, "data", key=lambda x: x)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    size=st.integers(min_value=0, max_value=400),
)
def test_sort_property(seed, size):
    cluster = make_cluster()
    rng = random.Random(seed)
    items = [(rng.randrange(1000),) for _ in range(size)]
    distribute(cluster, items)
    sample_sort(cluster, "data", key=0)
    assert cluster.all_items("data") == sorted(items)
