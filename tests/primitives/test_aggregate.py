"""Claim 2 — constant-round aggregation."""

import random

from repro.mpc import Cluster, ModelConfig
from repro.primitives.aggregate import aggregate, aggregate_counts, count_items


def make_cluster(n=64, m=512) -> Cluster:
    return Cluster(ModelConfig.heterogeneous(n=n, m=m), rng=random.Random(2))


def test_sums_per_key_land_on_large():
    cluster = make_cluster()
    pairs = {mid: [("a", 1), ("b", 2)] for mid in cluster.small_ids[:10]}
    result = aggregate(cluster, pairs, lambda x, y: x + y)
    assert result == {"a": 10, "b": 20}


def test_aggregation_function_semantics():
    """f({f(X1), f(X2)}) = f(X1 ∪ X2) — check with max, an aggregation
    function per Definition 1."""
    cluster = make_cluster()
    pairs = {mid: [("k", mid)] for mid in cluster.small_ids}
    result = aggregate(cluster, pairs, max)
    assert result["k"] == max(cluster.small_ids)


def test_aggregate_to_explicit_destination():
    cluster = make_cluster()
    pairs = {mid: [("x", 1)] for mid in cluster.small_ids[:5]}
    result = aggregate(cluster, pairs, lambda a, b: a + b, dst=cluster.small_ids[3])
    assert result == {"x": 5}


def test_aggregate_rounds_are_constant_in_volume():
    counts = []
    for width in (5, len(make_cluster().small_ids)):
        cluster = make_cluster()
        pairs = {mid: [(mid % 7, 1)] for mid in cluster.small_ids[:width]}
        aggregate(cluster, pairs, lambda a, b: a + b)
        counts.append(cluster.ledger.rounds)
    fanout_depth = 4
    assert all(c <= fanout_depth for c in counts)


def test_aggregate_counts_degrees():
    cluster = make_cluster()
    keys = {mid: ["u", "v", "u"] for mid in cluster.small_ids[:4]}
    result = aggregate_counts(cluster, keys)
    assert result == {"u": 8, "v": 4}


def test_count_items_with_predicate():
    cluster = make_cluster()
    cluster.distribute_edges(list(range(100)), name="data")
    total = count_items(cluster, "data")
    evens = count_items(cluster, "data", predicate=lambda x: x % 2 == 0)
    assert total == 100
    assert evens == 50


def test_empty_aggregate():
    cluster = make_cluster()
    assert aggregate(cluster, {}, lambda a, b: a + b) == {}


def test_aggregate_works_without_large_machine():
    config = ModelConfig.sublinear(n=64, m=512)
    cluster = Cluster(config, rng=random.Random(1))
    pairs = {mid: [("k", 1)] for mid in cluster.small_ids[:6]}
    result = aggregate(cluster, pairs, lambda a, b: a + b)
    assert result == {"k": 6}


def test_min_aggregation_with_tuple_values():
    cluster = make_cluster()
    pairs = {
        cluster.small_ids[0]: [("v", (3, "c"))],
        cluster.small_ids[1]: [("v", (1, "a"))],
        cluster.small_ids[2]: [("v", (2, "b"))],
    }
    result = aggregate(cluster, pairs, min)
    assert result["v"] == (1, "a")


def _ledger(cluster):
    return [
        (r.note, r.total_words, r.max_sent, r.max_received, r.items, r.violations)
        for r in cluster.ledger.records
    ], list(cluster.ledger.memory_high_water.items())


def test_pairs_of_every_machine_at_once_match_the_per_machine_form():
    """One (machine, key, value) block charges and answers what the
    per-machine pairs do — and so does a block the columnar path declines
    (float sums take the object path)."""
    import numpy as np

    from repro.primitives.columnar import EdgeBlock

    rng = random.Random(4)
    for value in (lambda: rng.randrange(-9, 9), lambda: rng.random()):
        per_machine = {
            mid: [(rng.randrange(12), value()) for _ in range(rng.randrange(0, 6))]
            for mid in range(0, 40, 3)
        }
        rows = [(mid, k, v) for mid, pairs in per_machine.items() for k, v in pairs]
        block = EdgeBlock([np.array(column) for column in zip(*rows)])
        results = []
        for pairs in (per_machine, block):
            cluster = make_cluster(n=256, m=4096)
            results.append((aggregate(cluster, pairs, "sum", note="a"), _ledger(cluster)))
        assert results[0] == results[1]
