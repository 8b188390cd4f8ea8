"""Claim 2 — constant-round aggregation."""

import random

import numpy as np
import pytest

from repro.mpc import Cluster, ModelConfig
from repro.primitives.aggregate import aggregate, count_items
from repro.primitives.columnar import EdgeBlock


def make_cluster(n=64, m=512) -> Cluster:
    return Cluster(ModelConfig.heterogeneous(n=n, m=m), rng=random.Random(2))


def test_sums_per_key_land_on_large():
    cluster = make_cluster()
    pairs = {mid: [(7, 1), (8, 2)] for mid in cluster.small_ids[:10]}
    result = aggregate(cluster, pairs, "sum")
    assert result == {7: 10, 8: 20}
    assert cluster.ledger.memory_high_water[cluster.large.machine_id] >= 4


def test_aggregation_function_semantics():
    """f({f(X1), f(X2)}) = f(X1 ∪ X2) — check with max, an aggregation
    function per Definition 1."""
    cluster = make_cluster()
    pairs = {mid: [(0, mid)] for mid in cluster.small_ids}
    result = aggregate(cluster, pairs, "max")
    assert result[0] == max(cluster.small_ids)


def test_aggregate_to_explicit_destination():
    cluster = make_cluster()
    pairs = {mid: [(3, 1)] for mid in cluster.small_ids[:5]}
    result = aggregate(cluster, pairs, "sum", dst=cluster.small_ids[3])
    assert result == {3: 5}


def test_aggregate_rounds_are_constant_in_volume():
    counts = []
    for width in (5, len(make_cluster().small_ids)):
        cluster = make_cluster()
        pairs = {mid: [(mid % 7, 1)] for mid in cluster.small_ids[:width]}
        aggregate(cluster, pairs, "sum")
        counts.append(cluster.ledger.rounds)
    fanout_depth = 4
    assert all(c <= fanout_depth for c in counts)


def test_aggregate_counts_degrees():
    """Degrees as Claim 4 counts them: one ``(machine, key, 1)`` row per
    key, every machine's rows in one block, machines ascending."""
    cluster = make_cluster()
    machines = np.repeat(cluster.small_ids[:4], 3)
    keys = np.tile([5, 9, 5], 4)
    block = EdgeBlock([machines, keys, np.ones(len(keys), dtype=np.int64)])
    assert aggregate(cluster, block, "sum") == {5: 8, 9: 4}


def test_count_items_with_predicate():
    cluster = make_cluster()
    cluster.distribute_edges(list(range(100)), name="data")
    total = count_items(cluster, "data")
    evens = count_items(cluster, "data", predicate=lambda x: x % 2 == 0)
    assert total == 100
    assert evens == 50


def test_empty_aggregate():
    """No pairs: no round, but the cast still records the destination's
    memory at its result checkpoint."""
    cluster = make_cluster()
    cluster.large.put("keep", [1, 2])
    assert aggregate(cluster, {}, "sum") == {}
    assert cluster.ledger.rounds == 0
    assert cluster.ledger.memory_high_water == {cluster.large.machine_id: 2}


def test_aggregate_works_without_large_machine():
    config = ModelConfig.sublinear(n=64, m=512)
    cluster = Cluster(config, rng=random.Random(1))
    pairs = {mid: [(4, 1)] for mid in cluster.small_ids[:6]}
    result = aggregate(cluster, pairs, "sum")
    assert result == {4: 6}


def test_min_aggregation_with_tuple_values():
    """"min" compares whole value tuples, as Python compares them."""
    cluster = make_cluster()
    pairs = {
        cluster.small_ids[0]: [((1, 2), (3, 0.5, True))],
        cluster.small_ids[1]: [((1, 2), (1, 9.5, False))],
        cluster.small_ids[2]: [((1, 2), (1, 2.5, True)), ((0, 2), (5, 0.0, True))],
    }
    result = aggregate(cluster, pairs, "min")
    assert result == {(1, 2): (1, 2.5, True), (0, 2): (5, 0.0, True)}
    assert aggregate(make_cluster(), pairs, "max")[(1, 2)] == (3, 0.5, True)


def test_sum_and_or_combine_tuples_element_wise():
    cluster = make_cluster()
    pairs = {mid: [(mid % 2, (1, mid, -mid))] for mid in cluster.small_ids[:6]}
    assert aggregate(cluster, pairs, "sum") == {0: (3, 6, -6), 1: (3, 9, -9)}
    masks = {mid: [(0, (1 << mid, True, mid == 2))] for mid in cluster.small_ids[:3]}
    assert aggregate(make_cluster(), masks, "or") == {0: (7, True, True)}


def test_a_callable_combine_is_refused_before_any_round():
    cluster = make_cluster()
    pairs = {mid: [(0, 1)] for mid in cluster.small_ids}
    with pytest.raises(TypeError, match="named reducer"):
        aggregate(cluster, pairs, lambda a, b: a + b)
    with pytest.raises(ValueError, match="unknown reducer"):
        aggregate(cluster, pairs, "xor")
    assert cluster.ledger.rounds == 0


def _ledger(cluster):
    return [
        (r.note, r.total_words, r.max_sent, r.max_received, r.items, r.violations)
        for r in cluster.ledger.records
    ], list(cluster.ledger.memory_high_water.items())


def test_pairs_of_every_machine_at_once_match_the_per_machine_form():
    """One (machine, key, *value) block charges and answers what the
    per-machine pairs do — with a scalar value and with a wider one — and
    so does the object aggregate."""
    import numpy as np

    import aggregate_oracle
    from repro.primitives.columnar import EdgeBlock

    rng = random.Random(4)
    for width in (1, 3):
        per_machine = {
            mid: [
                (rng.randrange(12), tuple(rng.randrange(-9, 9) for _ in range(width)))
                for _ in range(rng.randrange(0, 6))
            ]
            for mid in range(0, 40, 3)
        }
        rows = [(mid, k, *v) for mid, pairs in per_machine.items() for k, v in pairs]
        block = EdgeBlock([np.array(column) for column in zip(*rows)])
        if width == 1:
            per_machine = {
                mid: [(k, v) for k, (v,) in pairs] for mid, pairs in per_machine.items()
            }
        results = []
        for run, pairs in (
            (aggregate, per_machine), (aggregate, block),
            (aggregate_oracle.aggregate, per_machine), (aggregate_oracle.aggregate, block),
        ):
            cluster = make_cluster(n=256, m=4096)
            results.append((run(cluster, pairs, "sum", note="a"), _ledger(cluster)))
        assert all(result == results[0] for result in results)
