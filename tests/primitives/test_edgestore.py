"""EdgeStore — the ergonomic distributed-dataset layer."""

import random

import pytest

from repro.graph import generators
from repro.mpc import Cluster, ModelConfig
from repro.primitives.edgestore import EdgeStore


@pytest.fixture
def cluster():
    return Cluster(ModelConfig.heterogeneous(n=40, m=200), rng=random.Random(9))


@pytest.fixture
def graph():
    rng = random.Random(10)
    return generators.random_connected_graph(40, 200, rng).with_unique_weights(rng)


def test_create_places_all_items(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    assert sorted(store.items()) == sorted(graph.edges)
    assert len(store) == graph.m
    assert cluster.ledger.rounds == 0  # initial placement is free


def test_fresh_names_avoid_collisions(cluster, graph):
    a = EdgeStore.create(cluster, graph.edges)
    b = EdgeStore.create(cluster, graph.edges)
    assert a.name != b.name


def test_sample_rate(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    rng = random.Random(11)
    sampled = store.sample(0.5, rng)
    assert 0 < len(sampled) < graph.m
    assert set(sampled.items()) <= set(store.items())
    assert len(store) == graph.m  # original untouched
    sampled.drop()
    assert len(sampled) == 0
    assert len(store) == graph.m


def test_sample_extremes(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    rng = random.Random(12)
    assert len(store.sample(0.0, rng)) == 0
    assert len(store.sample(1.0, rng)) == graph.m


def test_local_step_applies_local_transform(cluster):
    store = EdgeStore.create(cluster, [(1, 2), (3, 4), (5, 6)], name="e")
    flipped = store.local(lambda rows: [(v, u) for u, v in rows], "flipped")
    assert cluster.ledger.rounds == 0  # local work is free
    assert flipped.name == "flipped"
    assert sorted(flipped.items()) == [(2, 1), (4, 3), (6, 5)]
    assert sorted(store.items()) == [(1, 2), (3, 4), (5, 6)]  # kept
    flipped.local(list, "e", consume=True)  # over the source, consumed
    assert sorted(store.items()) == [(2, 1), (4, 3), (6, 5)]
    assert flipped.items() == []
    assert cluster.usage.sum() == 6


def test_local_step_on_empty_datasets_is_a_noop(cluster):
    out = EdgeStore(cluster, "missing").local(list, "out")
    assert out.items() == []
    assert cluster.ledger.rounds == 0
    assert not cluster.usage.any()


def test_checkpoint_after_a_local_step_records_its_growth(cluster):
    store = EdgeStore.create(cluster, [(1, 2)], name="e")
    small_capacity = cluster.config.small_capacity
    grown = store.local(lambda rows: list(rows) * (small_capacity + 1), "grown")
    cluster.checkpoint_memory(f"map/{grown.name}")
    # The growth is visible without any round having been charged.
    assert cluster.ledger.rounds == 0
    assert any("[map/grown]" in str(v) for v in cluster.ledger.violations)
    assert max(cluster.ledger.memory_high_water.values()) > small_capacity


def test_local_step_puts_several_targets(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    light, heavy = store.local(
        lambda rows: (
            [e for e in rows if e[2] <= 10], [e for e in rows if e[2] > 10]
        ),
        "light", "heavy",
    )
    assert sorted(light.items() + heavy.items()) == sorted(graph.edges)
    assert sorted(e[2] for e in light.items()) == list(range(1, 11))


def test_count_charges_rounds(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    before = cluster.ledger.rounds
    assert store.count() == graph.m
    assert cluster.ledger.rounds > before
    assert store.count(lambda e: e[2] <= 10) == 10  # weights are 1..m


def test_gather_to_large_with_predicate(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    light = store.gather_to_large(predicate=lambda e: e[2] <= 5)
    assert sorted(e[2] for e in light) == [1, 2, 3, 4, 5]


def test_sort_returns_layout(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    layout = store.sort(key=2)
    assert layout.total == graph.m
    weights = [e[2] for e in store.items()]
    assert weights == sorted(weights)


def test_aggregate_degrees(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    degree_u = store.aggregate(lambda e: (e[0], 1), "sum")
    truth = {}
    for u, v, w in graph.edges:
        truth[u] = truth.get(u, 0) + 1
    assert degree_u == truth


def test_aggregate_refuses_none_pairs(cluster, graph):
    """Every record maps to a pair: a ``None`` is refused before any
    round (filter the records first)."""
    store = EdgeStore.create(cluster, graph.edges)
    with pytest.raises(TypeError, match="must be \\(key, value\\) tuples"):
        store.aggregate(lambda e: (e[0], 1) if e[0] == 0 else None, "sum")
    assert cluster.ledger.rounds == 0


def test_annotate_roundtrip(cluster, graph):
    store = EdgeStore.create(cluster, graph.edges)
    annotated = store.annotate({v: -v for v in range(graph.n)})
    for row in annotated.items():
        edge, vu, vv = row[:-2], row[-2], row[-1]
        assert vu == -edge[0] and vv == -edge[1]
