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
