"""Graph type invariants."""

import random

import pytest

from repro.graph import Graph, canonical_edge


def test_canonical_edge_sorts_endpoints():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5, 7) == (2, 5, 7)


def test_canonical_edge_rejects_self_loop():
    with pytest.raises(ValueError):
        canonical_edge(3, 3)


def test_edges_are_canonicalized():
    g = Graph(4, [(3, 1), (2, 0)])
    assert g.edges == [(1, 3), (0, 2)]


def test_duplicate_edges_rejected():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (1, 0)])


def test_out_of_range_edges_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_weighted_flag_inferred():
    assert Graph(3, [(0, 1, 5)]).weighted
    assert not Graph(3, [(0, 1)]).weighted


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (1, 2, 9)])


def test_adjacency_symmetric_and_weighted():
    g = Graph(3, [(0, 1, 5), (1, 2, 7)])
    adj = g.adjacency()
    assert (1, 5) in adj[0]
    assert (0, 5) in adj[1]
    assert (2, 7) in adj[1]


def test_degrees_and_extremes():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.degrees() == [3, 1, 1, 1]
    assert g.max_degree == 3
    assert g.average_degree == pytest.approx(1.5)


def test_has_edge_and_edge_set():
    g = Graph(4, [(2, 0)])
    assert canonical_edge(2, 0) in g.edge_set()
    assert canonical_edge(1, 3) not in g.edge_set()
    assert g.edge_set() == {(0, 2)}


def test_weight_map_requires_weights():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.weight_map()
    weighted = Graph(3, [(0, 1, 9)])
    assert weighted.weight_map() == {(0, 1): 9}


def test_total_weight():
    assert Graph(3, [(0, 1, 4), (1, 2, 6)]).total_weight() == 10
    assert Graph(3, [(0, 1), (1, 2)]).total_weight() == 2


def test_unweighted_strips_weights():
    g = Graph(3, [(0, 1, 4)]).unweighted()
    assert not g.weighted
    assert g.edges == [(0, 1)]


def test_with_unique_weights_is_permutation():
    rng = random.Random(0)
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).with_unique_weights(rng)
    weights = sorted(e[2] for e in g.edges)
    assert weights == [1, 2, 3, 4]


def test_empty_weighted_graph_needs_flag():
    g = Graph(3, [], weighted=True)
    assert g.weighted
    assert g.m == 0
