"""Stoer–Wagner and the exact min-cut value."""

import random

import pytest

from repro.graph import Graph, generators
from repro.graph.validation import cut_value
from repro.local.mincut import min_cut_value, stoer_wagner


@pytest.fixture
def rng():
    return random.Random(41)


def test_stoer_wagner_on_barbell():
    # Two triangles joined by one edge: min cut = 1.
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    value, side = stoer_wagner(range(6), edges)
    assert value == 1
    assert side in ({0, 1, 2}, {3, 4, 5})


def test_stoer_wagner_weighted():
    edges = [(0, 1, 10), (1, 2, 3), (2, 0, 10)]
    value, _ = stoer_wagner(range(3), edges)
    assert value == 13  # isolate vertex 1: 3 + 10


def test_stoer_wagner_merges_parallel_edges():
    value, _ = stoer_wagner(range(2), [(0, 1), (0, 1), (0, 1)])
    assert value == 3


def test_stoer_wagner_side_matches_value(rng):
    g = generators.planted_cut_graph(20, 2, 3.0, rng)
    value, side = stoer_wagner(range(g.n), g.edges)
    assert cut_value(g, side) == value


def test_stoer_wagner_needs_two_vertices():
    with pytest.raises(ValueError):
        stoer_wagner([0], [])


def test_min_cut_value_disconnected_is_zero():
    g = Graph(4, [(0, 1), (2, 3)])
    assert min_cut_value(g.n, g.edges) == 0


def test_min_cut_of_cycle_is_two(rng):
    g = generators.cycle_graph(10)
    assert min_cut_value(g.n, g.edges) == 2


def test_min_cut_of_complete_graph():
    g = generators.complete_graph(6)
    assert min_cut_value(g.n, g.edges) == 5


def test_min_cut_matches_brute_force(rng):
    import itertools

    g = generators.gnm_random_graph(8, 16, rng)
    from repro.graph.traversal import is_connected

    if not is_connected(g):
        return
    best = min(
        cut_value(g, set(side))
        for size in range(1, 5)
        for side in itertools.combinations(range(8), size)
    )
    assert min_cut_value(g.n, g.edges) == best
