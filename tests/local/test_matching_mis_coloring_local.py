"""Sequential matching and list coloring helpers."""

import random

import pytest

from repro.graph import generators
from repro.graph.validation import is_maximal_matching, is_proper_coloring
from repro.local.coloring import list_coloring
from repro.local.matching import greedy_maximal_matching


@pytest.fixture
def rng():
    return random.Random(31)


def test_greedy_matching_is_maximal(rng):
    g = generators.random_connected_graph(30, 100, rng)
    matching = greedy_maximal_matching(g.edges)
    assert is_maximal_matching(g, matching)


def test_greedy_matching_respects_preexisting():
    edges = [(0, 1), (2, 3)]
    matched = {0}
    result = greedy_maximal_matching(edges, matched=matched)
    assert result == [(2, 3)]
    assert matched == {0, 2, 3}


def test_list_coloring_success():
    palettes = {0: (0, 1), 1: (1, 0), 2: (0, 1)}
    assignment = list_coloring([0, 1, 2], [(0, 1), (1, 2)], palettes)
    assert assignment is not None
    assert assignment[0] != assignment[1] and assignment[1] != assignment[2]


def test_list_coloring_stuck_returns_none():
    # A triangle where everyone has the same single color cannot be colored.
    palettes = {0: (0,), 1: (0,), 2: (0,)}
    assignment = list_coloring([0, 1, 2], [(0, 1), (1, 2), (0, 2)], palettes)
    assert assignment is None


def test_list_coloring_random_palettes_work_whp(rng):
    g = generators.random_connected_graph(40, 200, rng)
    universe = g.max_degree + 1
    size = min(universe, 8)
    palettes = {v: tuple(rng.sample(range(universe), size)) for v in range(g.n)}
    assignment = list_coloring(range(g.n), g.edges, palettes)
    if assignment is not None:  # succeeds in practice; skip rare failure
        colors = [assignment[v] for v in range(g.n)]
        assert is_proper_coloring(g, colors, universe)
