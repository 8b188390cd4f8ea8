"""Sequential MST machinery, including the F-light ground truth."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, generators
from repro.graph.validation import is_spanning_forest
from repro.local.mst import (
    f_light_edges,
    heaviest_weight_on_path,
    is_f_light,
    kruskal,
    kruskal_edges,
)


@pytest.fixture
def rng():
    return random.Random(17)


def test_kruskal_on_triangle():
    g = Graph(3, [(0, 1, 1), (1, 2, 2), (0, 2, 3)])
    assert sorted(kruskal(g)) == [(0, 1, 1), (1, 2, 2)]


def test_kruskal_requires_weights():
    with pytest.raises(ValueError):
        kruskal(Graph(3, [(0, 1)]))


def test_kruskal_total_weight_is_minimal_by_exhaustion(rng):
    """Compare against brute force over all spanning trees of a tiny graph."""
    import itertools

    g = generators.random_connected_graph(6, 9, rng).with_unique_weights(rng)
    best = math.inf
    for subset in itertools.combinations(g.edges, g.n - 1):
        if is_spanning_forest(g, subset):
            best = min(best, sum(e[2] for e in subset))
    assert sum(e[2] for e in kruskal(g)) == best


def test_kruskal_on_disconnected_graph(rng):
    g = generators.planted_components_graph(20, 3, 15, rng).with_unique_weights(rng)
    forest = kruskal(g)
    assert is_spanning_forest(g, forest)
    assert len(forest) == g.n - 3


def test_kruskal_edges_handles_multigraph():
    # Parallel edges with different weights: only the lightest used.
    forest = kruskal_edges([(0, 1, 5), (0, 1, 2)])
    assert forest == [(0, 1, 2)]


def test_heaviest_on_path_simple_path():
    forest = [(0, 1, 5), (1, 2, 9), (2, 3, 2)]
    assert heaviest_weight_on_path(4, forest, 0, 3) == 9
    assert heaviest_weight_on_path(4, forest, 2, 3) == 2


def test_heaviest_on_path_different_trees_is_inf():
    forest = [(0, 1, 5), (2, 3, 2)]
    assert math.isinf(heaviest_weight_on_path(4, forest, 0, 2))


def test_heaviest_on_path_same_vertex():
    assert heaviest_weight_on_path(3, [(0, 1, 5)], 1, 1) == -math.inf


def test_f_light_definition_matches_kkt(rng):
    """Edges of the MSF itself are always F-light; the heaviest edge of any
    cycle is F-heavy with respect to the full MST."""
    g = generators.random_connected_graph(15, 45, rng).with_unique_weights(rng)
    forest = kruskal(g)
    for edge in forest:
        assert is_f_light(g.n, forest, edge)
    non_tree = [e for e in g.edges if e not in forest]
    for edge in non_tree:
        # w.r.t. the true MST, every non-tree edge is F-heavy.
        assert not is_f_light(g.n, forest, edge)


def test_f_light_count_respects_kkt_bound(rng):
    """KKT (Lemma 3.2): sampling at rate p leaves ~n/p F-light edges."""
    n, m, p = 60, 600, 0.25
    g = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)
    totals = []
    for seed in range(5):
        local = random.Random(seed)
        sample = [e for e in g.edges if local.random() < p]
        forest = kruskal_edges(sample)
        totals.append(len(f_light_edges(n, forest, g.edges)))
    average = sum(totals) / len(totals)
    assert average <= 3 * n / p  # generous constant over the expectation


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_kruskal_is_idempotent_on_its_output(seed):
    rng = random.Random(seed)
    g = generators.random_connected_graph(12, 24, rng).with_unique_weights(rng)
    forest = kruskal(g)
    again = kruskal_edges(forest)
    assert sorted(again) == sorted(forest)
