"""Sublinear-regime baselines: correctness plus the Ω(log)-type growth
that motivates the heterogeneous model."""

import random

import pytest

from repro.baselines import (
    sublinear_boruvka_mst,
    sublinear_connectivity,
    sublinear_matching,
)
from repro.graph import generators
from repro.graph.traversal import component_labels
from repro.graph.validation import is_maximal_matching, verify_mst


@pytest.fixture
def rng():
    return random.Random(131)


def test_sublinear_mst_exact(rng):
    g = generators.random_connected_graph(40, 200, rng).with_unique_weights(rng)
    result = sublinear_boruvka_mst(g, rng=random.Random(1))
    assert verify_mst(g, result.edges)


def test_sublinear_mst_on_disconnected(rng):
    g = generators.planted_components_graph(30, 3, 30, rng).with_unique_weights(rng)
    result = sublinear_boruvka_mst(g, rng=random.Random(2))
    assert verify_mst(g, result.edges)


def test_sublinear_mst_requires_weights(rng):
    g = generators.random_connected_graph(10, 15, rng)
    with pytest.raises(ValueError):
        sublinear_boruvka_mst(g)


def test_sublinear_mst_iterations_grow_with_n(rng):
    """Borůvka needs more iterations on longer paths — the log n growth."""
    iterations = []
    for n in (16, 128):
        g = generators.cycle_graph(n).with_unique_weights(rng)
        result = sublinear_boruvka_mst(g, rng=random.Random(n))
        iterations.append(result.iterations)
    assert iterations[1] > iterations[0]


def test_sublinear_connectivity_labels(rng):
    g = generators.planted_components_graph(40, 4, 30, rng)
    result = sublinear_connectivity(g, rng=random.Random(3))
    assert result.labels == component_labels(g)


def test_sublinear_connectivity_uses_no_large_machine(rng):
    g = generators.random_connected_graph(20, 40, rng)
    result = sublinear_connectivity(g, rng=random.Random(4))
    assert not result.cluster.larges


def test_sublinear_matching_is_maximal(rng):
    g = generators.random_connected_graph(40, 180, rng)
    result = sublinear_matching(g, rng=random.Random(5))
    assert is_maximal_matching(g, result.matching)


def test_sublinear_matching_on_star(rng):
    from repro.graph import Graph

    g = Graph(15, [(0, v) for v in range(1, 15)])
    result = sublinear_matching(g, rng=random.Random(6))
    assert is_maximal_matching(g, result.matching)
    assert len(result.matching) == 1


def test_round_separation_vs_heterogeneous(rng):
    """The motivating separation on the 1-vs-2 cycle problem: sublinear
    Borůvka needs rounds growing with n, the heterogeneous solution is one
    round."""
    from repro.core.cycle import solve_one_vs_two_cycles

    g = generators.cycle_graph(128, rng)
    sublinear = sublinear_connectivity(g, rng=random.Random(7))
    heterogeneous = solve_one_vs_two_cycles(g, rng=random.Random(8))
    assert heterogeneous.rounds == 1
    assert sublinear.rounds > 5 * heterogeneous.rounds
