"""The KKKP flow-labeling scheme vs. the brute-force oracle."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.labeling import (
    build_flow_labels,
    decode_heaviest,
    label_entries_bound,
)
from repro.local.mst import heaviest_weight_on_path, kruskal


@pytest.fixture
def rng():
    return random.Random(55)


def forest_of(n, m, seed, components=1):
    rng = random.Random(seed)
    if components == 1:
        g = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)
    else:
        g = generators.planted_components_graph(n, components, m, rng)
        g = g.with_unique_weights(rng)
    return g, kruskal(g)


def test_path_forest_decodes_exactly():
    forest = [(0, 1, 5), (1, 2, 9), (2, 3, 2)]
    labels = build_flow_labels(range(4), forest)
    assert decode_heaviest(labels[0], labels[3]) == 9
    assert decode_heaviest(labels[2], labels[3]) == 2
    assert decode_heaviest(labels[0], labels[1]) == 5


def test_same_vertex_decodes_to_minus_inf():
    labels = build_flow_labels(range(2), [(0, 1, 3)])
    assert decode_heaviest(labels[0], labels[0]) == -math.inf


def test_different_trees_decode_to_inf():
    labels = build_flow_labels(range(4), [(0, 1, 3), (2, 3, 4)])
    assert math.isinf(decode_heaviest(labels[0], labels[2]))
    assert decode_heaviest(labels[0], labels[2]) > 0


def test_isolated_vertices_get_labels():
    labels = build_flow_labels(range(3), [])
    assert len(labels) == 3
    assert math.isinf(decode_heaviest(labels[0], labels[1]))


def test_label_length_bound(rng):
    g, forest = forest_of(200, 500, seed=1)
    labels = build_flow_labels(range(g.n), forest)
    bound = label_entries_bound(g.n)
    assert all(len(label.entries) <= bound for label in labels.values())


def test_word_size_is_logarithmic(rng):
    g, forest = forest_of(128, 300, seed=2)
    labels = build_flow_labels(range(g.n), forest)
    worst = max(label.word_size() for label in labels.values())
    assert worst <= 2 * label_entries_bound(g.n) + 1


def test_all_pairs_match_brute_force_single_tree():
    g, forest = forest_of(40, 100, seed=3)
    labels = build_flow_labels(range(g.n), forest)
    for u, v in itertools.combinations(range(g.n), 2):
        assert decode_heaviest(labels[u], labels[v]) == heaviest_weight_on_path(
            g.n, forest, u, v
        )


def test_all_pairs_match_brute_force_multi_tree():
    g, forest = forest_of(36, 20, seed=4, components=4)
    labels = build_flow_labels(range(g.n), forest)
    for u, v in itertools.combinations(range(g.n), 2):
        assert decode_heaviest(labels[u], labels[v]) == heaviest_weight_on_path(
            g.n, forest, u, v
        )


def test_f_light_filter_via_labels_matches_oracle(rng):
    """The exact use in Section 3: w(e) <= decode(...) iff e is F-light."""
    from repro.local.mst import is_f_light, kruskal_edges

    g = generators.random_connected_graph(50, 300, rng).with_unique_weights(rng)
    sample = [e for e in g.edges if rng.random() < 0.3]
    forest = kruskal_edges(sample)
    labels = build_flow_labels(range(g.n), forest)
    for edge in g.edges:
        by_labels = edge[2] <= decode_heaviest(labels[edge[0]], labels[edge[1]])
        assert by_labels == is_f_light(g.n, forest, edge)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_decode_property_random_forests(seed):
    """Random spanning forests of random graphs: decoder == oracle on all
    graph edges (the queries the MST algorithm actually makes)."""
    rng = random.Random(seed)
    n = rng.randrange(8, 40)
    m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2))
    g = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)
    forest = kruskal(g)
    labels = build_flow_labels(range(n), forest)
    for u, v, w in g.edges:
        assert decode_heaviest(labels[u], labels[v]) == heaviest_weight_on_path(
            n, forest, u, v
        )
