"""Workload generators produce what they promise."""

import random

import pytest

from repro.graph import generators
from repro.graph.traversal import connected_components, is_connected


@pytest.fixture
def rng():
    return random.Random(99)


def test_gnm_exact_edge_count(rng):
    g = generators.gnm_random_graph(30, 100, rng)
    assert g.n == 30 and g.m == 100
    assert len(g.edge_set()) == 100  # simple


def test_gnm_dense_case(rng):
    g = generators.gnm_random_graph(10, 40, rng)  # > half of max
    assert g.m == 40


def test_gnm_too_many_edges_rejected(rng):
    with pytest.raises(ValueError):
        generators.gnm_random_graph(4, 7, rng)


def test_random_tree_is_spanning_tree(rng):
    g = generators.random_tree(40, rng)
    assert g.m == 39
    assert is_connected(g)


def test_random_connected_graph(rng):
    g = generators.random_connected_graph(25, 60, rng)
    assert g.m == 60
    assert is_connected(g)


def test_random_connected_needs_enough_edges(rng):
    with pytest.raises(ValueError):
        generators.random_connected_graph(10, 8, rng)


def test_cycle_graph_degrees(rng):
    g = generators.cycle_graph(12, rng)
    assert g.m == 12
    assert all(d == 2 for d in g.degrees())
    assert connected_components(g).num_components == 1


def test_two_cycles_structure(rng):
    g = generators.two_cycles(13, rng)
    assert all(d == 2 for d in g.degrees())
    assert connected_components(g).num_components == 2


def test_two_cycles_needs_six_vertices(rng):
    with pytest.raises(ValueError):
        generators.two_cycles(5, rng)


def test_one_or_two_cycles_is_honest(rng):
    for _ in range(6):
        g, cycles = generators.one_or_two_cycles(20, rng)
        assert connected_components(g).num_components == cycles


def test_complete_graph():
    g = generators.complete_graph(6)
    assert g.m == 15
    assert all(d == 5 for d in g.degrees())


def test_grid_graph_shape():
    g = generators.grid_graph(3, 4)
    assert g.n == 12
    assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical
    assert is_connected(g)


def test_preferential_attachment_is_skewed(rng):
    g = generators.preferential_attachment_graph(150, 3, rng)
    degrees = sorted(g.degrees())
    assert is_connected(g)
    assert degrees[-1] > 3 * degrees[len(degrees) // 2]  # heavy tail


def test_preferential_attachment_validation(rng):
    with pytest.raises(ValueError):
        generators.preferential_attachment_graph(3, 3, rng)


def test_planted_components_exact_count(rng):
    g = generators.planted_components_graph(50, 5, 30, rng)
    assert connected_components(g).num_components == 5


def test_planted_cut_value(rng):
    from repro.local.mincut import min_cut_value

    g = generators.planted_cut_graph(30, 2, 4.0, rng)
    assert is_connected(g)
    # The planted cut gives an upper bound; the true min cut is at most 2.
    assert min_cut_value(g.n, g.edges) <= 2


@pytest.mark.parametrize(
    "n, cut",
    [(4, 5), (4, 100), (0, 3), (1, 1), (30, -1)],
)
def test_planted_cut_rejects_impossible_counts(rng, n, cut):
    # Only |left| * |right| crossing edges exist; asking for more used to
    # loop forever, and an empty half crashed in rng.choice.
    with pytest.raises(ValueError, match="crossing edges"):
        generators.planted_cut_graph(n, cut, 4.0, rng)


@pytest.mark.parametrize("n, cut", [(2, 1), (3, 1), (3, 0)])
def test_planted_cut_rejects_a_one_vertex_half(rng, n, cut):
    # Each half draws intra-half pairs, which a one-vertex half does not
    # have: that used to surface as "Sample larger than population".
    with pytest.raises(ValueError, match="two vertices, so n >= 4"):
        generators.planted_cut_graph(n, cut, 4.0, rng)


def test_planted_cut_accepts_every_crossing_edge(rng):
    g = generators.planted_cut_graph(4, 4, 0.0, rng)
    assert {(u, v) for u, v in g.edges if u < 2 <= v} == {
        (0, 2), (0, 3), (1, 2), (1, 3),
    }


@pytest.mark.parametrize(
    "components, extra, message",
    [(0, 5, "at least one component"), (3, -5, "non-negative")],
)
def test_planted_components_rejects_bad_counts(rng, components, extra, message):
    with pytest.raises(ValueError, match=message):
        generators.planted_components_graph(20, components, extra, rng)


def test_planted_components_rejects_more_extra_edges_than_fit(rng):
    # One component on 4 vertices: a 3-edge tree leaves 6 - 3 = 3 pairs.
    assert generators.planted_components_graph(4, 1, 3, rng).m == 6
    with pytest.raises(ValueError, match="cannot plant 4 extra edges.*room for 3"):
        generators.planted_components_graph(4, 1, 4, rng)
    # Singleton components leave no room at all; asking for more used to
    # spin through the whole attempt budget and return short.
    assert generators.planted_components_graph(5, 5, 0, rng).m == 0
    with pytest.raises(ValueError, match="room for 0"):
        generators.planted_components_graph(5, 5, 10**6, rng)


def test_random_bipartite_sides(rng):
    g = generators.random_bipartite_graph(8, 12, 40, rng)
    assert g.n == 20 and g.m == 40
    for u, v in g.edges:
        assert (u < 8) != (v < 8)


def test_weighted_helper_assigns_unique_weights(rng):
    g = generators.weighted(generators.cycle_graph(10), rng)
    assert sorted(e[2] for e in g.edges) == list(range(1, 11))


def test_generators_are_reproducible():
    a = generators.gnm_random_graph(20, 50, random.Random(7))
    b = generators.gnm_random_graph(20, 50, random.Random(7))
    assert a.edges == b.edges


# ----------------------------------------------------------------------
# The five workload-matrix families (see repro.experiments registry)
# ----------------------------------------------------------------------

def test_torus_graph_is_4_regular(rng):
    g = generators.torus_graph(5, 7)
    assert g.n == 35 and g.m == 2 * 35  # every vertex has degree 4
    assert set(g.degrees()) == {4}
    assert is_connected(g)


def test_torus_graph_rejects_thin_dimensions():
    with pytest.raises(ValueError):
        generators.torus_graph(2, 5)
    with pytest.raises(ValueError):
        generators.torus_graph(5, 2)


def test_power_law_graph_has_skewed_degrees(rng):
    g = generators.power_law_graph(300, rng, exponent=2.5, avg_degree=4.0)
    degrees = sorted(g.degrees())
    # Mean degree lands near the requested value...
    assert 2.0 <= g.average_degree <= 6.0
    # ...with a heavy tail: the max dwarfs the median.
    assert degrees[-1] >= 3 * max(1, degrees[len(degrees) // 2])


def test_power_law_graph_validation(rng):
    with pytest.raises(ValueError):
        generators.power_law_graph(20, rng, exponent=2.0)
    with pytest.raises(ValueError):
        generators.power_law_graph(1, rng)


def test_planted_community_graph_connected_and_modular(rng):
    communities = 5
    g = generators.planted_community_graph(100, communities, 0.4, 8, rng)
    assert is_connected(g)
    # Intra-community edges dominate: membership is id * c // n.
    intra = sum(
        1 for u, v in g.edges
        if u * communities // g.n == v * communities // g.n
    )
    assert intra > 2 * (g.m - intra)


def test_planted_community_graph_validation(rng):
    with pytest.raises(ValueError):
        generators.planted_community_graph(10, 6, 0.5, 0, rng)


def test_multi_component_graph_exact_components(rng):
    g = generators.multi_component_graph(90, 4, 4.0, rng)
    assert g.n == 90
    assert connected_components(g).num_components == 4
    # Denser than the tree-based planted_components family.
    assert g.m > g.n


def test_multi_component_graph_validation(rng):
    with pytest.raises(ValueError):
        generators.multi_component_graph(10, 4, 3.0, rng)


def test_near_clique_graph_dense_and_connected(rng):
    n, missing = 20, 12
    g = generators.near_clique_graph(n, missing, rng)
    assert g.m == n * (n - 1) // 2 - missing
    assert is_connected(g)  # guaranteed: missing < n - 1
    assert min(g.degrees()) >= n - 1 - missing


def test_near_clique_graph_validation(rng):
    with pytest.raises(ValueError):
        generators.near_clique_graph(5, 11, rng)
    assert generators.near_clique_graph(5, 0, rng).m == 10
