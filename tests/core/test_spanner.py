"""Section 4 — spanners: modified Baswana–Sen, clustering graphs, and the
combined Theorem 4.1 construction."""

import random

import pytest

from repro.core.spanner import (
    build_clustering_graphs,
    cluster_phase,
    heterogeneous_spanner,
    level_sampling_probability,
    modified_baswana_sen_local,
    modified_baswana_sen_mpc,
)
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.validation import spanner_stretch, verify_spanner
from repro.mpc import Cluster, ModelConfig
from repro.primitives.edgestore import EdgeStore


@pytest.fixture
def rng():
    return random.Random(81)


# ----------------------------------------------------------------------
# cluster_phase (lines 1-15 of Algorithm 2)
# ----------------------------------------------------------------------
def test_cluster_phase_every_vertex_has_removal_level(rng):
    g = generators.random_connected_graph(20, 60, rng)
    adjacency = {}
    for u, v in g.edges:
        adjacency.setdefault(u, []).append((v, (u, v)))
        adjacency.setdefault(v, []).append((u, (u, v)))
    phase = cluster_phase(range(g.n), 3, 20 ** (-1 / 3), [adjacency] * 2, rng)
    assert set(phase.removal_level) == set(range(g.n))
    assert all(1 <= t <= 3 for t in phase.removal_level.values())


def test_cluster_phase_level_zero_is_identity(rng):
    phase = cluster_phase(range(5), 2, 0.5, [{}], rng)
    assert phase.centers[0] == {v: v for v in range(5)}


def test_cluster_phase_last_level_is_empty(rng):
    phase = cluster_phase(range(5), 2, 0.9, [{}], rng)
    assert phase.centers[-1] == {}


def test_cluster_phase_k1_removes_everyone_immediately(rng):
    phase = cluster_phase(range(6), 1, 0.5, [], rng)
    assert all(t == 1 for t in phase.removal_level.values())


# ----------------------------------------------------------------------
# modified Baswana–Sen (Lemma 4.3)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p", [1.0, 0.4])
def test_local_modified_bs_stretch(rng, p):
    g = generators.random_connected_graph(40, 260, rng)
    k = 3
    result = modified_baswana_sen_local(
        g.n, [(e[0], e[1]) for e in g.edges], k, p, rng
    )
    assert verify_spanner(g, result["spanner"], stretch=2 * k - 1)


def test_local_modified_bs_p1_size_comparable_to_classic(rng):
    """At p = 1 the modified algorithm *is* Baswana–Sen (same expected
    size O(k n^{1+1/k}))."""
    n = 60
    g = generators.gnm_random_graph(n, 1200, rng)
    sizes = [
        len(
            modified_baswana_sen_local(
                n, [(e[0], e[1]) for e in g.edges], 2, 1.0, random.Random(s)
            )["spanner"]
        )
        for s in range(4)
    ]
    assert sum(sizes) / len(sizes) <= 8 * 2 * n**1.5


def test_local_modified_bs_overapproximation_grows_as_p_shrinks(rng):
    """Lemma 4.3: expected size O(k n^{1+1/k} / p) — halving p should not
    shrink the spanner, and small p should inflate it."""
    n = 60
    g = generators.gnm_random_graph(n, 1200, rng)

    def average_size(p):
        return sum(
            len(
                modified_baswana_sen_local(
                    n, [(e[0], e[1]) for e in g.edges], 2, p, random.Random(s)
                )["spanner"]
            )
            for s in range(5)
        ) / 5

    full = average_size(1.0)
    sparse = average_size(0.15)
    assert sparse > full


def test_local_modified_bs_breakdown_partitions(rng):
    g = generators.random_connected_graph(30, 150, rng)
    result = modified_baswana_sen_local(
        g.n, [(e[0], e[1]) for e in g.edges], 2, 0.5, rng
    )
    assert result["spanner"] == result["recluster_edges"] | result["removal_edges"]


def test_mpc_modified_bs_matches_interface(rng):
    g = generators.random_connected_graph(40, 220, rng)
    config = ModelConfig.heterogeneous(n=g.n, m=g.m)
    cluster = Cluster(config, rng=random.Random(1))
    records = [(u, v, u, v) for u, v in g.edge_set()]
    store = EdgeStore.create(cluster, records)
    result = modified_baswana_sen_mpc(
        cluster, store, list(range(g.n)), k=2, p=0.5, rng=rng
    )
    spanner = {payload for payload in result["spanner"]}
    assert verify_spanner(g, spanner, stretch=3)
    assert cluster.ledger.rounds > 0


# ----------------------------------------------------------------------
# clustering graphs (Algorithm 5 / Lemma A.1)
# ----------------------------------------------------------------------
def build_clustering(g, seed):
    config = ModelConfig.heterogeneous(n=g.n, m=g.m)
    cluster = Cluster(config, rng=random.Random(seed))
    store = EdgeStore.create(cluster, [(e[0], e[1]) for e in g.edges])
    return cluster, build_clustering_graphs(cluster, store, g.n, random.Random(seed))


def test_clustering_sigma_covers_all_vertices(rng):
    g = generators.random_connected_graph(40, 200, rng)
    _, clustering = build_clustering(g, 2)
    assert set(clustering.sigma) == set(range(g.n))


def test_clustering_star_edges_are_graph_edges(rng):
    g = generators.random_connected_graph(40, 200, rng)
    _, clustering = build_clustering(g, 3)
    assert clustering.star_edges <= g.edge_set()


def test_clustering_stars_have_radius_one(rng):
    """sigma(u) is u itself or an adjacent vertex."""
    g = generators.random_connected_graph(40, 200, rng)
    _, clustering = build_clustering(g, 4)
    adjacency = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for u, center in clustering.sigma.items():
        assert center == u or center in adjacency[u]


def test_clustering_every_edge_covered(rng):
    """Lemma A.1 property 2: every edge is inside a star or induces a
    clustering-graph edge at its degree scale."""
    g = generators.random_connected_graph(40, 200, rng)
    _, clustering = build_clustering(g, 5)
    covered = set(clustering.star_edges)
    represented = set()
    for c1, c2, scale, *original in clustering.store.items():
        represented.add(tuple(sorted(original)))
    for u, v in g.edge_set():
        same_star = clustering.sigma[u] == clustering.sigma[v]
        has_ai_edge = any(
            (min(clustering.sigma[u], clustering.sigma[v]),
             max(clustering.sigma[u], clustering.sigma[v]))
            == (c1, c2)
            for c1, c2, *_ in clustering.store.items()
        )
        assert same_star or has_ai_edge


def test_clustering_edges_deduplicated(rng):
    g = generators.random_connected_graph(40, 240, rng)
    _, clustering = build_clustering(g, 6)
    seen = set()
    for c1, c2, scale, u, v in clustering.store.items():
        key = (scale, c1, c2)
        assert key not in seen
        seen.add(key)


def test_clustering_level_counts_reported(rng):
    g = generators.random_connected_graph(40, 240, rng)
    _, clustering = build_clustering(g, 7)
    assert sum(clustering.level_edge_counts.values()) == len(
        list(clustering.store.items())
    )


# ----------------------------------------------------------------------
# full spanner (Theorem 4.1)
# ----------------------------------------------------------------------
def test_sampling_probability_schedule():
    assert level_sampling_probability(3, 0) == 1.0
    assert level_sampling_probability(2, 3) == 1.0  # small scales: keep all
    assert level_sampling_probability(2, 10) < 1.0  # dense scales: sample


@pytest.mark.parametrize("k", [2, 3])
def test_spanner_stretch_bound(rng, k):
    g = generators.random_connected_graph(45, 350, rng)
    result = heterogeneous_spanner(g, k=k, rng=random.Random(k))
    assert verify_spanner(g, result.edges, stretch=result.stretch_bound)
    assert result.stretch_bound == 6 * k - 1


def test_spanner_compresses_dense_graphs(rng):
    g = generators.gnm_random_graph(60, 1400, rng)
    result = heterogeneous_spanner(g, k=2, rng=random.Random(9))
    assert result.size < g.m / 3
    assert spanner_stretch(g, result.edges) <= result.stretch_bound


def test_spanner_size_scales_with_k(rng):
    """Larger k: sparser spanner (on average)."""
    g = generators.gnm_random_graph(70, 2000, rng)

    def average_size(k):
        return sum(
            heterogeneous_spanner(g, k=k, rng=random.Random(s)).size
            for s in range(3)
        ) / 3

    assert average_size(4) <= average_size(1) + g.n


def test_spanner_k1_preserves_distances(rng):
    g = generators.random_connected_graph(25, 80, rng)
    result = heterogeneous_spanner(g, k=1, rng=random.Random(10))
    assert spanner_stretch(g, result.edges) <= 5.0  # 6k-1 with k=1


def test_weighted_spanner_stretch(rng):
    g = generators.random_connected_graph(30, 140, rng).with_unique_weights(rng)
    result = heterogeneous_spanner(g, k=2, rng=random.Random(11))
    assert result.stretch_bound == 12 * 2 - 2
    assert spanner_stretch(g, result.edges) <= result.stretch_bound


def test_weighted_spanner_edges_carry_weights(rng):
    g = generators.random_connected_graph(20, 60, rng).with_unique_weights(rng)
    result = heterogeneous_spanner(g, k=2, rng=random.Random(12))
    weight_map = g.weight_map()
    for u, v, w in result.edges:
        assert weight_map[(u, v)] == w


def test_weighted_spanner_reports_its_levels():
    """The weighted reduction lists the levels its weight classes ran on
    the large machine and sampled — the input of the ``weighted_spanner``
    round pin: one weight class, level 6 sampled by modified
    Baswana–Sen."""
    rng = random.Random(11)
    base = generators.gnm_random_graph(90, 3000, rng)
    graph = Graph(90, [(u, v, 64 + rng.randrange(64)) for u, v in base.edges])
    result = heterogeneous_spanner(graph, k=2, rng=random.Random(3))
    assert sorted(result.level_sizes) == [6]  # one weight class
    assert result.levels_on_large == [5]
    assert result.levels_sampled == [6]


def test_invalid_k_rejected(rng):
    g = generators.random_connected_graph(10, 20, rng)
    with pytest.raises(ValueError):
        heterogeneous_spanner(g, k=0)


def test_spanner_rounds_constant_in_size(rng):
    """O(1) rounds: the round count must not grow with the graph size."""
    rounds = []
    for n, m in ((30, 150), (60, 600)):
        g = generators.random_connected_graph(n, m, rng)
        result = heterogeneous_spanner(g, k=2, rng=random.Random(n))
        rounds.append(result.rounds)
    assert rounds[1] <= rounds[0] * 2 + 40  # bounded, not scaling with m
