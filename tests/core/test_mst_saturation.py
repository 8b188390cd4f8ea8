"""The Borůvka saturation rule ("Substitutions" in docs/THEOREM_MAP.md).

The paper's Algorithm 3 pseudocode contracts along a plain Kruskal pass
over each vertex's quota of lightest submitted edges.  This file contains
the counterexample showing that rule alone is unsound, and checks that our
implementation (with the Lotker et al. saturation rule) handles it.
"""

import random

import pytest

from repro.core.mst import heterogeneous_mst
from repro.graph import Graph
from repro.graph.validation import verify_mst
from repro.local.mst import kruskal_edges
from repro.mpc import ModelConfig


def counterexample_graph() -> Graph:
    """With quota k=2, naive collect-and-Kruskal selects the non-MST edge
    (u, v):

    * u(0) has only two edges: {u,x}=5 and {u,v}=10 — both submitted;
    * x(1) has pendant edges of weight 1, 2 — its submissions hide
      {u,x}=5 and {x,v}=6;
    * v(2) has pendant edges of weight 3, 4 — its submissions hide
      {u,v}=10 and {x,v}=6.

    The collected set {1,2,3,4,5,10} is acyclic, so plain Kruskal adds
    {u,v}=10; but the true MST routes u–v through {x,v}=6 and excludes 10.
    """
    edges = [
        (0, 1, 5),   # u-x
        (0, 2, 10),  # u-v
        (1, 2, 6),   # x-v
        (1, 3, 1),   # x-p1
        (1, 4, 2),   # x-p2
        (2, 5, 3),   # v-q1
        (2, 6, 4),   # v-q2
    ]
    return Graph(7, edges)


def naive_contract(quota: int, graph: Graph) -> set[tuple[int, int, int]]:
    """The unsound rule from the pseudocode, for demonstration."""
    adjacency: dict[int, list[tuple]] = {}
    for u, v, w in graph.edges:
        adjacency.setdefault(u, []).append((w, v))
        adjacency.setdefault(v, []).append((w, u))
    submitted = set()
    for v, incident in adjacency.items():
        for w, other in sorted(incident)[:quota]:
            submitted.add((min(v, other), max(v, other), w))
    return set(kruskal_edges(sorted(submitted)))


def test_naive_rule_selects_a_non_mst_edge():
    """Documents the gap: the pseudocode's rule picks (0,2,10)."""
    graph = counterexample_graph()
    chosen = naive_contract(2, graph)
    assert (0, 2, 10) in chosen  # the wrong edge
    true_mst = set(kruskal_edges(graph.edges))
    assert (0, 2, 10) not in true_mst


def test_saturation_rule_yields_exact_mst_on_counterexample():
    graph = counterexample_graph()
    result = heterogeneous_mst(graph, rng=random.Random(1))
    assert verify_mst(graph, result.edges)
    assert all((u, v) != (0, 2) for u, v, _ in result.edges)


def test_boruvka_step_skips_unsafe_edge_directly():
    """Drive one contraction step with quota 2 on the counterexample: the
    saturation rule must not record the non-MST edge (0, 2, 10)."""
    from repro.core.mst import _boruvka_step
    from repro.graph.union_find import UnionFind
    from repro.mpc import Cluster
    from repro.primitives.edgestore import EdgeStore

    graph = counterexample_graph()
    config = ModelConfig.heterogeneous(n=graph.n, m=graph.m)
    cluster = Cluster(config, rng=random.Random(2))
    records = [(u, v, w, u, v) for u, v, w in graph.edges]
    store = EdgeStore.create(cluster, records)
    mst_edges: list = []
    _boruvka_step(cluster, store, quota=2, contraction=UnionFind(range(graph.n)),
                  mst_edges=mst_edges)
    chosen = {(u, v) for u, v, _ in mst_edges}
    true_mst = {(u, v) for u, v, _ in kruskal_edges(graph.edges)}
    assert chosen <= true_mst  # only cut-property-certified edges recorded
    assert (0, 2) not in chosen


@pytest.mark.parametrize("seed", range(6))
def test_saturation_rule_on_pendant_heavy_graphs(seed):
    """Random graphs biased toward the counterexample pattern (pendant-
    decorated hubs with heavy bridges) at density that forces at least one
    real Borůvka step."""
    rng = random.Random(seed)
    edges = []
    weight = 1
    hubs = list(range(8))
    next_vertex = 8
    for hub in hubs:
        for _ in range(2):
            edges.append((hub, next_vertex, weight))
            weight += 1
            next_vertex += 1
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    hub_pairs = [(a, b) for a in hubs for b in hubs if a < b]
    rng.shuffle(hub_pairs)
    for a, b in hub_pairs:
        edges.append((a, b, weight + rng.randrange(40)))
        weight += 50
        seen.add((a, b))
    # extra random edges to push density past the Borůvka trigger
    while len(edges) < 3 * next_vertex:
        a, b = rng.randrange(next_vertex), rng.randrange(next_vertex)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], weight + rng.randrange(40)))
        weight += 50
    graph = Graph(next_vertex, edges)
    result = heterogeneous_mst(graph, rng=random.Random(seed + 10))
    assert result.boruvka_steps >= 1
    assert verify_mst(graph, result.edges)
