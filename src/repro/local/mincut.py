"""Sequential minimum cut: Stoer–Wagner.

Stoer–Wagner is exact and handles weighted multigraphs, which is what the
contraction pipelines of Appendix C leave on the large machine.
"""

from __future__ import annotations

from typing import Iterable

from ..graph.union_find import UnionFind

__all__ = ["stoer_wagner", "min_cut_value"]


def _weight_matrix(
    vertices: set[int], edges: Iterable[tuple]
) -> dict[int, dict[int, float]]:
    weights: dict[int, dict[int, float]] = {v: {} for v in vertices}
    for edge in edges:
        u, v = edge[0], edge[1]
        w = edge[2] if len(edge) == 3 else 1
        if u == v:
            continue
        weights[u][v] = weights[u].get(v, 0) + w
        weights[v][u] = weights[v].get(u, 0) + w
    return weights


def stoer_wagner(
    vertices: Iterable[int], edges: Iterable[tuple]
) -> tuple[float, set[int]]:
    """Exact global minimum cut of a connected weighted multigraph.

    Returns ``(value, side)`` where *side* is one shore of an optimal cut.
    Parallel edges are merged by summing weights; unweighted edges count 1.
    """
    vertex_set = set(vertices)
    if len(vertex_set) < 2:
        raise ValueError("min cut needs at least two vertices")
    weights = _weight_matrix(vertex_set, edges)
    merged: dict[int, set[int]] = {v: {v} for v in vertex_set}
    active = set(vertex_set)
    best_value = float("inf")
    best_side: set[int] = set()

    while len(active) > 1:
        # Maximum-adjacency (minimum-cut-phase) ordering.
        start = next(iter(active))
        in_a = {start}
        order = [start]
        connectivity = dict(weights[start])
        while len(in_a) < len(active):
            candidates = [v for v in active if v not in in_a]
            most = max(candidates, key=lambda v: connectivity.get(v, 0))
            in_a.add(most)
            order.append(most)
            for v, w in weights[most].items():
                if v not in in_a:
                    connectivity[v] = connectivity.get(v, 0) + w
        t = order[-1]
        s = order[-2]
        cut_of_phase = sum(weights[t].values())
        if cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = set(merged[t])
        # Merge t into s.
        for v, w in list(weights[t].items()):
            if v == s:
                continue
            weights[s][v] = weights[s].get(v, 0) + w
            weights[v][s] = weights[v].get(s, 0) + w
        for v in list(weights[t]):
            weights[v].pop(t, None)
        weights.pop(t)
        weights[s].pop(t, None)
        merged[s] |= merged[t]
        active.discard(t)

    return best_value, best_side


def min_cut_value(n: int, edges: Iterable[tuple]) -> float:
    """Exact min-cut value of a graph on vertices ``0..n-1``; ``0`` if the
    graph is disconnected."""
    edges = list(edges)
    uf = UnionFind(range(n))
    for edge in edges:
        uf.union(edge[0], edge[1])
    if uf.num_components > 1:
        return 0.0
    value, _ = stoer_wagner(range(n), edges)
    return value
