"""Sequential graph traversal: BFS, Dijkstra, connected components.

These are reference implementations used (a) by the large machine for its
free local computation, and (b) by the validators to check distributed
outputs against ground truth.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

from .graph import Graph
from .union_find import UnionFind

__all__ = [
    "bfs_distances",
    "dijkstra",
    "single_source_distances",
    "all_pairs_distances",
    "connected_components",
    "component_labels",
    "is_connected",
    "graph_diameter",
]

INF = math.inf


def bfs_distances(graph: Graph, source: int) -> list[float]:
    """Unweighted distances from *source* (``inf`` for unreachable)."""
    dist: list[float] = [INF] * graph.n
    dist[source] = 0
    queue = deque([source])
    adjacency = graph.adjacency()
    while queue:
        u = queue.popleft()
        for v, _ in adjacency[u]:
            if dist[v] is INF:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def dijkstra(graph: Graph, source: int) -> list[float]:
    """Weighted distances from *source* (``inf`` for unreachable)."""
    dist: list[float] = [INF] * graph.n
    dist[source] = 0
    heap: list[tuple[float, int]] = [(0, source)]
    adjacency = graph.adjacency()
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            candidate = d + w
            if candidate < dist[v]:
                dist[v] = candidate
                heapq.heappush(heap, (candidate, v))
    return dist


def single_source_distances(graph: Graph, source: int) -> list[float]:
    """BFS for unweighted graphs, Dijkstra for weighted ones."""
    return dijkstra(graph, source) if graph.weighted else bfs_distances(graph, source)


def all_pairs_distances(graph: Graph) -> list[list[float]]:
    """Exact APSP by repeated single-source search (for validation only)."""
    return [single_source_distances(graph, s) for s in range(graph.n)]


def connected_components(graph: Graph) -> UnionFind:
    uf = UnionFind(range(graph.n))
    for edge in graph.edges:
        uf.union(edge[0], edge[1])
    return uf


def component_labels(graph: Graph) -> list[int]:
    """A canonical component label (smallest member) for each vertex."""
    return connected_components(graph).labels(range(graph.n))


def is_connected(graph: Graph) -> bool:
    return connected_components(graph).num_components == 1


def graph_diameter(graph: Graph) -> float:
    """Unweighted diameter (``inf`` if disconnected); validation helper."""
    best = 0.0
    for source in range(graph.n):
        dist = bfs_distances(graph, source)
        extreme = max(dist)
        if extreme is INF:
            return INF
        best = max(best, extreme)
    return best
