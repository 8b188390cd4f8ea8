"""Sequential MST machinery: Kruskal and F-light edges.

The large machine performs unbounded local computation between rounds; in
practice our heterogeneous algorithms have it run Kruskal on ``O~(n)``-edge
graphs.  The brute-force F-light test is the ground truth against which the
flow-labeling scheme (``repro.labeling``) is validated.

Weight comparisons use the key ``(w, u, v)`` so the code also behaves
deterministically if a caller feeds non-unique weights, even though the
library's generators always produce unique ones.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from ..graph.graph import Graph
from ..graph.union_find import UnionFind

__all__ = [
    "kruskal",
    "kruskal_edges",
    "heaviest_weight_on_path",
    "is_f_light",
    "f_light_edges",
]


def _weight_key(edge: tuple) -> tuple:
    return (edge[2], edge[0], edge[1])


def kruskal_edges(edges: Iterable[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Minimum spanning forest of the (multi)graph given as an edge list."""
    forest: list[tuple[int, int, int]] = []
    uf = UnionFind()
    for edge in sorted(edges, key=_weight_key):
        if uf.union(edge[0], edge[1]):
            forest.append(edge)
    return forest


def kruskal(graph: Graph) -> list[tuple[int, int, int]]:
    """Minimum spanning forest of a weighted :class:`Graph`."""
    if not graph.weighted:
        raise ValueError("kruskal needs a weighted graph")
    return kruskal_edges(graph.edges)


def heaviest_weight_on_path(
    n: int, forest_edges: Sequence[tuple[int, int, int]], u: int, v: int
) -> float:
    """Max edge weight on the forest path between *u* and *v*.

    Returns ``-inf`` if ``u == v`` and ``+inf`` if they lie in different
    trees (any edge joining different trees is F-light by definition).
    """
    if u == v:
        return -math.inf
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for a, b, w in forest_edges:
        adjacency.setdefault(a, []).append((b, w))
        adjacency.setdefault(b, []).append((a, w))
    best: dict[int, float] = {u: -math.inf}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            return best[x]
        for y, w in adjacency.get(x, ()):
            if y not in best:
                best[y] = max(best[x], w)
                queue.append(y)
    return math.inf


def is_f_light(
    n: int,
    forest_edges: Sequence[tuple[int, int, int]],
    edge: tuple[int, int, int],
) -> bool:
    """Ground-truth F-light test (Section 3): an edge is F-*heavy* iff
    adding it to F closes a cycle on which it is the heaviest edge."""
    u, v, w = edge
    return w <= heaviest_weight_on_path(n, forest_edges, u, v)


def f_light_edges(
    n: int,
    forest_edges: Sequence[tuple[int, int, int]],
    edges: Iterable[tuple[int, int, int]],
) -> list[tuple[int, int, int]]:
    """All F-light edges among *edges* (brute force; for validation)."""
    return [e for e in edges if is_f_light(n, forest_edges, e)]
