"""The flow labeling scheme of Katz, Katz, Korman and Peleg [42].

Section 3 of the paper uses a labeling scheme for forests: a *marker*
algorithm assigns each vertex a label of ``O(log^2 n)`` bits, and a
*decoder* computes, from the labels of ``u`` and ``v`` alone, the weight of
the heaviest edge on the forest path between them.  A small machine can
then test whether an edge it stores is F-light (``w({u,v}) <=
heaviest-on-path``) without seeing the forest.

We realize the scheme through centroid decomposition, the textbook
construction achieving the KKKP bounds:

* every vertex's label stores, for each ancestor centroid ``c`` of its
  component chain (at most ``ceil(log2 n) + 1`` of them), the pair
  ``(centroid id, max edge weight on the forest path to c)``;
* the ancestor chains of two vertices in the same tree share a non-empty
  prefix, and the *deepest shared centroid* lies on the path between them,
  so the heaviest edge weight is the max of the two stored values there;
* vertices in different trees share no prefix, and the decoder reports
  ``+inf`` — any edge joining two trees of F is F-light by definition.

Labels cost ``2 * (#entries) + 1`` words, i.e. ``O(log n)`` words =
``O(log^2 n)`` bits, exactly the budget the paper allots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["FlowLabel", "build_flow_labels", "decode_heaviest"]


@dataclass(frozen=True)
class FlowLabel:
    """A vertex label: ``entries[d] = (centroid id, max weight to it)``
    ordered from the root of the centroid decomposition downward."""

    entries: tuple[tuple[int, float], ...]

    def word_size(self) -> int:
        return 1 + 2 * len(self.entries)


def build_flow_labels(
    vertices: Iterable[int],
    forest_edges: Sequence[tuple[int, int, float]],
) -> dict[int, FlowLabel]:
    """The marker algorithm ``M_flow``: label every vertex of the forest.

    Args:
        vertices: all vertices that need labels (isolated ones included).
        forest_edges: ``(u, v, w)`` edges forming a forest (not validated
            for acyclicity here; the caller passes an MSF).
    """
    vertex_list = list(vertices)
    adjacency: dict[int, list[tuple[int, float]]] = {v: [] for v in vertex_list}
    for u, v, w in forest_edges:
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    chains: dict[int, list[tuple[int, float]]] = {v: [] for v in vertex_list}
    removed: set[int] = set()

    def component_of(start: int) -> list[int]:
        seen = {start}
        stack = [start]
        order = []
        while stack:
            x = stack.pop()
            order.append(x)
            for y, _ in adjacency[x]:
                if y not in removed and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return order

    def centroid_of(component: list[int]) -> int:
        component_set = set(component)
        size = {x: 1 for x in component}
        parent: dict[int, int | None] = {}
        # Iterative post-order to accumulate subtree sizes.
        root = component[0]
        parent[root] = None
        order: list[int] = []
        stack = [root]
        seen = {root}
        while stack:
            x = stack.pop()
            order.append(x)
            for y, _ in adjacency[x]:
                if y in component_set and y not in removed and y not in seen:
                    seen.add(y)
                    parent[y] = x
                    stack.append(y)
        for x in reversed(order):
            if parent[x] is not None:
                size[parent[x]] += size[x]
        total = len(component)
        for x in order:
            heaviest_part = total - size[x]
            for y, _ in adjacency[x]:
                if y in component_set and y not in removed and parent.get(y) == x:
                    heaviest_part = max(heaviest_part, size[y])
            if heaviest_part <= total // 2:
                return x
        return root  # unreachable for a valid tree

    def max_weights_from(centroid: int, component_set: set[int]) -> dict[int, float]:
        best = {centroid: -math.inf}
        stack = [centroid]
        while stack:
            x = stack.pop()
            for y, w in adjacency[x]:
                if y in component_set and y not in removed and y not in best:
                    best[y] = max(best[x], w)
                    stack.append(y)
        return best

    pending: list[list[int]] = []
    visited: set[int] = set()
    for v in vertex_list:
        if v not in visited:
            component = component_of(v)
            visited.update(component)
            pending.append(component)

    while pending:
        component = pending.pop()
        centroid = centroid_of(component)
        component_set = set(component)
        reach = max_weights_from(centroid, component_set)
        for x in component:
            chains[x].append((centroid, reach[x]))
        removed.add(centroid)
        leftovers: set[int] = set()
        for x in component:
            if x != centroid and x not in leftovers:
                sub = component_of(x)
                leftovers.update(sub)
                pending.append(sub)

    return {v: FlowLabel(tuple(chains[v])) for v in vertex_list}


def decode_heaviest(label_u: FlowLabel, label_v: FlowLabel) -> float:
    """The decoder ``D_flow``: the heaviest edge weight on the forest path
    between the two labeled vertices; ``+inf`` if they lie in different
    trees (adding an edge between trees never closes a cycle, so callers
    treating the result as an F-light threshold get the right answer);
    ``-inf`` when both labels belong to the same vertex."""
    last: int | None = None
    for index in range(min(len(label_u.entries), len(label_v.entries))):
        if label_u.entries[index][0] != label_v.entries[index][0]:
            break
        last = index
    if last is None:
        return math.inf
    return max(label_u.entries[last][1], label_v.entries[last][1])
