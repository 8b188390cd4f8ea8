"""Graph types shared by the whole library.

Vertices are integers ``0..n-1``.  Undirected edges are canonical tuples
``(u, v)`` with ``u < v``; weighted edges are ``(u, v, w)``.  Following the
paper's conventions (Section 2), weights are positive integers bounded by a
polynomial in ``n`` and are assumed unique — which makes the minimum
spanning tree unique and lets validators compare edge sets exactly.
"""

from __future__ import annotations

import random
from typing import Iterable

__all__ = ["Graph", "canonical_edge"]


def canonical_edge(u: int, v: int, w: int | None = None):
    """Return the canonical (sorted-endpoint) form of an edge."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if u > v:
        u, v = v, u
    return (u, v) if w is None else (u, v, w)


class Graph:
    """A simple undirected graph, optionally weighted.

    Args:
        n: number of vertices.
        edges: iterable of ``(u, v)`` or ``(u, v, w)`` tuples; endpoints are
            canonicalized, duplicates are rejected.
        weighted: force the weighted flag; inferred from the first edge when
            omitted.  A weighted graph with no edges needs ``weighted=True``.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple] = (),
        weighted: bool | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        edge_list = []
        seen: set[tuple[int, int]] = set()
        inferred: bool | None = weighted
        for edge in edges:
            if inferred is None:
                inferred = len(edge) == 3
            if len(edge) != (3 if inferred else 2):
                raise ValueError(f"mixed weighted/unweighted edges: {edge}")
            canon = canonical_edge(*edge)
            u, v = canon[0], canon[1]
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {edge} out of range for n={n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
            edge_list.append(canon)
        self.edges: list[tuple] = edge_list
        self.weighted = bool(inferred)
        self._adj: list[list[tuple[int, int]]] | None = None

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Adjacency lists of ``(neighbor, weight)`` pairs (weight 1 when
        unweighted).  Built lazily and cached."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
            for edge in self.edges:
                u, v = edge[0], edge[1]
                w = edge[2] if self.weighted else 1
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = adj
        return self._adj

    def degrees(self) -> list[int]:
        degree = [0] * self.n
        for edge in self.edges:
            degree[edge[0]] += 1
            degree[edge[1]] += 1
        return degree

    @property
    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    @property
    def average_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def edge_set(self) -> set[tuple[int, int]]:
        """The set of (unweighted) endpoint pairs."""
        return {(e[0], e[1]) for e in self.edges}

    def weight_map(self) -> dict[tuple[int, int], int]:
        if not self.weighted:
            raise ValueError("graph is unweighted")
        return {(e[0], e[1]): e[2] for e in self.edges}

    def total_weight(self) -> int:
        if not self.weighted:
            return self.m
        return sum(e[2] for e in self.edges)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def unweighted(self) -> "Graph":
        """Strip weights (used by the spanner's weighted->unweighted
        reduction)."""
        return Graph(self.n, [(e[0], e[1]) for e in self.edges], weighted=False)

    def with_unique_weights(self, rng: random.Random) -> "Graph":
        """Attach a random permutation of ``1..m`` as edge weights."""
        weights = list(range(1, self.m + 1))
        rng.shuffle(weights)
        return Graph(
            self.n,
            [(e[0], e[1], w) for e, w in zip(self.edges, weights)],
            weighted=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "weighted" if self.weighted else "unweighted"
        return f"Graph(n={self.n}, m={self.m}, {kind})"
