"""Sequential list coloring (the large machine's step of Theorem C.7)."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["list_coloring"]


def list_coloring(
    vertices: Sequence[int],
    edges: Iterable[tuple],
    palettes: Mapping[int, Sequence[int]],
) -> dict[int, int] | None:
    """Proper coloring where each vertex must use a color from its palette.

    Greedy over vertices in decreasing conflict-degree order, which succeeds
    with high probability for the random ``Theta(log n)`` palettes of
    Assadi–Chen–Khanna (the caller retries with fresh palettes on failure).
    Returns ``None`` if the greedy pass gets stuck.
    """
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for edge in edges:
        if edge[0] in adjacency and edge[1] in adjacency:
            adjacency[edge[0]].append(edge[1])
            adjacency[edge[1]].append(edge[0])
    order = sorted(vertices, key=lambda v: -len(adjacency[v]))
    assignment: dict[int, int] = {}
    for v in order:
        taken = {assignment[u] for u in adjacency[v] if u in assignment}
        choice = next((c for c in palettes[v] if c not in taken), None)
        if choice is None:
            return None
        assignment[v] = choice
    return assignment
