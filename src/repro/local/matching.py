"""Sequential matching routines used by the large machine."""

from __future__ import annotations

from typing import Iterable

__all__ = ["greedy_maximal_matching"]


def greedy_maximal_matching(
    edges: Iterable[tuple], matched: set[int] | None = None
) -> list[tuple[int, int]]:
    """Greedy maximal matching over an edge list, skipping endpoints already
    in *matched* (which is updated in place when provided)."""
    used = matched if matched is not None else set()
    result: list[tuple[int, int]] = []
    for edge in edges:
        u, v = edge[0], edge[1]
        if u not in used and v not in used:
            used.update((u, v))
            result.append((min(u, v), max(u, v)))
    return result
