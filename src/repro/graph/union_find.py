"""Disjoint-set union with path compression and union by size.

Used everywhere contraction happens: Kruskal, Borůvka steps on the large
machine, 2-out contraction for min-cut, and the connectivity validators.
"""

from __future__ import annotations

from typing import Hashable, Iterable

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint-set union over arbitrary hashable elements.

    Elements are created lazily on first use; ``UnionFind(range(n))``
    pre-creates integer singletons.
    """

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        self._components = 0
        for element in elements:
            self.add(element)

    def add(self, element: Hashable) -> None:
        if element not in self._parent:
            self._parent[element] = element
            self._size[element] = 1
            self._components += 1

    def find(self, element: Hashable) -> Hashable:
        self.add(element)
        root = element
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[element] != root:
            self._parent[element], element = root, self._parent[element]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the components of *a* and *b*; return True if they were
        previously distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._components -= 1
        return True

    @property
    def num_components(self) -> int:
        return self._components

    def labels(self, elements: Iterable[Hashable]) -> list[Hashable]:
        """The smallest member of each element's component, in order: a
        canonical component label (missing elements are added)."""
        roots = [self.find(element) for element in elements]
        smallest = {root: min(members) for root, members in self.groups().items()}
        return [smallest[root] for root in roots]

    def groups(self) -> dict[Hashable, list[Hashable]]:
        """Map each root to the list of elements in its component."""
        result: dict[Hashable, list[Hashable]] = {}
        for element in list(self._parent):
            result.setdefault(self.find(element), []).append(element)
        return result

    def __len__(self) -> int:
        return len(self._parent)
