"""Graph substrate: types, generators, traversal, validation."""

from .graph import Graph, canonical_edge
from .union_find import UnionFind
from . import generators, traversal, validation

__all__ = [
    "Graph",
    "canonical_edge",
    "UnionFind",
    "generators",
    "traversal",
    "validation",
]
