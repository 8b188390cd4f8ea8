"""Linear sketching substrate: k-wise hashing, one-sparse recovery,
ℓ₀-samplers, and AGM graph sketches.

:class:`SketchBank` is the one storage path: all ``(phase, copy,
level)`` one-sparse counters of a vertex set in one ``(rows, slots)``
numpy array per counter, bulk edge updates that hash every edge under
every sampler in one pass and scatter both endpoints' signed
contributions exactly, vector-add merges, and Borůvka in sketch space
over the sum of one or more banks (:func:`bank_boruvka`).  :class:`SparseRowBlock` rows — ``(row, slot,
s0, s1, s2)`` coordinates, charged as the dense rows — carry rows
between machines and sum with one sort (:func:`build_sparse_blocks`,
:func:`combine_sparse_blocks`).  :class:`GraphSketchSpec` holds the
shared seed packages (:class:`L0SamplerSeeds`), and the array kernels
(exact ``GF(2^61 - 1)`` multiply, Horner hashing, power tables) live in
:mod:`repro.sketches.field`.

Equivalence policy: with fixed seeds, the bank's counters, samples and
component labels are bit-identical to the seed per-object
implementation; golden hashes, a frozen transplant of the seed update
math, and a pure-Python list oracle kept with the tests pin this.
"""

from .bank import (
    INT64_MAX,
    SketchBank,
    SketchRow,
    SparseRowBlock,
    bank_boruvka,
    build_sparse_blocks,
    combine_sparse_blocks,
)
from .field import PRIME, KWiseHash, trailing_zeros
from .graph_sketch import GraphSketchSpec, edge_from_id, edge_id
from .l0 import L0SamplerSeeds

__all__ = [
    "INT64_MAX",
    "PRIME",
    "KWiseHash",
    "trailing_zeros",
    "L0SamplerSeeds",
    "GraphSketchSpec",
    "SketchBank",
    "SketchRow",
    "SparseRowBlock",
    "bank_boruvka",
    "build_sparse_blocks",
    "combine_sparse_blocks",
    "edge_from_id",
    "edge_id",
]
