"""Linear sketching substrate: k-wise hashing, one-sparse recovery,
ℓ₀-samplers, and AGM graph sketches.

Two layers coexist:

* the **object API** (:class:`OneSparseSketch`, :class:`L0Sampler`,
  :class:`VertexSketch`) — one small object per counter group, convenient
  for unit-scale use; its methods behave exactly as the seed did
  (``VertexSketch.samplers`` is now a read-only snapshot);
* the **bank API** (:class:`SketchBank`, :class:`SketchRow`,
  :class:`SparseRowBlock`, :func:`bank_boruvka`,
  :func:`build_sparse_blocks`, :func:`combine_sparse_blocks`) — the one
  storage path: all ``(phase, copy, level)`` one-sparse counters of a
  vertex set in one ``(rows, slots)`` numpy array per counter, bulk edge
  updates that hash every edge under every sampler in one pass and
  scatter both endpoints' signed contributions exactly, vector-add
  merges, and sparse row blocks — rows as ``(row, slot, s0, s1, s2)``
  coordinates, charged as the dense rows — that carry rows between
  machines and sum with one sort.  The array kernels
  (exact ``GF(2^61 - 1)`` multiply, Horner hashing, power tables) live in
  :mod:`repro.sketches.field`.

Equivalence policy: with fixed seeds, both layers produce bit-identical
counters, samples, and component labels, equal to the seed per-object
implementation; this is pinned by golden and property tests against a
pure-Python oracle kept with the tests.
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
from .field import PRIME, KWiseHash, fingerprint_power, trailing_zeros
from .graph_sketch import (
    GraphSketchSpec,
    VertexSketch,
    components_from_sketches,
    edge_from_id,
    edge_id,
    sketch_boruvka,
)
from .l0 import L0Sampler, L0SamplerSeeds
from .onesparse import OneSparseSketch

__all__ = [
    "INT64_MAX",
    "PRIME",
    "KWiseHash",
    "fingerprint_power",
    "trailing_zeros",
    "OneSparseSketch",
    "L0Sampler",
    "L0SamplerSeeds",
    "GraphSketchSpec",
    "VertexSketch",
    "SketchBank",
    "SketchRow",
    "SparseRowBlock",
    "bank_boruvka",
    "build_sparse_blocks",
    "combine_sparse_blocks",
    "components_from_sketches",
    "edge_from_id",
    "edge_id",
    "sketch_boruvka",
]
