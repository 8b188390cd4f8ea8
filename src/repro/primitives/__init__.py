"""Distributed primitives: the paper's Claims 1-4 plus supporting plumbing.

Items are flat records; sort and dedup keys are field specs (column
indices).  Claim 4's arrangement, Section 3's query step and the dedup's
keep-first pass run on :class:`~repro.primitives.columnar.EdgeBlock` s
only, reading their input through
:func:`~repro.primitives.columnar.stored_blocks` (records of finite
scalars; a field no int64, float64 or bool column holds rides an
``object`` column).  Two primitives keep an object path, with the same
datasets, rounds and words as their columnar one:

* ``sample_sort``, for rows whose fields are not scalars — the
  sort-join's second sort when the values are flow labels (the KKT
  filter in ``core/mst.py``), ``VertexLabel`` s (modified Baswana–Sen),
  ``None`` defaults or tuples (statuses in ``core/mis.py``, palettes in
  ``core/coloring.py``, trial masks, ``(i_u, mask)`` and ``(sigma,
  degree)`` in ``core/spanner/clustering.py``); the join then emits flat
  tuple rows ``(*edge, value_u, value_v)``, the shape its blocks have
  when the values are scalars;
* ``aggregate``, for custom combines (``two_smallest`` in
  ``core/mincut.py``, the element-wise mask OR in
  ``core/spanner/clustering.py``) and keys or values that are not
  int64-keyed exact scalars (tuple keys, tuple values).
"""

from .aggregate import aggregate, aggregate_counts, count_items
from .arrange import Arrangement, arrange_directed, query_first_records
from .broadcast import broadcast, converge_cast
from .disseminate import disseminate, holders_by_key
from .edgestore import EdgeStore
from .join import annotate_edges_with_vertex_values
from .sort import SortLayout, sample_sort

__all__ = [
    "aggregate",
    "aggregate_counts",
    "count_items",
    "Arrangement",
    "arrange_directed",
    "query_first_records",
    "broadcast",
    "converge_cast",
    "disseminate",
    "holders_by_key",
    "EdgeStore",
    "annotate_edges_with_vertex_values",
    "SortLayout",
    "sample_sort",
]
