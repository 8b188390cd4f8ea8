"""Distributed primitives: the paper's Claims 1-4 plus supporting plumbing.

Each primitive takes its columnar path (:mod:`repro.primitives.columnar`)
when every machine's rows qualify as typed columns, and its object path
otherwise; datasets, rounds and words are the same either way.  These
callers still take an object path, because their keys or values are
callables or tuples that no typed column holds (traced over
``repro bench all --quick``):

* custom ``aggregate`` combines: ``lighter`` in ``baselines/sublinear.py``,
  ``two_smallest`` in ``core/mincut.py``, and in
  ``core/spanner/clustering.py`` the OR of mask tuples, the ``min`` of
  ``(rank, center, edge)`` tuples and the tuple-keyed vertex marks;
* joins whose values are flow labels (the KKT filter in ``core/mst.py``)
  or tuples (statuses in ``core/mis.py``, palettes in
  ``core/coloring.py``, masks, centers and degrees in
  ``core/spanner/clustering.py``): the values ride tuple rows, so the
  join's second sort takes the object path and the join emits flat
  tuple rows ``(*edge, value_u, value_v)`` — the shape its blocks have
  when the values fit one typed column;
* ``dedup_lightest`` with callable keys over the clustering-graph records
  ``(c1, c2, (scale, edge))`` in ``core/spanner/clustering.py``;
* the callable-key sort of the gamma ablation in
  ``experiments/registry.py``.
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
