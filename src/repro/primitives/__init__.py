"""Distributed primitives: the paper's Claims 1-4 plus supporting plumbing.

Items are flat records, held as
:class:`~repro.primitives.columnar.EdgeBlock` s: a field no int64,
float64 or bool column holds rides an ``object`` column of its values,
whatever they are — ints past int64, mixed scalars, tuples, ``None``,
flow labels.  Sort and dedup keys are field specs (column indices) over
columns of finite scalars, and ``sample_sort`` has one implementation.
Claim 4's arrangement, Section 3's query step and the dedup read their
input through :func:`~repro.primitives.columnar.stored_blocks` (records of
finite scalars); the sort-join emits blocks whatever its values are.
Only ``aggregate`` keeps an object path, with the same datasets, rounds
and words as its columnar one: for custom combines (``two_smallest`` in
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
