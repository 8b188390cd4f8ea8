"""Distributed primitives: the paper's Claims 1-4 plus supporting plumbing.

Items are flat records, held as
:class:`~repro.primitives.columnar.EdgeBlock` s: a field no int64,
float64 or bool column holds rides an ``object`` column of its values,
whatever they are — ints past int64, mixed scalars, tuples, ``None``,
flow labels.  Sort and dedup keys are field specs (column indices) over
columns of finite scalars, and ``sample_sort`` has one implementation.
The sort, the sort-join, Claim 4's arrangement, Section 3's query step
and the dedup keep their datasets as sharded datasets of the cluster
(:meth:`repro.mpc.cluster.Cluster.store`) and read them through
:func:`~repro.primitives.columnar.sharded` (the arrangement, the query
step and the dedup: records of finite scalars); the sort-join emits
blocks whatever its values are.
``aggregate`` has one implementation too: a named reducer over typed key
and value columns (a key or value is a finite int, float or bool, or a
flat tuple of them); input those columns cannot hold exactly is refused
before any round.  The one aggregation with a ragged payload, the
min-cut 2-out step, runs its own combine on a list converge-cast.
"""

from .aggregate import aggregate, count_items
from .arrange import Arrangement, arrange_directed, query_first_records
from .broadcast import broadcast, converge_cast
from .disseminate import disseminate, holders_by_key
from .edgestore import EdgeStore
from .join import annotate_edges_with_vertex_values
from .sort import SortLayout, sample_sort

__all__ = [
    "aggregate",
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
