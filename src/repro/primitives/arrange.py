"""Claim 4 — arranging the edges of a directed graph on the machines, and
Section 3's query step on the arrangement.

After ``arrange_directed``:

1. each vertex's outgoing edges sit on consecutive small machines, sorted;
2. the large machine knows, for every vertex, its out-degree, the first
   machine holding its edges (``M_first``), and the full machine range —
   this is exactly the information the MST algorithm's query step and the
   dissemination trees of Claim 3 need.

Directed copies have one shape: the flat row ``(src, dst, *edge)``.
:func:`directed_rows` builds them (the sort-join of
:mod:`repro.primitives.join` takes the same copies without ``dst``) as
cluster-wide columns: edge records are flat rows of finite scalars,
read through :func:`~repro.primitives.columnar.sharded`, the copies are
stored as one sharded dataset, and the sort is keyed by a field spec.  A flat row has the leaves of the nested ``(src, dst,
edge)`` record and orders the same way, so it charges the same words.

:func:`query_first_records` is Section 3's ``k(v, M)`` query step: the
large machine asks every machine for its share of each vertex's first
records, and the machines answer in one gather.  It reads the arranged
rows as blocks too, so both steps are passes over cluster-wide columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..mpc.cluster import Cluster
from . import columnar
from .aggregate import aggregate
from .columnar import EdgeBlock
from .sort import SortLayout, sample_sort

__all__ = ["Arrangement", "arrange_directed", "directed_rows", "query_first_records"]


def directed_rows(
    cluster: Cluster, edges_name: str, with_dst: bool = True
) -> tuple[int, list[Any], Any]:
    """Both orientations of every small machine's edges, as flat rows.

    Edge ``i = (u, v, ...)`` becomes row ``2i = (u, v, *edge_i)`` and row
    ``2i + 1 = (v, u, *edge_i)``; without *with_dst* the second field is
    left out.  The rows are built in one pass over the edges' cluster-wide
    columns (:func:`~repro.primitives.columnar.sharded`, which stores
    edges held as tuples back as a sharded dataset).  Returns ``(edge
    width, the rows' columns in machine order, each machine's row
    count)``; no edges give ``(0, [], counts)``.  Raises
    :class:`TypeError`, naming the dataset, for edge records that are
    not flat rows of scalars with two endpoint fields.
    """
    edges, counts = columnar.sharded(cluster, edges_name, scalars=True)
    if edges and len(edges) < 2:
        raise TypeError(f"dataset {edges_name!r} holds records without two endpoints")
    return len(edges), _copy_columns(edges, with_dst) if edges else [], 2 * counts


def _copy_columns(columns: list[Any], with_dst: bool) -> list[Any]:
    """:func:`directed_rows` on columns: both orientations interleaved,
    the edge columns repeated alongside.  Endpoint columns of two dtypes
    interleave as ``object`` columns, so no endpoint changes type."""
    u, v = columns[0], columns[1]
    if u.dtype != v.dtype:
        u, v = u.astype(object), v.astype(object)
    ends = [np.column_stack([u, v]).ravel()]
    if with_dst:
        ends.append(np.column_stack([v, u]).ravel())
    return [*ends, *(np.repeat(col, 2) for col in columns)]


@dataclass
class Arrangement:
    """The outcome of Claim 4 (see module docstring)."""

    name: str
    layout: SortLayout
    out_degrees: dict[int, int]
    holders: dict[int, list[int]]


def arrange_directed(
    cluster: Cluster,
    edges_name: str,
    directed_name: str,
    secondary_key: int | tuple[int, ...] | None = None,
    note: str = "arrange",
) -> Arrangement:
    """Arrange directed copies of the edges stored under *edges_name*.

    Dataset *directed_name* receives the flat rows ``(src, dst, *edge)``,
    sorted by ``(src, edge[secondary_key], dst)``.  *secondary_key* is a
    field spec over the edge's columns — an index or a tuple of indices —
    and defaults to the whole edge (the MST algorithm passes the weight,
    so each vertex's out-edges are weight-sorted as Section 3 requires).
    """
    fields = None
    if secondary_key is not None:
        fields = columnar.key_fields(secondary_key, "secondary_key")
    width, rows, counts = directed_rows(cluster, edges_name)
    if fields is not None and width and not all(0 <= f < width for f in fields):
        raise ValueError(
            f"secondary_key {secondary_key!r} names a column outside the "
            f"{width} edge columns"
        )
    cluster.store(directed_name, EdgeBlock(rows), counts)
    edge_fields = fields if fields is not None else range(width)
    layout = sample_sort(
        cluster,
        directed_name,
        key=(0, *(2 + f for f in edge_fields), 1),
        note=f"{note}/sort",
    )

    # Every arranged row's source and machine; each machine's sources
    # ascend, so its runs of one source list the vertices it holds.
    columns, counts = columnar.sharded(cluster, directed_name, scalars=True)
    sources = columns[0] if columns else np.empty(0, dtype=np.int64)
    machine = np.repeat(np.array(cluster.small_ids, dtype=np.int64), counts)
    out_degrees = aggregate(
        cluster,
        EdgeBlock([machine, sources, np.ones(len(sources), dtype=np.int64)]),
        "sum",
        note=f"{note}/degrees",
    )
    holders: dict[int, list[int]] = {}
    heads = np.flatnonzero(columnar.first_of_runs([machine, sources]))
    for mid, vertex in zip(machine[heads].tolist(), sources[heads].tolist()):
        holders.setdefault(vertex, []).append(mid)

    # Claim 4, property 2: the large machine informs each M_first(v).  (One
    # scatter round; in the sublinear configuration machine 0 plays large.)
    src = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]
    notifications: dict[int, list[Any]] = {}
    for vertex, machines in holders.items():
        notifications.setdefault(machines[0], []).append(
            (vertex, out_degrees.get(vertex, 0))
        )
    cluster.scatter(src, notifications, note=f"{note}/notify-first")

    return Arrangement(
        name=directed_name,
        layout=layout,
        out_degrees=out_degrees,
        holders=holders,
    )


def query_first_records(
    cluster: Cluster,
    arrangement: Arrangement,
    quotas: dict[int, int],
    fields: tuple[int, ...],
    notes: tuple[str, str],
) -> list[tuple]:
    """Section 3's query step: gather each vertex's first arranged rows.

    The large machine knows the sorted layout and every out-degree
    (Claim 4), so it sends every small machine the queries ``(v, k(v,
    M))``: how many of vertex ``v``'s first ``quotas[v]`` rows that
    machine holds.  Each machine answers with ``(v, *row[fields])`` for
    those rows, in row order.  Vertices missing from *quotas* ask for
    nothing.  *notes* name the query and the answer round.  The arranged
    dataset is dropped; returns the answers the large machine received.

    The queries and answers come from one pass over all machines'
    columns.
    """
    machine_ids = cluster.small_ids
    columns, counts = columnar.sharded(cluster, arrangement.name, scalars=True)
    if columns:
        queries, answers = _first_records_columns(
            machine_ids, columns, counts, quotas, fields
        )
    else:
        queries, answers = {}, {mid: [] for mid in machine_ids}
    large = cluster.large.machine_id
    cluster.scatter(large, queries, note=notes[0])
    cluster.pop(arrangement.name)
    return cluster.gather(large, answers, note=notes[1])


def _first_records_columns(
    machine_ids: list[int],
    columns: list[Any],
    counts: list[int],
    quotas: dict[int, int],
    fields: tuple[int, ...],
) -> tuple[dict[int, list], dict[int, list]]:
    """The queries and answers of :func:`query_first_records` from
    cluster-wide columns: a stable argsort of the sources ranks every row
    within its vertex, in machine and row order, and a row is among the
    first when its rank is below its vertex's quota.  Each machine's rows
    of one vertex are one run (Claim 4 sorts them by source), so a
    machine's queries are its runs of first rows."""
    sources = columns[0]
    order = np.argsort(sources, kind="stable")
    ranked = sources[order]
    starts = np.flatnonzero(columnar.first_of_runs([ranked]))
    sizes = np.diff(np.append(starts, len(ranked)))
    quota = np.array(
        [quotas.get(v, 0) for v in ranked[starts].tolist()], dtype=np.int64
    )
    first = np.empty(len(sources), dtype=bool)
    first[order] = (
        np.arange(len(sources)) - np.repeat(starts, sizes) < np.repeat(quota, sizes)
    )
    picked = np.flatnonzero(first)
    machine = np.repeat(np.arange(len(counts)), counts)[picked]
    src = sources[picked]

    heads = np.flatnonzero(columnar.first_of_runs([machine, src]))
    tally = np.diff(np.append(heads, len(picked)))
    queries: dict[int, list[tuple[int, int]]] = {}
    for index, vertex, count in zip(
        machine[heads].tolist(), src[heads].tolist(), tally.tolist()
    ):
        queries.setdefault(machine_ids[index], []).append((vertex, count))

    rows = list(zip(src.tolist(), *(columns[f][picked].tolist() for f in fields)))
    bounds = np.cumsum(np.bincount(machine, minlength=len(counts))).tolist()
    answers = {
        mid: rows[lo:hi] for mid, lo, hi in zip(machine_ids, [0, *bounds], bounds)
    }
    return queries, answers
