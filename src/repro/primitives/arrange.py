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
one :class:`~repro.primitives.columnar.EdgeBlock` per machine when every
machine's edges qualify as typed columns, and as tuples otherwise; the
sort is keyed by a field spec either way, so
:func:`~repro.primitives.sort.sample_sort` picks its path from the rows
alone.  A flat row has the leaves of the nested ``(src, dst, edge)``
record and orders the same way, so it charges the same words.

:func:`query_first_records` is Section 3's ``k(v, M)`` query step: the
large machine asks every machine for its share of each vertex's first
records, and the machines answer in one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..mpc.cluster import Cluster
from . import columnar
from .aggregate import aggregate_counts
from .columnar import EdgeBlock
from .sort import SortLayout, sample_sort

__all__ = ["Arrangement", "arrange_directed", "directed_rows", "query_first_records"]


def directed_rows(
    cluster: Cluster, edges_name: str, with_dst: bool = True
) -> tuple[int, dict[int, Any]]:
    """Both orientations of every small machine's edges, as flat rows.

    Edge ``i = (u, v, ...)`` becomes row ``2i = (u, v, *edge_i)`` and row
    ``2i + 1 = (v, u, *edge_i)``; without *with_dst* the second field is
    left out.  The rows are an :class:`EdgeBlock` per machine when every
    machine's edges are blocks of one shape with int endpoints, and tuples
    otherwise.  Returns ``(edge width, rows by machine id)``; nothing is
    mutated.
    """
    datasets = [(m.machine_id, m.get(edges_name, [])) for m in cluster.smalls]
    blocks = columnar.uniform_blocks(datasets)
    if blocks:
        columns = next(iter(blocks.values())).columns
        if (
            len(columns) >= 2
            and columns[0].dtype.kind == "i"
            and columns[1].dtype == columns[0].dtype
        ):
            # One pass over all machines' edges; each machine keeps a
            # slice of the copies.
            edges, counts = columnar.concat_columns(
                blocks.get(mid, []) for mid, _ in datasets
            )
            copies = columnar.split_columns(
                _copy_columns(edges, with_dst), [2 * count for count in counts]
            )
            return len(columns), {mid: rows for (mid, _), rows in zip(datasets, copies)}
    widths: set[int] = set()
    rows: dict[int, Any] = {}
    for mid, edges in datasets:
        widths.update(map(len, edges))
        if with_dst:
            rows[mid] = [
                copy
                for e in edges
                for copy in ((e[0], e[1], *e), (e[1], e[0], *e))
            ]
        else:
            rows[mid] = [copy for e in edges for copy in ((e[0], *e), (e[1], *e))]
    if len(widths) > 1:
        raise ValueError(f"edge records of several widths {sorted(widths)}")
    return (widths.pop() if widths else 0), rows


def _copy_columns(columns: list[Any], with_dst: bool) -> list[Any]:
    """:func:`directed_rows` on columns: both orientations interleaved,
    the edge columns repeated alongside."""
    u, v = columns[0], columns[1]
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

    def first_machine(self, vertex: int) -> int | None:
        machines = self.holders.get(vertex)
        return machines[0] if machines else None


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
    A field spec asserts that ``(src, key, dst)`` determines the row —
    true under the paper's unique-weight convention — mirroring
    ``sample_sort``'s ``assume_unique`` contract.
    """
    fields = None
    if secondary_key is not None:
        fields = columnar.key_fields(secondary_key)
        if fields is None:
            raise TypeError(
                "secondary_key must be an edge column index or a tuple of "
                f"them, not {secondary_key!r}"
            )
    width, rows = directed_rows(cluster, edges_name)
    if fields is not None and width and not all(0 <= f < width for f in fields):
        raise ValueError(
            f"secondary_key {secondary_key!r} names a column outside the "
            f"{width} edge columns"
        )
    for machine in cluster.smalls:
        machine.put(directed_name, rows[machine.machine_id])
    edge_fields = fields if fields is not None else range(width)
    layout = sample_sort(
        cluster,
        directed_name,
        key=(0, *(2 + f for f in edge_fields), 1),
        note=f"{note}/sort",
        assume_unique=fields is not None,
    )

    sources = {
        machine.machine_id: _source_keys(machine.get(directed_name, []))
        for machine in cluster.smalls
    }
    out_degrees = aggregate_counts(cluster, sources, note=f"{note}/degrees")
    holders: dict[int, list[int]] = {}
    for mid, keys in sources.items():
        seen = set(keys.tolist() if isinstance(keys, np.ndarray) else keys)
        for vertex in sorted(seen):
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


def _source_keys(data: Any) -> Any:
    """The source vertex of every directed row — the raw column when the
    rows are a block (``aggregate_counts``'s array fast path), else a
    list."""
    if isinstance(data, EdgeBlock):
        return data.columns[0]
    return [row[0] for row in data]


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

    Blocks are answered in one pass over all machines' columns, tuple
    rows one row at a time; both build the same queries and answers.
    """
    smalls = cluster.smalls
    machine_ids = [machine.machine_id for machine in smalls]
    datasets = [machine.get(arrangement.name, []) for machine in smalls]
    flat = columnar.concat_columns(datasets)
    if flat is not None and flat[0]:
        queries, answers = _first_records_columns(machine_ids, *flat, quotas, fields)
    else:
        queries, answers = _first_records_rows(machine_ids, datasets, quotas, fields)
    large = cluster.large.machine_id
    cluster.scatter(large, queries, note=notes[0])
    for machine in smalls:
        machine.pop(arrangement.name, None)
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


def _first_records_rows(
    machine_ids: list[int],
    datasets: list[Any],
    quotas: dict[int, int],
    fields: tuple[int, ...],
) -> tuple[dict[int, list], dict[int, list]]:
    """The queries and answers of :func:`query_first_records`, one row at
    a time, for rows no typed block holds."""
    remaining = dict(quotas)
    queries: dict[int, list[tuple[int, int]]] = {}
    answers: dict[int, list] = {}
    for mid, rows in zip(machine_ids, datasets):
        per_vertex: dict[int, int] = {}
        answer = []
        for row in rows:
            src = row[0]
            if remaining.get(src, 0) > 0:
                remaining[src] -= 1
                per_vertex[src] = per_vertex.get(src, 0) + 1
                answer.append((src, *(row[f] for f in fields)))
        if per_vertex:
            queries[mid] = list(per_vertex.items())
        answers[mid] = answer
    return queries, answers
