"""Claim 4 — arranging the edges of a directed graph on the machines.

After ``arrange_directed``:

1. each vertex's outgoing edges sit on consecutive small machines, sorted;
2. the large machine knows, for every vertex, its out-degree, the first
   machine holding its edges (``M_first``), and the full machine range —
   this is exactly the information the MST algorithm's query step and the
   dissemination trees of Claim 3 need.

The directed records handed back to callers are always the nested
``(src, dst, edge)`` tuples of the original design.  Internally, when the
stored edges qualify as typed record batches
(:mod:`repro.primitives.columnar`) and *secondary_key* is a field spec,
the copies are built flat — ``(src, dst, e0, ..., e_{w-1})`` columns — so
the dominant sort rides the columnar path and the degree count feeds
:func:`~repro.primitives.aggregate.aggregate_counts` a key *column*; the
rows are re-nested before returning.  Flat and nested rows cost the same
words and their sort keys order isomorphically, so ledgers and results
match the object path bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..mpc.cluster import Cluster
from . import columnar
from .aggregate import aggregate_counts
from .columnar import EdgeBlock
from .sort import SortLayout, sample_sort

__all__ = ["Arrangement", "arrange_directed", "directed_copies"]


def directed_copies(edge: tuple) -> list[tuple]:
    """Both orientations of an undirected edge, carrying the original edge:
    ``(src, dst, edge)``."""
    u, v = edge[0], edge[1]
    return [(u, v, edge), (v, u, edge)]


def _flat_directed_copies(columns: tuple) -> EdgeBlock:
    """One machine's flat directed-copy build: both orientations
    interleaved, the original edge columns repeated alongside."""
    end_dtype = columns[0].dtype
    src = np.empty(2 * len(columns[0]), dtype=end_dtype)
    dst = np.empty(2 * len(columns[0]), dtype=end_dtype)
    src[0::2] = columns[0]
    src[1::2] = columns[1]
    dst[0::2] = columns[1]
    dst[1::2] = columns[0]
    return EdgeBlock([src, dst, *(np.repeat(col, 2) for col in columns)])


def _directed_records(edges: list) -> list[tuple]:
    """One machine's nested directed-copy build."""
    records: list[tuple] = []
    for edge in edges:
        records.extend(directed_copies(edge))
    return records


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
    secondary_key: Callable[[tuple], Any] | int | tuple[int, ...] | None = None,
    note: str = "arrange",
) -> Arrangement:
    """Arrange directed copies of the edges stored under *edges_name*.

    Directed records are ``(src, dst, edge)`` tuples sorted by
    ``(src, secondary_key(edge), dst)``; *secondary_key* defaults to the
    edge itself (the MST algorithm passes the weight, so each vertex's
    out-edges are weight-sorted as Section 3 requires).

    *secondary_key* may be a field spec (an edge column index or tuple of
    indices) instead of a callable, which unlocks the columnar sort.  A
    field spec asserts that ``(src, key, dst)`` determines the record —
    true under the paper's unique-weight convention — mirroring
    ``sample_sort``'s ``assume_unique`` contract.
    """
    edge_spec = (
        columnar.key_fields(secondary_key) if secondary_key is not None else None
    )
    flat = None
    if secondary_key is None or edge_spec is not None:
        flat = _flat_directed(cluster, edges_name, edge_spec)

    if flat is not None:
        sort_spec, blocks = flat
        for machine in cluster.smalls:
            machine.put(directed_name, blocks[machine.machine_id])
        layout = sample_sort(
            cluster,
            directed_name,
            key=sort_spec,
            note=f"{note}/sort",
            assume_unique=edge_spec is not None,
        )
    else:
        if secondary_key is None:
            key2: Callable[[tuple], Any] = lambda edge: edge  # noqa: E731
        else:
            key2 = columnar.as_callable(secondary_key)
        for machine in cluster.smalls:
            machine.put(
                directed_name, _directed_records(list(machine.get(edges_name, [])))
            )
        layout = sample_sort(
            cluster,
            directed_name,
            key=lambda record: (record[0], key2(record[2]), record[1]),
            note=f"{note}/sort",
        )

    out_degrees = aggregate_counts(
        cluster,
        {
            machine.machine_id: _source_keys(machine.get(directed_name, []))
            for machine in cluster.smalls
        },
        note=f"{note}/degrees",
    )

    holders: dict[int, list[int]] = {}
    for machine in cluster.smalls:
        data = machine.get(directed_name, [])
        if isinstance(data, EdgeBlock):
            seen = set(data.columns[0].tolist())
        else:
            seen = {record[0] for record in data}
        for vertex in sorted(seen):
            holders.setdefault(vertex, []).append(machine.machine_id)

    # Hand the nested records back before any caller looks at the dataset.
    # Flat and nested rows are the same words, so this is ledger-neutral.
    if flat is not None:
        for machine in cluster.smalls:
            data = machine.get(directed_name, [])
            rows = data.rows() if isinstance(data, EdgeBlock) else data
            machine.put(
                directed_name, [(row[0], row[1], row[2:]) for row in rows]
            )

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
    """The source-vertex key of every directed record — as the raw column
    when the records are a flat block (``aggregate_counts``'s array fast
    path), else a list."""
    if isinstance(data, EdgeBlock):
        return data.columns[0]
    return [record[0] for record in data]


def _flat_directed(
    cluster: Cluster, edges_name: str, edge_spec: tuple[int, ...] | None
) -> tuple[tuple[int, ...], dict[int, Any]] | None:
    """Flat directed copies of every machine's edges, or ``None`` if any
    machine's edges do not qualify (all machines or none — sorted runs
    mix rows across machines, so the representation must be uniform).

    Returns ``(sort_spec, blocks_by_machine)``; the spec maps the
    ``(src, secondary, dst)`` key onto the flat ``(src, dst, edge...)``
    layout.  Nothing is mutated.
    """
    width: int | None = None
    dtypes: tuple | None = None
    blocks: dict[int, Any] = {}
    qualified: list[tuple[int, EdgeBlock]] = []
    for machine in cluster.smalls:
        local = machine.get(edges_name, [])
        if not len(local):
            blocks[machine.machine_id] = []
            continue
        block = columnar.ensure_block(local)
        if block is None or block.width < 2:
            return None
        col_dtypes = tuple(col.dtype for col in block.columns)
        if width is None:
            width, dtypes = block.width, col_dtypes
        elif block.width != width or col_dtypes != dtypes:
            return None
        end_dtype = block.columns[0].dtype
        if end_dtype.kind != "i" or block.columns[1].dtype != end_dtype:
            return None
        qualified.append((machine.machine_id, block))
    if not qualified:
        return None
    for mid, block in qualified:
        blocks[mid] = _flat_directed_copies(block.columns)
    key_fields = edge_spec if edge_spec is not None else tuple(range(width))
    if key_fields and (max(key_fields) >= width or min(key_fields) < 0):
        return None
    sort_spec = (0, *(2 + f for f in key_fields), 1)
    return sort_spec, blocks
