"""Claim 2 — constant-round aggregation.

Given key/value items scattered over the small machines and an aggregation
function (Definition 1), compute the aggregate per key.  Each machine first
combines its own items per key; the partial aggregates then flow up a
fanout-``n^gamma`` converge-cast tree, being re-combined at every level so
intermediate volumes stay bounded; the final aggregates land on a
destination machine (the large machine, in all of the paper's uses).

All traffic moves through the batched round engine: every tree level is one
:class:`~repro.mpc.plan.RoundPlan` (built by
:func:`~repro.primitives.broadcast.converge_cast`) with one batch per
machine pair, so the per-level cost is a handful of bulk sizing passes
rather than one recursive sizing call per partial aggregate.

*combine* is either a **named reducer** — ``"sum"`` / ``"min"`` /
``"max"`` / ``"or"`` — or a binary callable, always executed on the
object path (two remain: the mincut 2-out step's
``two_smallest`` and the clustering graphs' element-wise mask OR).
Named reducers unlock the columnar path: when every machine's pairs
qualify as int-keyed typed columns
(:func:`~repro.primitives.columnar.ingest_pairs`) and the reducer stays
exact over the global value multiset
(:func:`~repro.primitives.columnar.pairs_fit_kind`), each tree level is
one ``argsort``/``reduceat`` group-by per machine instead of a per-item
dict loop, and partial aggregates travel as one ``(n, 2)`` block per edge
of the tree.  The columnar cast reproduces the object path exactly: same
levels, same scratch charges (a block accounts ``2n`` words, like ``n``
pairs), same first-encounter output order — ledgers and results are
bit-identical by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

import numpy as np

from ..mpc.cluster import Cluster
from . import columnar
from .broadcast import converge_cast
from .columnar import EdgeBlock

__all__ = ["aggregate", "aggregate_counts", "count_items"]


def _combine_pairs(
    pairs: list[tuple[Hashable, Any]],
    combine: Callable[[Any, Any], Any],
) -> list[tuple[Hashable, Any]]:
    result: dict[Hashable, Any] = {}
    for key, value in pairs:
        result[key] = value if key not in result else combine(result[key], value)
    return list(result.items())


def aggregate(
    cluster: Cluster,
    pairs_by_machine: dict[int, Iterable[tuple[Hashable, Any]]],
    combine: Callable[[Any, Any], Any] | str,
    dst: int | None = None,
    note: str = "aggregate",
) -> dict[Hashable, Any]:
    """Aggregate ``(key, value)`` items with *combine* (callable or named
    reducer).

    Returns the per-key aggregates, delivered to machine *dst* (default:
    the large machine if present, else small machine 0).
    """
    if dst is None:
        dst = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]

    # Materialize once: qualification must not consume one-shot iterables
    # the object path would then miss.
    materialized = {
        mid: pairs if isinstance(pairs, (list, EdgeBlock)) else list(pairs)
        for mid, pairs in pairs_by_machine.items()
    }

    kind = columnar.resolve_reducer(combine)
    if kind is not None:
        columns = _ingest_all(materialized)
        # An all-empty cast has nothing to vectorize; the object path is
        # free and trivially identical.
        if columns and columnar.pairs_fit_kind(list(columns.values()), kind):
            return _aggregate_columnar(cluster, columns, kind, dst, note)

    combine_fn = columnar.reducer_callable(combine)

    def level_combine(buffer: list[Any]) -> list[Any]:
        return _combine_pairs(buffer, combine_fn)

    locally_combined = {
        mid: _combine_pairs(list(pairs), combine_fn)
        for mid, pairs in materialized.items()
    }
    result_pairs = converge_cast(
        cluster, locally_combined, dst, combine=level_combine, note=note
    )
    return dict(result_pairs)


def aggregate_counts(
    cluster: Cluster,
    keys_by_machine: dict[int, Iterable[Hashable]],
    dst: int | None = None,
    note: str = "count",
) -> dict[Hashable, int]:
    """Count occurrences per key (e.g. vertex degrees, Claim 4 step 2).

    A numpy int key column (e.g. an :class:`EdgeBlock` endpoint column)
    skips pair materialization entirely — the ``(key, 1)`` pairs are
    assembled as columns.
    """
    pairs: dict[int, Any] = {}
    for mid, keys in keys_by_machine.items():
        if isinstance(keys, np.ndarray) and keys.dtype.kind == "i":
            pairs[mid] = EdgeBlock(
                [keys.astype(np.int64, copy=False), np.ones(len(keys), dtype=np.int64)]
            )
        else:
            keys = keys.tolist() if isinstance(keys, np.ndarray) else keys
            pairs[mid] = [(key, 1) for key in keys]
    return aggregate(cluster, pairs, "sum", dst=dst, note=note)


def count_items(
    cluster: Cluster,
    name: str,
    predicate: Callable[[Any], bool] | None = None,
    note: str = "count",
) -> int:
    """Total number of items (matching *predicate*) stored under *name*.

    This is the 'each small machine sends a count, the large machine sums'
    pattern used before every all-edges-to-the-large-machine step.  The
    counts are keyed by the int ``0``, so they ride the columnar cast.
    """
    pairs = {
        machine.machine_id: [
            (
                0,
                len(machine.get(name, []))
                if predicate is None
                else sum(1 for item in machine.get(name, []) if predicate(item)),
            )
        ]
        for machine in cluster.smalls
    }
    totals = aggregate(cluster, pairs, "sum", note=note)
    return totals.get(0, 0)


# ----------------------------------------------------------------------
# Columnar converge-cast
# ----------------------------------------------------------------------
def _ingest_all(
    materialized: dict[int, Any]
) -> dict[int, tuple[Any, Any]] | None:
    """Every machine's pairs as ``(keys, values)`` columns, or ``None`` if
    any machine's pairs do not qualify (all machines or none — a mixed
    cast could not keep the per-level accounting identical)."""
    columns: dict[int, tuple[Any, Any]] = {}
    for mid, pairs in materialized.items():
        if not len(pairs):
            continue
        ingested = columnar.ingest_pairs(pairs)
        if ingested is None:
            return None
        columns[mid] = ingested
    return columns


def _aggregate_columnar(
    cluster: Cluster,
    columns_by_machine: dict[int, tuple[Any, Any]],
    kind: str,
    dst: int,
    note: str,
) -> dict[int, Any]:
    """The converge-cast of :func:`aggregate`, on ``(keys, values)`` columns.

    Each machine pre-combines its own pairs (uncharged, like the object
    path's local combine), then the partial aggregates ride
    :func:`~repro.primitives.broadcast.converge_cast` as one ``(n, 2)``
    transport block per machine — ``n`` items, ``2n`` words, exactly the
    object path's ``n`` pairs — with
    :func:`~repro.primitives.columnar.reduce_pairs` over the concatenated
    held and received blocks as the per-level combine.  The values come
    back to their own dtype at the end.
    """
    value_dtype = next(iter(columns_by_machine.values()))[1].dtype
    transport = np.float64 if value_dtype.kind == "f" else np.int64

    def as_transport(keys: Any, values: Any) -> Any:
        return np.column_stack(
            [keys.astype(transport, copy=False), values.astype(transport, copy=False)]
        )

    def combine(blocks: list[Any]) -> Any:
        block = np.concatenate(blocks)
        return as_transport(
            *columnar.reduce_pairs(block[:, 0].astype(np.int64), block[:, 1], kind)
        )

    result = converge_cast(
        cluster,
        {
            mid: as_transport(*columnar.reduce_pairs(keys, values, kind))
            for mid, (keys, values) in columns_by_machine.items()
        },
        dst,
        combine=combine,
        note=note,
    )
    keys = result[:, 0].astype(np.int64).tolist()
    return dict(zip(keys, result[:, 1].astype(value_dtype).tolist()))
