"""Claim 2 — constant-round aggregation.

Given key/value items scattered over the small machines and an aggregation
function (Definition 1), compute the aggregate per key.  Each machine first
combines its own items per key; the partial aggregates then flow up a
fanout-``n^gamma`` converge-cast tree, being re-combined at every level so
intermediate volumes stay bounded; the final aggregates land on a
destination machine (the large machine, in all of the paper's uses).

All traffic moves through the batched round engine: every tree level is one
:class:`~repro.mpc.plan.RoundPlan` (built by
:func:`~repro.primitives.broadcast.converge_cast`), so the per-level cost
is a handful of bulk sizing passes rather than one recursive sizing call
per partial aggregate.

*combine* is either a **named reducer** — ``"sum"`` / ``"min"`` /
``"max"`` / ``"or"`` — or a binary callable, always executed on the
object path (two remain: the mincut 2-out step's
``two_smallest`` and the clustering graphs' element-wise mask OR).
Named reducers unlock the columnar path: when every machine's pairs
qualify as int-keyed typed columns
(:func:`~repro.primitives.columnar.ingest_pairs`) and the reducer stays
exact over the global value multiset
(:func:`~repro.primitives.columnar.pairs_fit_kind`), every machine's
pairs sit in cluster-wide key and value columns: the local pre-combine
and every tree level are one grouped ``reduceat`` over ``(machine,
key)`` for all machines at once, instead of a per-item dict loop, and
partial aggregates travel as ``(n, 2)`` rows, one scatter per tree level.
The columnar cast reproduces the object path exactly: same levels, same
scratch charges (``n`` rows account ``2n`` words, like ``n`` pairs), same
first-encounter output order per machine — ledgers and results are
bit-identical by construction.

The pairs of every machine can also come at once, as one
:class:`~repro.primitives.columnar.EdgeBlock` of ``(machine, key,
value)`` rows, each machine's rows contiguous: :func:`count_items` and
:func:`aggregate_counts` build their columns that way.
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
    pairs_by_machine: dict[int, Iterable[tuple[Hashable, Any]]] | EdgeBlock,
    combine: Callable[[Any, Any], Any] | str,
    dst: int | None = None,
    note: str = "aggregate",
) -> dict[Hashable, Any]:
    """Aggregate ``(key, value)`` items with *combine* (callable or named
    reducer).

    *pairs_by_machine* maps each machine to its pairs, or is one
    :class:`EdgeBlock` of ``(machine, key, value)`` rows holding every
    machine's pairs, each machine's rows contiguous.  Returns the per-key
    aggregates, delivered to machine *dst* (default: the large machine if
    present, else small machine 0).
    """
    if dst is None:
        dst = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]

    if isinstance(pairs_by_machine, EdgeBlock):
        materialized = None
        machines, keys, values = pairs_by_machine.columns
        qualified = columnar.ingest_pairs(EdgeBlock([keys, values])) is not None
        columns = (machines, keys, values) if qualified else None
    else:
        # Materialize once: qualification must not consume one-shot
        # iterables the object path would then miss.
        materialized = {
            mid: pairs if isinstance(pairs, (list, EdgeBlock)) else list(pairs)
            for mid, pairs in pairs_by_machine.items()
        }
        columns = _ingest_all(materialized)

    kind = columnar.resolve_reducer(combine)
    # An all-empty cast has nothing to vectorize; the object path is free
    # and trivially identical.
    if kind is not None and columns is not None and len(columns[1]):
        machines, keys, values = columns
        if columnar.pairs_fit_kind(keys, values, _starts(machines), kind):
            return _aggregate_columnar(cluster, machines, keys, values, kind, dst, note)
    if materialized is None:
        # The object path takes each machine's pairs.
        machines, keys, values = pairs_by_machine.columns
        starts = _starts(machines)
        bounds = [*starts.tolist(), len(machines)]
        materialized = {
            mid: EdgeBlock([keys[lo:hi], values[lo:hi]])
            for mid, lo, hi in zip(machines[starts].tolist(), bounds, bounds[1:])
        }

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

    When every machine's keys are a numpy int column (e.g. an
    :class:`EdgeBlock` endpoint column), the ``(machine, key, 1)`` rows of
    all machines are built at once, as columns.
    """
    columns = list(keys_by_machine.values())
    if all(isinstance(keys, np.ndarray) and keys.dtype.kind == "i" for keys in columns):
        keys = (
            np.concatenate(columns).astype(np.int64, copy=False)
            if columns else np.empty(0, dtype=np.int64)
        )
        machines = np.repeat(
            np.fromiter(keys_by_machine, np.int64, len(columns)),
            [len(column) for column in columns],
        )
        pairs: Any = EdgeBlock([machines, keys, np.ones(len(keys), dtype=np.int64)])
    else:
        pairs = {
            mid: [(key, 1) for key in (keys.tolist() if isinstance(keys, np.ndarray) else keys)]
            for mid, keys in keys_by_machine.items()
        }
    return aggregate(cluster, pairs, "sum", dst=dst, note=note)


def count_items(
    cluster: Cluster,
    name: str,
    predicate: Callable[[Any], bool] | None = None,
    note: str = "count",
) -> int:
    """Total number of items (matching *predicate*) stored under *name*.

    This is the 'each small machine sends a count, the large machine sums'
    pattern used before every all-edges-to-the-large-machine step.  Every
    small machine's count is one ``(machine, 0, count)`` row of one
    block, so the counts ride the columnar cast.
    """
    counts = [
        len(machine.get(name, []))
        if predicate is None
        else sum(1 for item in machine.get(name, []) if predicate(item))
        for machine in cluster.smalls
    ]
    pairs = EdgeBlock([
        np.array(cluster.small_ids, dtype=np.int64),
        np.zeros(len(counts), dtype=np.int64),
        np.array(counts, dtype=np.int64),
    ])
    totals = aggregate(cluster, pairs, "sum", note=note)
    return totals.get(0, 0)


# ----------------------------------------------------------------------
# Columnar converge-cast
# ----------------------------------------------------------------------
def _starts(machines: Any) -> Any:
    """Start of every machine's rows in a machine column."""
    return columnar.first_of_runs([machines]).nonzero()[0]


def _ingest_all(materialized: dict[int, Any]) -> tuple[Any, Any, Any] | None:
    """Every machine's pairs as cluster-wide ``(machines, keys, values)``
    columns, or ``None`` if any machine's pairs do not qualify or the
    machines' values are of different kinds (all machines or none — a
    mixed cast could not keep the per-level accounting identical)."""
    ingested: list[tuple[int, Any, Any]] = []
    for mid, pairs in materialized.items():
        if not len(pairs):
            continue
        columns = columnar.ingest_pairs(pairs)
        if columns is None:
            return None
        ingested.append((mid, *columns))
    if not ingested or len({values.dtype.kind for _, _, values in ingested}) > 1:
        # Nothing to vectorize, or mixed value types, which would merge
        # into one column and lose the original Python types.
        return None
    mids, keys, values = zip(*ingested)
    return (
        np.repeat(np.array(mids, dtype=np.int64), [len(k) for k in keys]),
        np.concatenate(keys),
        np.concatenate(values),
    )


def _aggregate_columnar(
    cluster: Cluster,
    machines: Any,
    keys: Any,
    values: Any,
    kind: str,
    dst: int,
    note: str,
) -> dict[int, Any]:
    """The converge-cast of :func:`aggregate`, on cluster-wide columns.

    Every machine pre-combines its own pairs (uncharged, like the object
    path's local combine) — one grouped
    :func:`~repro.primitives.columnar.reduce_pairs` over ``(machine,
    key)`` for all machines — then the partial aggregates ride
    :func:`~repro.primitives.broadcast.converge_cast` as ``(n, 2)``
    transport rows — ``n`` items, ``2n`` words, exactly the object path's
    ``n`` pairs — with *kind* as the named reducer, so every level
    combines with one grouped reduce too.  The values come back to their
    own dtype at the end.
    """
    value_dtype = values.dtype
    transport = np.float64 if value_dtype.kind == "f" else np.int64
    keys, values, machines = columnar.reduce_pairs(keys, values, kind, groups=machines)
    rows = np.column_stack(
        [keys.astype(transport, copy=False), values.astype(transport, copy=False)]
    )
    starts = _starts(machines)
    result = converge_cast(
        cluster,
        dict(zip(machines[starts].tolist(), np.split(rows, starts[1:]))),
        dst,
        combine=kind,
        note=note,
    )
    keys = result[:, 0].astype(np.int64).tolist()
    return dict(zip(keys, result[:, 1].astype(value_dtype).tolist()))
