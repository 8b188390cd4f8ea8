"""Claim 2 — constant-round aggregation.

Given key/value items scattered over the small machines and an aggregation
function (Definition 1), compute the aggregate per key.  Each machine first
combines its own items per key; the partial aggregates then flow up a
fanout-``n^gamma`` converge-cast tree, being re-combined at every level so
intermediate volumes stay bounded; the final aggregates land on a
destination machine (the large machine, in all of the paper's uses).

The aggregation function is a **named reducer**: ``"sum"`` and ``"or"``
combine values element-wise, ``"min"`` and ``"max"`` compare whole values
as Python compares them.  A pair is ``(key, value)``; the key and the
value are each a finite int, float or bool, or a flat tuple of them, of
one width and one type per field across the call, so every machine's
pairs sit in cluster-wide typed key and value columns.  The local
pre-combine and every tree level are one grouped
:func:`~repro.primitives.columnar.reduce_pairs` over ``(machine, key)``
for all machines at once, and the partial aggregates travel as one array
of ``(key, value)`` rows in one transport dtype
(:func:`~repro.primitives.columnar.transport_dtype`), one scatter per tree
level (:func:`~repro.primitives.broadcast.converge_cast`).  A row charges
the words of its pair — one per leaf — and each machine's keys keep their
first-encounter order, so rounds, words, memory marks and the order of
the result are those of a per-pair dict loop; the differential suite
pins them against the object aggregate kept in the tests.

Input the columns cannot hold exactly is refused before any round:
:class:`TypeError` for pairs that are not ``(key, value)`` tuples, keys or
values of different widths, nested or non-scalar leaves, a field that
mixes types or holds a non-finite float, and float or bool sums (an
``"or"`` of floats); :class:`OverflowError` for ints outside int64 and
int sums that could leave it.

The pairs of every machine can also come at once, as one
:class:`~repro.primitives.columnar.EdgeBlock` of ``(machine, key,
*value)`` rows, machines ascending: :func:`count_items`, Claim 4's
degree count and the sublinear Borůvka baseline build their columns
that way.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

import numpy as np

from ..mpc.cluster import Cluster
from . import columnar
from .broadcast import converge_cast
from .columnar import EdgeBlock

__all__ = ["aggregate", "count_items"]

#: An int sum stays exact while the largest magnitude times the number of
#: pairs stays within this (int64 with margin to spare).
_SUM_SAFE = 2**61


def aggregate(
    cluster: Cluster,
    pairs_by_machine: dict[int, Iterable[tuple[Hashable, Any]]] | EdgeBlock,
    combine: str,
    dst: int | None = None,
    note: str = "aggregate",
) -> dict[Hashable, Any]:
    """Aggregate ``(key, value)`` items with the named reducer *combine*
    (``"sum"``, ``"min"``, ``"max"`` or ``"or"``).

    *pairs_by_machine* maps each machine to its pairs, or is one
    :class:`EdgeBlock` of ``(machine, key, *value)`` rows holding every
    machine's pairs, machines ascending (a one-column value is a scalar,
    a wider one a tuple).  Returns the per-key aggregates,
    delivered to machine *dst* (default: the large machine if present,
    else small machine 0).  Raises as the module docstring says, before
    any round.
    """
    if not isinstance(combine, str):
        raise TypeError(
            f"aggregate takes a named reducer {columnar.REDUCERS}, not {combine!r}"
        )
    if combine not in columnar.REDUCERS:
        raise ValueError(
            f"unknown reducer {combine!r} (expected one of {columnar.REDUCERS})"
        )
    if dst is None:
        dst = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]
    machines, keys, values = _pair_columns(pairs_by_machine)
    _check_reducible(combine, values)

    dtypes = tuple(col.dtype for col in (*keys, *values))
    reducer = columnar.Reducer(combine, len(keys), dtypes)
    # Every machine pre-combines its own pairs (uncharged local work);
    # the partial aggregates ride the tree as (key, value) rows, and every
    # level combines with the same grouped reduce.
    keys, values, machines = columnar.reduce_pairs(keys, values, combine, groups=machines)
    columns = [*keys, *values]
    rows = columnar.stack_rows(columns, columnar.transport_dtype(columns))
    result = converge_cast(cluster, (machines, rows), dst, combine=reducer, note=note)
    fields = [result[:, j].astype(dtype).tolist() for j, dtype in enumerate(dtypes)]
    width = len(keys)
    return dict(zip(
        fields[0] if width == 1 else zip(*fields[:width]),
        fields[width] if len(fields) == width + 1 else zip(*fields[width:]),
    ))


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
    block.
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
# Pairs as typed columns
# ----------------------------------------------------------------------
def _pair_columns(pairs_by_machine: Any) -> tuple[Any, list[Any], list[Any]]:
    """Every machine's pairs as cluster-wide columns ``(machines, keys,
    values)`` — an int64 machine column, ascending (a block's machines
    must already ascend), and lists of typed key and value columns; one
    int64 key and value column each when there are no pairs."""
    empty = np.empty(0, dtype=np.int64)
    if isinstance(pairs_by_machine, EdgeBlock):
        if not len(pairs_by_machine):
            return empty, [empty], [empty]
        machines, key, *values = pairs_by_machine.columns
        keys = _leaf_columns(key, "key")
        values = [leaf for col in values for leaf in _leaf_columns(col, "value")]
    else:
        mids = sorted(pairs_by_machine)
        ingested = columnar.ingest_columns([
            pairs if isinstance(pairs, (list, EdgeBlock)) else list(pairs)
            for pairs in map(pairs_by_machine.__getitem__, mids)
        ])
        if ingested is None or len(ingested[0]) not in (0, 2):
            raise TypeError("aggregate pairs must be (key, value) tuples")
        columns, counts = ingested
        if not columns:
            return empty, [empty], [empty]
        machines = np.repeat(np.array(mids, dtype=np.int64), counts)
        keys = _leaf_columns(columns[0], "key")
        values = _leaf_columns(columns[1], "value")
    return machines, keys, values


def _leaf_columns(column: Any, what: str) -> list[Any]:
    """One side of the pairs (*what*: ``"key"`` or ``"value"``) as typed
    columns: a typed column as it is, a column of flat tuples of one
    width as one column per field.  Raises :class:`TypeError` or
    :class:`OverflowError` for anything the typed columns cannot hold."""
    if column.dtype.kind != "O":
        return [column]
    leaves = column.tolist()
    fields = [column]
    if set(map(type, leaves)) == {tuple}:
        block = columnar.ingest_rows(leaves)
        if block is None:
            raise TypeError(f"aggregate {what}s must be flat tuples of one width")
        fields = list(block.columns)
    for field in fields:
        if field.dtype.kind != "O":
            continue
        kinds = set(map(type, field.tolist()))
        if kinds == {int}:
            raise OverflowError(f"an aggregate {what} holds an int outside int64")
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        if tuple in kinds:
            raise TypeError(f"aggregate {what}s must be flat: a field holds {names}")
        if kinds == {float}:
            raise TypeError(f"an aggregate {what} holds a non-finite float")
        if not kinds <= {int, float, bool}:
            raise TypeError(
                f"aggregate {what}s must hold ints, floats or bools, not {names}"
            )
        raise TypeError(f"an aggregate {what} field mixes {names}")
    return fields


def _check_reducible(kind: str, values: list[Any]) -> None:
    """Refuse value columns *kind* cannot reduce exactly."""
    for col in values:
        dtype = col.dtype.kind
        if kind == "sum" and dtype == "f":
            raise TypeError(
                "aggregate 'sum' over floats: a float sum depends on the order "
                "the tree combines it in"
            )
        if kind == "or" and dtype == "f":
            raise TypeError("aggregate 'or' takes ints or bools, not floats")
        if kind == "sum" and dtype == "b":
            raise TypeError("aggregate 'sum' over bools: sum 0/1 ints instead")
        if kind == "sum" and len(col):
            peak = max(-int(col.min()), int(col.max()))
            if peak * len(col) > _SUM_SAFE:
                raise OverflowError(
                    f"aggregate 'sum' of {len(col)} values up to {peak} in "
                    f"magnitude could leave int64"
                )
