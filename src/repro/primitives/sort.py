"""Claim 1 — O(1)-round distributed sorting (sample sort).

Implements the Goodrich-style constant-round sort the paper cites [34]:

1. every machine samples its items and ships the sample to a coordinator;
2. the coordinator picks ``K-1`` splitters at even sample quantiles and
   tree-broadcasts them;
3. every machine routes each item to the bucket machine owning its splitter
   interval (one round), and sorts its bucket locally;
4. bucket counts are reported so later steps know the global layout.

With sample rate ``Theta(K log K / N)`` the buckets are balanced within a
constant factor w.h.p.; any overload is recorded by the ledger.

The rows are tuples of one width, read as
:class:`~repro.primitives.columnar.EdgeBlock` s (a field no typed column
holds — tuples, labels, ``None`` — is an ``object`` column), and the key
is a *field spec*: a column index or a tuple of them, over columns of
finite scalars.  Each step is one array pass over all small machines at
once, not one per machine:

* *qualify* — every machine's block is concatenated once per column, in
  machine order; the transport and packing checks are one reduction per
  column of that concatenation;
* *sample* — one RNG draw per stored row, in machine order, drawn into
  one array and compared to the rate at once; the sample keys are one
  ``(picked, fields)`` array with each row's machine as its owner, and
  travel up the converge-cast tree as one array per level (sized O(1))
  to the coordinator, which sorts them with one stable sort;
* *route* — every row is assigned its bucket in one pass: one
  ``searchsorted`` on packed int64 keys, or, for keys that do not pack,
  one ``lexsort`` of the splitters together with the rows, a splitter
  sorting before equal rows (``bisect_right``), over the key columns
  packed into as few int64 words as fit
  (:func:`~repro.primitives.columnar.pack_words`), written back to the
  rows' arrival order.  The rows leave in arrival order, whatever they
  hold: **one cluster-wide scatter**, a single
  :meth:`~repro.mpc.plan.RoundPlan.send_indexed` whose source is a
  column.  The plan groups each machine's rows by bucket, in arrival
  order, so each ``(machine, bucket)`` run holds the rows, words and
  items of that machine's per-bucket partition — a run of ``object``
  rows is charged the words of their values
  (:func:`~repro.mpc.words.row_words`);
* *rank* — the rows every bucket machine received (several blocks when
  an enforcing throttle split the route) are concatenated in machine
  order and sorted with one stable sort keyed by ``(machine, key)``: one
  ``argsort`` of a packed ``machine * span + key`` composite when it
  fits int64, a ``lexsort`` with the machine as primary key otherwise.
  Each machine keeps its contiguous slice as an
  :class:`~repro.primitives.columnar.EdgeBlock`, so every machine's
  columns are views of one sorted array per field — which is why no code
  writes to a block's columns in place;
* *counts* — one numeric scatter (a column of sources, the coordinator
  as destination, one 2-word row each).

The rows travel in one transport dtype
(:func:`~repro.primitives.columnar.transport_dtype`): ``int64`` for int
and bool columns, ``float64`` when a float column joins ints that fit
its 53-bit mantissa, and ``object`` (the Python values) otherwise — an
``object`` column of labels, tuples or ``None`` included.  Because the
route keeps arrival order and the rank sort is stable, rows with equal
keys keep their machine-order arrival order: the result is a stable sort
of all rows, whatever fields the spec leaves out.  The sort makes a
constant number of numpy calls; its Python work is O(machines) for the
puts and the inbox walk, plus the sizing of each value of an ``object``
column that is not a scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Sequence

import numpy as np

from ..mpc.cluster import Cluster
from ..mpc.plan import RoundPlan
from . import columnar
from .broadcast import broadcast, converge_cast
from .columnar import EdgeBlock

__all__ = ["SortLayout", "sample_sort"]


@dataclass
class SortLayout:
    """Where the globally sorted sequence lives.

    ``counts[i]`` is the number of items on the i-th small machine (in
    machine order); ``offsets[i]`` is the global rank of that machine's
    first item.  A layout describes one finished sort and is treated as
    immutable: ``total`` and ``offsets`` are computed once and cached.
    """

    machine_ids: list[int]
    counts: list[int]

    @cached_property
    def total(self) -> int:
        return sum(self.counts)

    @cached_property
    def offsets(self) -> list[int]:
        result = []
        acc = 0
        for count in self.counts:
            result.append(acc)
            acc += count
        return result

    @cached_property
    def _offsets_array(self) -> Any:
        return np.array(self.offsets, dtype=np.int64)

    def machine_of_rank_many(self, ranks: Sequence[int]) -> list[int]:
        """The machine holding the item of each global rank: one
        ``searchsorted`` over the cached offsets.  Raises
        :class:`IndexError` for a rank outside ``[0, total)``."""
        if not len(ranks):
            return []
        if min(ranks) < 0 or max(ranks) >= self.total:
            raise IndexError(
                f"rank out of range in {list(ranks)!r} (total {self.total})"
            )
        indices = np.searchsorted(
            self._offsets_array, np.asarray(ranks, dtype=np.int64), side="right"
        ) - 1
        machine_ids = self.machine_ids
        return [machine_ids[i] for i in indices.tolist()]


def sample_sort(
    cluster: Cluster,
    name: str,
    key: int | tuple[int, ...],
    note: str = "sort",
) -> SortLayout:
    """Sort the items stored under dataset *name* across the small machines.

    After the call, machine ``i``'s items are all <= machine ``i+1``'s
    items (by *key*), and each machine's list is locally sorted; items
    with equal keys keep their machine-order arrival order.

    *key* is a field spec — a column index or tuple of column indices; a
    single column keys by a 1-tuple, and a repeated index sorts like the
    spec without the repeat.  Raises :class:`TypeError` when the rows are
    not tuples of one width or a key column holds anything but finite
    ints, floats and bools, and :class:`ValueError` when a key index
    names no column; either before any round.
    """
    smalls = cluster.smalls
    machine_ids = [m.machine_id for m in smalls]
    coordinator = cluster.large.machine_id if cluster.has_large else machine_ids[0]
    fields = columnar.key_fields(key)
    blocks = columnar.ingest_datasets(machine.get(name, []) for machine in smalls)
    if blocks is None:
        raise TypeError(f"dataset {name!r} holds rows that are not tuples of one width")
    columns, counts = columnar.concat_columns(blocks)
    del blocks
    total = sum(counts)
    if total == 0:
        return SortLayout(machine_ids=machine_ids, counts=[0] * len(smalls))
    width = len(columns)
    if not all(0 <= f < width for f in fields):
        raise ValueError(
            f"sort key {key!r} names a column outside the {width} columns "
            f"of dataset {name!r}"
        )
    if not all(columnar.scalar_column(columns[f]) for f in fields):
        raise TypeError(
            f"sort key {key!r} covers a column of dataset {name!r} that holds "
            "values other than finite ints, floats and bools"
        )

    dtypes = tuple(col.dtype for col in columns)
    key_dtypes = [dtypes[f] for f in fields]
    key_transport = columnar.transport_dtype([columns[f] for f in fields])

    # Step 1: sample — one draw per stored row, in machine order, compared
    # to the rate at once — and converge-cast the keys to the
    # coordinator: one (picked, fields) array, each row's owner its
    # machine.  The rate is a throttle hook: an enforcing
    # controller forecasting an over-headroom round thins the sample
    # (coarser splitters, lighter converge-cast — the
    # adaptive-sparsification trade).
    k = len(smalls)
    rate = min(1.0, (4.0 * k * max(1.0, math.log2(k + 2))) / total)
    rate = cluster.throttled_sample_rate(rate, note=f"{note}/sample")
    draws = np.fromiter(iter(cluster.rng.random, None), np.float64, count=total)
    picked = np.flatnonzero(draws < rate)
    sample = converge_cast(
        cluster,
        (
            np.repeat(machine_ids, counts)[picked],
            columnar.stack_rows([columns[f][picked] for f in fields], key_transport),
        ),
        coordinator,
        note=f"{note}/sample",
    )

    # Step 2: the coordinator sorts the sample with one stable sort (the
    # order list.sort gives the equivalent tuples) and picks ``k - 1``
    # splitter tuples of Python scalars at even quantiles.
    splitters: list[tuple] = []
    if len(sample):
        sample_order = columnar.stable_order(EdgeBlock(list(sample.T)), range(len(fields)))
        picks = sample_order[_splitter_indices(len(sample), k)]
        splitters = list(zip(*(
            sample[picks, j].astype(key_dtypes[j]).tolist()
            for j in range(len(fields))
        )))
    del sample
    broadcast(cluster, coordinator, tuple(splitters), machine_ids, note=f"{note}/splitters")

    # Step 3: route every row, in arrival order, to its bucket machine;
    # send_indexed groups the rows by (source, bucket), stable.
    for machine in smalls:
        machine.pop(name, None)
    dsts = np.asarray(machine_ids)[_bucket_rows(columns, fields, splitters)]
    plan = RoundPlan(note=f"{note}/route")
    plan.send_indexed(
        np.repeat(machine_ids, counts),
        dsts,
        columnar.stack_rows(columns, columnar.transport_dtype(columns)),
    )
    columns.clear()
    inboxes = cluster.execute(plan)
    del plan

    # Rank: every machine's received blocks (several only when the
    # throttle split the route across rounds), concatenated in machine
    # order, cast back to the column dtypes and sorted in one stable pass
    # keyed by (machine, key); each machine keeps its contiguous slice.
    arrived = [inboxes.get(mid, ()) for mid in machine_ids]
    del inboxes
    counts = [sum(map(len, blocks)) for blocks in arrived]
    received = np.concatenate(list(chain.from_iterable(arrived)))
    del arrived
    cast = [received[:, j].astype(dtype, copy=False) for j, dtype in enumerate(dtypes)]
    del received
    order = columnar.stable_order(
        EdgeBlock(cast), fields, groups=np.repeat(np.arange(k), counts)
    )
    ranked = [col[order] for col in cast]
    del cast
    for machine, data in zip(smalls, columnar.split_columns(ranked, counts)):
        machine.put(name, data)

    _report_counts(cluster, coordinator, machine_ids, counts, note)
    return SortLayout(machine_ids=machine_ids, counts=counts)


def _splitter_indices(size: int, k: int) -> list[int]:
    """Positions of the ``k - 1`` splitters at even quantiles of a sorted
    sample of *size* keys (none for an empty sample)."""
    if not size:
        return []
    return [min(size - 1, (bucket * size) // k) for bucket in range(1, k)]


def _bucket_rows(
    columns: list[Any], fields: tuple[int, ...], splitters: list[tuple]
) -> Any:
    """Each row's bucket — the number of splitters at or below its key
    (``bisect_right``) — in arrival order."""
    keys = [columns[f] for f in fields]
    if all(col.dtype.kind in "ib" for col in keys):
        # Packed: a row equal to a splitter searches past it.  Splitters
        # are sampled row keys, so they widen no span.
        packed = columnar.pack_columns(
            keys, np.array(splitters, dtype=np.int64).reshape(len(splitters), len(fields))
        )
        if packed is not None:
            packed_rows, packed_splitters = packed
            return np.searchsorted(packed_splitters, packed_rows, side="right")
    # Sorted: one lexsort of the rows together with the splitters, a
    # splitter before equal rows, so each row's bucket is the number of
    # splitters sorted ahead of it.  The key columns are packed into as
    # few words as they fit.
    total = len(keys[0])
    words = columnar.pack_words([
        np.concatenate([col, np.array([s[j] for s in splitters], dtype=col.dtype)])
        for j, col in enumerate(keys)
    ])
    is_row = np.arange(total + len(splitters)) < total
    merged = np.lexsort([is_row, *words[::-1]])
    row_at = merged < total
    buckets = np.empty(total, dtype=np.int64)
    buckets[merged[row_at]] = np.cumsum(~row_at)[row_at]
    return buckets


def _report_counts(
    cluster: Cluster,
    coordinator: int,
    machine_ids: list[int],
    counts: list[int],
    note: str,
) -> None:
    """Step 4: every small machine reports ``(machine id, count)`` to the
    coordinator — one numeric scatter whose sources are a column, one
    2-word run per machine."""
    plan = RoundPlan(note=f"{note}/counts")
    plan.send_indexed(
        machine_ids,
        np.full(len(machine_ids), coordinator),
        np.column_stack((machine_ids, counts)),
    )
    cluster.execute(plan)
