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

The key is a *field spec*: a column index or a tuple of them.  Two
implementations share the steps, and the rows pick between them:

* the **columnar path** (:mod:`repro.primitives.columnar`) — taken when
  every row is a flat record of finite scalars, so every machine's rows
  form an :class:`~repro.primitives.columnar.EdgeBlock` with one dtype per
  field (an ``object`` column where no exact typed column holds a field's
  values).  Each step is one array pass over all small machines at once,
  not one per machine:

  - *qualify* — every machine's block is concatenated once per column,
    in machine order; the transport and packing checks are one
    reduction per column of that concatenation;
  - *sample* — one RNG draw per stored row, in machine order, drawn into
    one array and compared to the rate at once; each machine's sample
    keys are a row slice of one ``(picked, fields)`` array, and travel up
    the converge-cast tree as blocks (sized O(1) per level) to the
    coordinator, which sorts them with one stable sort;
  - *route* — **one cluster-wide scatter** of the concatenated rows,
    assigned buckets in one pass: one ``searchsorted`` on packed int64
    keys, or, for keys that do not pack, one ``lexsort`` of the splitters
    together with the rows, a splitter sorting before equal rows
    (``bisect_right``), over the key columns packed into as few int64
    words as fit (:func:`~repro.primitives.columnar.pack_words`); a single
    :meth:`~repro.mpc.plan.RoundPlan.send_indexed` whose source is a
    column sends them.  The plan groups the rows by ``(source,
    bucket)``, keeping arrival order in packed mode and key order in
    sorted mode, which is exactly each machine's old per-bucket
    partition;
  - *rank* — the blocks every bucket machine received (several when an
    enforcing throttle split the route) are concatenated in machine
    order and sorted with one stable sort keyed by ``(machine, key)``:
    one ``argsort`` of a packed ``machine * span + key`` composite when
    it fits int64, a ``lexsort`` with the machine as primary key
    otherwise.  Each machine keeps its contiguous slice as an
    :class:`~repro.primitives.columnar.EdgeBlock`, so every machine's
    columns are views of one sorted array per field — which is why no
    code writes to a block's columns in place.  The rows materialize to
    the exact tuples the object path would have stored;
  - *counts* — one numeric scatter (a column of sources, the coordinator
    as destination, one 2-word row each), on both paths.

  The rows travel in one transport dtype: ``int64`` for int and bool
  columns, ``float64`` when a float column joins ints that fit its
  53-bit mantissa, and ``object`` (the Python values) otherwise;
* the **object path** — per-item ``bisect`` bucketing per machine and one
  list ``send_indexed`` scatter per machine, keyed by ``itemgetter`` over
  the field spec (a one-field spec keys by a 1-tuple); it serves rows
  whose fields are not scalars (the sort-join's tuple, label and ``None``
  values).

Both paths consume the shared RNG identically, build the same runs with
the same word totals, and (for field specs covering every column, or
caller-guaranteed unique keys) produce identical outputs — the ledger and
the data cannot tell them apart.  The columnar path makes a constant
number of numpy calls per sort; its Python work is O(machines) for the
puts and the inbox walk.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
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
    immutable: ``total`` and ``offsets`` are computed once and cached
    (callers invoke :meth:`machine_of_rank` in tight loops).
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

    def machine_of_rank(self, rank: int) -> int:
        """The machine holding the item of global rank *rank*."""
        if not 0 <= rank < self.total:
            raise IndexError(rank)
        index = bisect.bisect_right(self.offsets, rank) - 1
        return self.machine_ids[index]

    def machine_of_rank_many(self, ranks: Sequence[int]) -> list[int]:
        """Vectorized :meth:`machine_of_rank` for a batch of ranks.

        One ``searchsorted`` over the cached offsets; semantically
        identical to mapping :meth:`machine_of_rank`, including the bounds
        check.
        """
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
    assume_unique: bool = False,
) -> SortLayout:
    """Sort the items stored under dataset *name* across the small machines.

    After the call, machine ``i``'s items are all <= machine ``i+1``'s
    items (by *key*), and each machine's list is locally sorted.

    *key* is a field spec — a column index or tuple of column indices; a
    single column keys by a 1-tuple.  Keys whose columns do not pack
    into one int64 word route in key order, so the columnar path then
    requires the spec to touch every column exactly once (equal keys mean
    equal rows, and stable sorting keeps the two paths identical); pass
    ``assume_unique=True`` to lift that requirement when the caller
    guarantees no two distinct rows share a key.
    """
    smalls = cluster.smalls
    machine_ids = [m.machine_id for m in smalls]
    coordinator = cluster.large.machine_id if cluster.has_large else machine_ids[0]

    fields = columnar.key_fields(key)
    qualified = _columnar_sort_context(cluster, name, fields, assume_unique)
    if qualified is not None:
        return _sample_sort_columnar(cluster, name, fields, note, *qualified)

    # The object path keys each row by its spec fields, as a tuple.
    field = fields[0]
    row_key = itemgetter(*fields) if len(fields) > 1 else lambda item: (item[field],)
    total = sum(len(m.get(name, [])) for m in smalls)

    if total == 0:
        return SortLayout(machine_ids=machine_ids, counts=[0] * len(smalls))

    # Step 1: sample and converge-cast the sample keys to the coordinator.
    # The rate is a throttle hook: an enforcing controller forecasting an
    # over-headroom round thins the sample (coarser splitters, lighter
    # converge-cast — the adaptive-sparsification trade).
    k = len(smalls)
    rate = min(1.0, (4.0 * k * max(1.0, math.log2(k + 2))) / total)
    rate = cluster.throttled_sample_rate(rate, note=f"{note}/sample")
    samples_by_machine: dict[int, list[Any]] = {}
    for machine in smalls:
        local = machine.get(name, [])
        samples = [row_key(item) for item in local if cluster.rng.random() < rate]
        if samples:
            samples_by_machine[machine.machine_id] = samples
    sample_keys = converge_cast(
        cluster, samples_by_machine, coordinator, note=f"{note}/sample"
    )
    sample_keys.sort()

    # Step 2: the coordinator picks splitters and broadcasts them.
    splitters = _pick_splitters(sample_keys, k)
    broadcast(cluster, coordinator, tuple(splitters), machine_ids, note=f"{note}/splitters")

    # Step 3: route every item to its bucket machine; the plan groups
    # each machine's scatter into one run per bucket.
    plan = RoundPlan(note=f"{note}/route")
    for machine in smalls:
        items = machine.pop(name, [])
        if items:
            buckets = [bisect.bisect_right(splitters, row_key(item)) for item in items]
            plan.send_indexed(
                machine.machine_id, [machine_ids[b] for b in buckets], items
            )
    inboxes = cluster.execute(plan)
    counts = []
    for machine in smalls:
        bucket_items = sorted(inboxes.get(machine.machine_id, []), key=row_key)
        machine.put(name, bucket_items)
        counts.append(len(bucket_items))

    # Step 4: report bucket counts to the coordinator so the layout is known.
    _report_counts(cluster, coordinator, machine_ids, counts, note)
    return SortLayout(machine_ids=machine_ids, counts=counts)


def _splitter_indices(size: int, k: int) -> list[int]:
    """Positions of the ``k - 1`` splitters at even quantiles of a sorted
    sample of *size* keys (none for an empty sample)."""
    if not size:
        return []
    return [min(size - 1, (bucket * size) // k) for bucket in range(1, k)]


def _pick_splitters(sample_keys: list[Any], k: int) -> list[Any]:
    """``k - 1`` splitters at even quantiles of the sorted sample."""
    return [sample_keys[i] for i in _splitter_indices(len(sample_keys), k)]


# ----------------------------------------------------------------------
# Columnar routing
# ----------------------------------------------------------------------
def _columnar_sort_context(
    cluster: Cluster,
    name: str,
    key: Any,
    assume_unique: bool,
) -> tuple[list[Any], list[int], bool] | None:
    """Qualify this sort for the columnar path.

    Returns ``(columns, counts, packed)`` — every small machine's rows as
    one array per field, concatenated in machine order; each small
    machine's row count; and whether the packed routing mode applies —
    or ``None`` to stay on the object path.  Qualification requires every
    row to be a flat record of finite scalars of one width
    (:func:`~repro.primitives.columnar.ingest_datasets`).  Routing mode:

    * **packed** — the key columns are int/bool and their global value
      spans pack into an int64 composite.  Routing preserves arrival
      order, so *any* field spec matches the object path exactly (ties
      resolve by position on both paths).
    * **sorted** — keys that do not pack (floats, giant spans, ``object``
      columns) route in key order, which reorders ties; exactness then
      needs the spec to cover every column (equal keys ⇒ equal rows) or
      the caller's ``assume_unique``.

    The span checks run on the concatenated columns: one ``min`` and one
    ``max`` per key field.  Nothing is mutated.
    """
    fields = columnar.key_fields(key)
    if len(set(fields)) != len(fields):
        return None
    machine_ids = [m.machine_id for m in cluster.smalls]
    if machine_ids != sorted(machine_ids):
        # Bucket order must equal destination-id order for the routing
        # runs to line up with the object path's ascending-dst grouping.
        return None
    blocks = columnar.ingest_datasets(
        machine.get(name, []) for machine in cluster.smalls
    )
    if blocks is None:
        return None
    columns, counts = columnar.concat_columns(blocks)
    if not columns:
        return [], counts, True
    width = len(columns)
    if max(fields) >= width or min(fields) < 0:
        return None
    # Splitters are sampled row keys, so spans widened by splitters stay
    # within the global spans checked here.
    packed = all(columns[f].dtype.kind in "ib" for f in fields) and (
        columnar.spans_fit_packing(
            [int(columns[f].max()) - int(columns[f].min()) + 1 for f in fields]
        )
    )
    if not packed and not assume_unique and set(fields) != set(range(width)):
        # Partial-field keys can tie between distinct rows; the sorted
        # routing mode reorders ties, diverging from the object path.
        return None
    return columns, counts, packed


#: Ints beyond this magnitude do not survive a float64 transport.
_FLOAT_EXACT = 2**52


def _transport_dtype(columns: Sequence[Any]) -> Any:
    """The single dtype *columns* ride the wire in, exact for every value.

    Uniform int/bool columns travel as ``int64``; a float column makes
    the transport ``float64`` while every int column fits its 53-bit
    mantissa; an ``object`` column, or an int past ``2**52`` beside a
    float, makes it ``object`` (the Python values themselves).
    """
    kinds = {col.dtype.kind for col in columns}
    if kinds <= {"i", "b"}:
        return np.int64
    if kinds <= {"i", "b", "f"} and all(
        max(-int(col.min()), int(col.max())) <= _FLOAT_EXACT
        for col in columns
        if col.dtype.kind == "i" and len(col)
    ):
        return np.float64
    return object


def _sample_sort_columnar(
    cluster: Cluster,
    name: str,
    key: Any,
    note: str,
    columns: list[Any],
    counts: list[int],
    packed: bool,
) -> SortLayout:
    """Array-native steps 1–4 over the whole cluster at once; RNG use,
    runs and results match the object path bit for bit (see the module
    docstring).

    *columns* is consumed: the list is emptied once the route rows are
    built, so the concatenated arrays do not outlive their step.
    """
    smalls = cluster.smalls
    machine_ids = [m.machine_id for m in smalls]
    coordinator = cluster.large.machine_id if cluster.has_large else machine_ids[0]
    fields = columnar.key_fields(key)
    total = sum(counts)

    if total == 0:
        return SortLayout(machine_ids=machine_ids, counts=[0] * len(smalls))

    dtypes = tuple(col.dtype for col in columns)
    key_dtypes = [dtypes[f] for f in fields]
    key_transport = _transport_dtype([columns[f] for f in fields])

    # Step 1: sample — one draw per stored row, in machine order (the
    # object path's RNG stream), compared to the rate at once — and
    # converge-cast the keys to the coordinator, each machine's picks a
    # row slice of one (picked, fields) array.  Same throttle hook as the
    # object path, so the two stay identical.
    k = len(smalls)
    rate = min(1.0, (4.0 * k * max(1.0, math.log2(k + 2))) / total)
    rate = cluster.throttled_sample_rate(rate, note=f"{note}/sample")
    draws = np.fromiter(iter(cluster.rng.random, None), np.float64, count=total)
    picked = np.flatnonzero(draws < rate)
    sample_rows = np.column_stack(
        [columns[f][picked].astype(key_transport) for f in fields]
    )
    cuts = np.searchsorted(picked, np.cumsum([0, *counts])).tolist()
    samples_by_machine = {
        mid: sample_rows[lo:hi]
        for mid, lo, hi in zip(machine_ids, cuts, cuts[1:])
        if hi > lo
    }
    sample = converge_cast(
        cluster, samples_by_machine, coordinator, note=f"{note}/sample"
    )

    # Step 2: the coordinator sorts the sample with one stable sort (the
    # order list.sort gives the equivalent tuples) and picks the same
    # splitter tuples of Python scalars as the object path.
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

    # Step 3: route — one cluster-wide scatter of the step-1 columns
    # (machine order, arrival order within), bucketed in one pass;
    # send_indexed groups them by (source, bucket), stable, so each
    # (machine, bucket) run holds exactly the rows, in exactly the order,
    # of that machine's old per-bucket partition.
    for machine in smalls:
        machine.pop(name, None)
    transport = _transport_dtype(columns)
    buckets, order = _bucket_rows(columns, fields, splitters, packed)
    srcs = np.repeat(machine_ids, counts)
    if order is not None:
        srcs = srcs[order]
    rows = np.column_stack([
        (col if order is None else col[order]).astype(transport, copy=False)
        for col in columns
    ])
    columns.clear()
    plan = RoundPlan(note=f"{note}/route")
    plan.send_indexed(srcs, np.asarray(machine_ids)[buckets], rows)
    del rows
    inboxes = cluster.execute(plan)
    del plan

    # Rank: every machine's received blocks (several only when the
    # throttle split the route across rounds), concatenated in machine
    # order, cast back to the column dtypes and sorted in one stable pass
    # keyed by (machine, key); each machine keeps its contiguous slice.
    counts = [sum(map(len, inboxes.get(mid, ()))) for mid in machine_ids]
    received = np.concatenate(
        [block for mid in machine_ids for block in inboxes.get(mid, ())]
    )
    del inboxes
    cast = EdgeBlock([
        received[:, j].astype(dtypes[j], copy=False) for j in range(len(dtypes))
    ])
    del received
    order = columnar.stable_order(cast, fields, groups=np.repeat(np.arange(k), counts))
    ranked = [col[order] for col in cast.columns]
    del cast
    for machine, data in zip(smalls, columnar.split_columns(ranked, counts)):
        machine.put(name, data)

    _report_counts(cluster, coordinator, machine_ids, counts, note)
    return SortLayout(machine_ids=machine_ids, counts=counts)


def _bucket_rows(
    columns: list[Any], fields: tuple[int, ...], splitters: list[tuple], packed: bool
) -> tuple[Any, Any]:
    """Each row's bucket — the number of splitters at or below its key
    (``bisect_right``) — and the order the route sends the rows in:
    ``None`` for arrival order (packed mode), else key order."""
    if packed:
        # A packed row equal to a splitter searches past it.
        packed_rows, packed_splitters = columnar.pack_columns(
            [columns[f] for f in fields],
            np.array(splitters, dtype=np.int64).reshape(len(splitters), len(fields)),
        )
        return np.searchsorted(packed_splitters, packed_rows, side="right"), None
    # One lexsort of the rows together with the splitters, a splitter
    # before equal rows, so each row's bucket is the number of splitters
    # sorted ahead of it.  The key columns are packed into as few words
    # as they fit.
    total = len(columns[0])
    keys = columnar.pack_words([
        np.concatenate(
            [columns[f], np.array([s[j] for s in splitters], dtype=columns[f].dtype)]
        )
        for j, f in enumerate(fields)
    ])
    is_row = np.arange(total + len(splitters)) < total
    merged = np.lexsort([is_row, *keys[::-1]])
    row_at = merged < total
    return np.cumsum(~row_at)[row_at], merged[row_at]


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
