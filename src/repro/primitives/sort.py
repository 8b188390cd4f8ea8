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

Two routing implementations share steps 1/2/4 verbatim:

* the **object path** — per-item ``bisect`` bucketing and a
  ``send_indexed`` scatter, the pre-columnar behavior;
* the **columnar path** (:mod:`repro.primitives.columnar`) — engaged when
  the sort key is a *field spec* (column indices instead of a callable)
  and the rows qualify as a typed record batch: one stable ``lexsort``
  per machine, splitter boundaries by binary search on the sorted
  columns, per-bucket array slices sent as zero-copy blocks, and a final
  stable ``lexsort`` per bucket.  The datasets left behind are
  :class:`~repro.primitives.columnar.EdgeBlock` batches whose rows
  materialize to the exact tuples the object path would have stored.

Both paths consume the shared RNG identically, build the same runs with
the same word totals, and (for field specs covering every column, or
caller-guaranteed unique keys) produce identical outputs — the ledger and
the data cannot tell them apart.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Sequence

from ..mpc.cluster import Cluster
from ..mpc.executor import local_step
from . import columnar
from .broadcast import broadcast, converge_cast
from .columnar import EdgeBlock

try:  # optional accelerator — the object path is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on minimal installs
    _np = None

__all__ = ["SortLayout", "sample_sort"]


# ----------------------------------------------------------------------
# Local steps (the executor seam's per-machine units; repro.mpc.executor)
# ----------------------------------------------------------------------
@local_step("sort/bucket-object", ships=False)
def _bucket_object_step(payload: tuple) -> list[int]:
    """One machine's route step, object path: each item's bucket index.
    ``ships=False``: *key* is a user callable."""
    items, splitters, key = payload
    return [bisect.bisect_right(splitters, key(item)) for item in items]


@local_step("sort/rank-object", ships=False)
def _rank_object_step(payload: tuple) -> list[Any]:
    """One machine's rank step, object path: sort the received bucket."""
    items, key = payload
    return sorted(items, key=key)


@local_step("sort/partition-columnar")
def _partition_columnar_step(payload: tuple) -> list[tuple[int, Any]]:
    """One machine's route step, columnar path: pre-grouped per-bucket
    segments ``(bucket, stacked_rows)`` in ascending bucket order with
    stable within-bucket item order — exactly the runs the engine
    backend's grouping would emit for the equivalent scatter, so
    accounting is identical whether this runs inline or in a worker.

    Packed mode assigns buckets with one vectorized ``searchsorted`` and
    keeps arrival order (stable argsort); sorted mode (unpackable keys)
    pre-sorts locally and slices at the splitter boundaries.
    """
    columns, fields, splitters, packed, transport = payload
    if packed:
        packed_rows, packed_splitters = columnar.pack_columns(
            [columns[f] for f in fields], splitters
        )
        buckets = _np.searchsorted(packed_splitters, packed_rows, side="right")
        stacked = _np.column_stack(
            [col.astype(transport, copy=False) for col in columns]
        )
        order = _np.argsort(buckets, kind="stable")
        sorted_buckets = buckets[order]
        sorted_rows = stacked[order]
        edges = _np.flatnonzero(sorted_buckets[1:] != sorted_buckets[:-1]) + 1
        starts = [0, *edges.tolist(), len(sorted_buckets)]
        return [
            (int(sorted_buckets[start]), sorted_rows[start:stop])
            for start, stop in zip(starts[:-1], starts[1:])
        ]
    ordered = columnar.lexsort_block(EdgeBlock(columns), fields)
    stacked = _np.column_stack(
        [col.astype(transport, copy=False) for col in ordered.columns]
    )
    bounds = columnar.bucket_bounds(ordered, fields, splitters)
    starts = [0, *bounds]
    stops = [*bounds, len(ordered)]
    return [
        (bucket, stacked[start:stop])
        for bucket, (start, stop) in enumerate(zip(starts, stops))
        if stop > start
    ]


@local_step("sort/rank-columnar")
def _rank_columnar_step(payload: tuple) -> EdgeBlock:
    """One machine's rank step, columnar path: merge the received blocks
    and stably sort the bucket."""
    received, dtypes, fields = payload
    merged = received[0] if len(received) == 1 else _np.concatenate(received)
    columns = [
        merged[:, j].astype(dtypes[j], copy=False) for j in range(len(dtypes))
    ]
    return columnar.lexsort_block(EdgeBlock(columns, merged.shape[0]), fields)


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
        return _np.array(self.offsets, dtype=_np.int64) if _np is not None else None

    def machine_of_rank(self, rank: int) -> int:
        """The machine holding the item of global rank *rank*."""
        if not 0 <= rank < self.total:
            raise IndexError(rank)
        index = bisect.bisect_right(self.offsets, rank) - 1
        return self.machine_ids[index]

    def machine_of_rank_many(self, ranks: Sequence[int]) -> list[int]:
        """Vectorized :meth:`machine_of_rank` for a batch of ranks.

        One ``searchsorted`` over the cached offsets (pure ``bisect``
        fallback without numpy); semantically identical to mapping
        :meth:`machine_of_rank`, including the bounds check.
        """
        if not len(ranks):
            return []
        if min(ranks) < 0 or max(ranks) >= self.total:
            raise IndexError(
                f"rank out of range in {list(ranks)!r} (total {self.total})"
            )
        if self._offsets_array is not None:
            indices = _np.searchsorted(
                self._offsets_array, _np.asarray(ranks, dtype=_np.int64), side="right"
            ) - 1
            machine_ids = self.machine_ids
            return [machine_ids[i] for i in indices.tolist()]
        offsets = self.offsets
        return [
            self.machine_ids[bisect.bisect_right(offsets, rank) - 1]
            for rank in ranks
        ]


def sample_sort(
    cluster: Cluster,
    name: str,
    key: Callable[[Any], Any] | int | tuple[int, ...],
    note: str = "sort",
    assume_unique: bool = False,
) -> SortLayout:
    """Sort the items stored under dataset *name* across the small machines.

    After the call, machine ``i``'s items are all <= machine ``i+1``'s
    items (by *key*), and each machine's list is locally sorted.

    *key* is either a per-item callable (always routed on the object
    path) or a field spec — a column index or tuple of column indices —
    which enables the columnar path when the rows qualify.  A field-spec
    key of a single column keys by a 1-tuple.  The columnar path requires
    the spec to touch every column exactly once (so equal keys mean equal
    rows and stable sorting keeps the two paths identical); pass
    ``assume_unique=True`` to lift that requirement when the caller
    guarantees no two distinct rows share a key.
    """
    smalls = cluster.smalls
    machine_ids = [m.machine_id for m in smalls]
    coordinator = cluster.large.machine_id if cluster.has_large else machine_ids[0]

    plan_ctx = _columnar_sort_context(cluster, name, key, assume_unique)
    if plan_ctx is not None:
        blocks, packed = plan_ctx
        return _sample_sort_columnar(cluster, name, key, note, blocks, packed)

    key = columnar.as_callable(key)
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
        samples = [key(item) for item in local if cluster.rng.random() < rate]
        if samples:
            samples_by_machine[machine.machine_id] = samples
    sample_keys = converge_cast(
        cluster, samples_by_machine, coordinator, note=f"{note}/sample"
    )
    sample_keys.sort()

    # Step 2: the coordinator picks splitters and broadcasts them.
    splitters = _pick_splitters(sample_keys, k)
    broadcast(cluster, coordinator, tuple(splitters), machine_ids, note=f"{note}/splitters")

    # Step 3: route every item to its bucket machine — the hottest exchange
    # in the repo.  Each machine's bucket assignment is one local step on
    # the executor seam; the engine then groups the scatter into one run
    # per (machine, bucket) pair.
    participants: list[tuple[int, list[Any]]] = []
    payloads = []
    for machine in smalls:
        items = machine.pop(name, [])
        if items:
            participants.append((machine.machine_id, items))
            payloads.append((items, splitters, key))
    bucket_lists = cluster.run_local_steps("sort/bucket-object", payloads)
    plan = cluster.plan(note=f"{note}/route")
    for (mid, items), buckets in zip(participants, bucket_lists):
        plan.send_indexed(mid, [machine_ids[b] for b in buckets], items)
    inboxes = cluster.execute(plan)
    ranked = cluster.run_local_steps(
        "sort/rank-object",
        [(inboxes.get(m.machine_id, []), key) for m in smalls],
    )
    counts = []
    for machine, bucket_items in zip(smalls, ranked):
        machine.put(name, bucket_items)
        counts.append(len(bucket_items))

    # Step 4: report bucket counts to the coordinator so the layout is known.
    cluster.gather(
        coordinator,
        {mid: [(mid, count)] for mid, count in zip(machine_ids, counts)},
        note=f"{note}/counts",
    )
    return SortLayout(machine_ids=machine_ids, counts=counts)


def _pick_splitters(sample_keys: list[Any], k: int) -> list[Any]:
    """``k - 1`` splitters at even quantiles of the sorted sample."""
    splitters: list[Any] = []
    if sample_keys:
        for bucket in range(1, k):
            index = min(len(sample_keys) - 1, (bucket * len(sample_keys)) // k)
            splitters.append(sample_keys[index])
    return splitters


# ----------------------------------------------------------------------
# Columnar routing
# ----------------------------------------------------------------------
def _columnar_sort_context(
    cluster: Cluster,
    name: str,
    key: Any,
    assume_unique: bool,
) -> tuple[dict[int, EdgeBlock], bool] | None:
    """Qualify this sort for the columnar path.

    Returns ``(blocks, packed)`` — the per-machine ingested blocks (empty
    datasets excluded) and whether the packed routing mode applies — or
    ``None`` to stay on the object path.  Qualification requires: the
    columnar path enabled, numpy present, a field-spec key, and every
    non-empty dataset a typed batch of one shared width and per-column
    dtype.  Routing mode:

    * **packed** — the key columns are int/bool and their global value
      spans pack into an int64 composite.  Routing preserves arrival
      order, so *any* field spec matches the object path exactly (ties
      resolve by position on both paths).
    * **sorted** — keys that do not pack (floats, giant spans) route via
      a local pre-sort, which reorders ties; exactness then needs the
      spec to cover every column (equal keys ⇒ equal rows) or the
      caller's ``assume_unique``.

    Nothing is mutated on failure.
    """
    if not columnar.HAS_NUMPY or not columnar.columnar_enabled():
        return None
    fields = columnar.key_fields(key)
    if fields is None or len(set(fields)) != len(fields):
        return None
    machine_ids = [m.machine_id for m in cluster.smalls]
    if machine_ids != sorted(machine_ids):
        # Bucket order must equal destination-id order for the routing
        # runs to line up with the object path's ascending-dst grouping.
        return None
    blocks: dict[int, EdgeBlock] = {}
    width: int | None = None
    dtypes: tuple | None = None
    for machine in cluster.smalls:
        local = machine.get(name, [])
        if not len(local):
            continue
        block = columnar.ensure_block(local)
        if block is None:
            return None
        col_dtypes = tuple(col.dtype for col in block.columns)
        if width is None:
            width, dtypes = block.width, col_dtypes
        elif block.width != width or col_dtypes != dtypes:
            return None
        blocks[machine.machine_id] = block
    if width is None:
        return blocks, True
    if max(fields) >= width or min(fields) < 0:
        return None
    transport = _transport_dtype(dtypes)
    if transport is None:
        return None
    if transport is _np.float64:
        # Int columns must survive the float64 transport exactly.
        for block in blocks.values():
            for col in block.columns:
                if col.dtype.kind == "i" and len(col):
                    if int(_np.abs(col).max()) > 2**52:
                        return None
    packed = _packable_key(blocks, fields, dtypes)
    if not packed and not assume_unique and set(fields) != set(range(width)):
        # Partial-field keys can tie between distinct rows; the sorted
        # routing mode reorders ties, diverging from the object path.
        return None
    return blocks, packed


def _packable_key(
    blocks: dict[int, EdgeBlock], fields: tuple[int, ...], dtypes: tuple
) -> bool:
    """Whether the key columns pack globally (splitters are sampled row
    keys, so per-machine spans widened by splitters stay within the
    global spans checked here)."""
    if any(dtypes[f].kind not in "ib" for f in fields):
        return False
    spans = []
    for f in fields:
        lo = min(int(block.columns[f].min()) for block in blocks.values())
        hi = max(int(block.columns[f].max()) for block in blocks.values())
        spans.append(hi - lo + 1)
    return columnar.spans_fit_packing(spans)


def _transport_dtype(dtypes: tuple) -> Any:
    """The single dtype all columns ride the wire in, or ``None``.

    Uniform int/bool columns travel as ``int64``; any float column makes
    the transport ``float64``, which is exact for the float columns and
    for int columns within the 53-bit mantissa (checked by the caller via
    the ingested values — ids and weights in this repo are far smaller).
    """
    kinds = {dt.kind for dt in dtypes}
    if kinds <= {"i", "b"}:
        return _np.int64
    if "f" in kinds and kinds <= {"i", "b", "f"}:
        return _np.float64
    return None


def _sample_sort_columnar(
    cluster: Cluster,
    name: str,
    key: Any,
    note: str,
    blocks: dict[int, EdgeBlock],
    packed: bool,
) -> SortLayout:
    """Array-native steps 1–4; RNG use, runs and results match the object
    path bit for bit (see the module docstring)."""
    smalls = cluster.smalls
    machine_ids = [m.machine_id for m in smalls]
    coordinator = cluster.large.machine_id if cluster.has_large else machine_ids[0]
    fields = columnar.key_fields(key)
    total = sum(len(block) for block in blocks.values())

    if total == 0:
        return SortLayout(machine_ids=machine_ids, counts=[0] * len(smalls))

    dtypes = tuple(col.dtype for col in next(iter(blocks.values())).columns)
    transport = _transport_dtype(dtypes)

    # Step 1: sample (identical RNG draws: one per stored item, in
    # dataset order) and converge-cast the keys to the coordinator.
    # Same throttle hook as the object path, so the two stay identical.
    k = len(smalls)
    rate = min(1.0, (4.0 * k * max(1.0, math.log2(k + 2))) / total)
    rate = cluster.throttled_sample_rate(rate, note=f"{note}/sample")
    samples_by_machine: dict[int, list[Any]] = {}
    for machine in smalls:
        block = blocks.get(machine.machine_id)
        if block is None:
            continue
        rng_random = cluster.rng.random
        picked = [i for i in range(len(block)) if rng_random() < rate]
        if picked:
            cols = [block.columns[f][picked].tolist() for f in fields]
            samples_by_machine[machine.machine_id] = list(zip(*cols))
    sample_keys = converge_cast(
        cluster, samples_by_machine, coordinator, note=f"{note}/sample"
    )
    sample_keys.sort()

    # Step 2: splitters, exactly as the object path picks them.  Packed
    # mode hands every machine one int64 array of them (a row per
    # splitter), built once here, for pack_columns' vector min/max.
    splitters = _pick_splitters(sample_keys, k)
    broadcast(cluster, coordinator, tuple(splitters), machine_ids, note=f"{note}/splitters")
    if packed:
        splitters = _np.array(splitters, dtype=_np.int64).reshape(
            len(splitters), len(fields)
        )

    # Step 3: route.  Each machine's partition is one shippable local
    # step (``sort/partition-columnar``) that pre-groups its rows into
    # per-bucket segments — ascending bucket, stable within a bucket —
    # which is exactly the run set the engine backend's ``send_indexed``
    # grouping would emit, so runs, words and inbox order are identical
    # across executors and engine backends.  Packed mode assigns buckets
    # in arrival order like the object path's per-item ``bisect``; sorted
    # mode (unpackable keys) pre-sorts locally and slices at splitter
    # boundaries.
    participants: list[int] = []
    payloads = []
    for machine in smalls:
        block = blocks.get(machine.machine_id)
        machine.pop(name, None)
        if block is None:
            continue
        participants.append(machine.machine_id)
        payloads.append((block.columns, fields, splitters, packed, transport))
    segment_lists = cluster.run_local_steps("sort/partition-columnar", payloads)
    plan = cluster.plan(note=f"{note}/route")
    for mid, segments in zip(participants, segment_lists):
        for bucket, segment in segments:
            plan.send_batch(mid, machine_ids[bucket], segment)
    inboxes = cluster.execute(plan)
    receivers: list[int] = []
    payloads = []
    for machine in smalls:
        received = inboxes.get(machine.machine_id, [])
        if received:
            receivers.append(machine.machine_id)
            payloads.append((received, dtypes, fields))
    ranked = dict(
        zip(receivers, cluster.run_local_steps("sort/rank-columnar", payloads))
    )
    counts = []
    for machine in smalls:
        bucket_block = ranked.get(machine.machine_id)
        if bucket_block is None:
            machine.put(name, [])
            counts.append(0)
            continue
        machine.put(name, bucket_block)
        counts.append(len(bucket_block))

    # Step 4: report bucket counts to the coordinator.
    cluster.gather(
        coordinator,
        {mid: [(mid, count)] for mid, count in zip(machine_ids, counts)},
        note=f"{note}/counts",
    )
    return SortLayout(machine_ids=machine_ids, counts=counts)
