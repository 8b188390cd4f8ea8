"""Distributed deduplication: keep the lightest record per key.

After a contraction step, parallel edges appear between contracted
vertices; the paper keeps only the lightest edge between any two nodes
("easily done using a variant of Claim 2").  The output must stay
*distributed*, so instead of funneling through the large machine we sort by
``(key, weight)`` (Claim 1), drop duplicates locally, and fix groups that
straddle machine boundaries with one extra round in which every machine
tells its successor the last key it holds.

*key* and *weight* accept field specs (column indices) as well as
callables.  Field specs ride :func:`~repro.primitives.sort.sample_sort`'s
columnar path, and the local keep-first pass becomes one vectorized
neighbor-difference mask over the key columns instead of a per-item loop.
Both paths produce the same records, rounds and words: the sort is pinned
identical by construction, the mask keeps exactly the records the object
scan keeps, and boundary messages carry the same key tuples (a field-spec
key is always tuple-valued, on both paths, via
:func:`~repro.primitives.columnar.as_callable`).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

import numpy as np

from ..mpc.cluster import Cluster
from ..mpc.plan import RoundPlan
from . import columnar
from .columnar import EdgeBlock
from .sort import sample_sort

__all__ = ["dedup_lightest"]


def dedup_lightest(
    cluster: Cluster,
    name: str,
    key: Callable[[Any], Hashable] | int | tuple[int, ...],
    weight: Callable[[Any], Any] | int | tuple[int, ...],
    note: str = "dedup",
) -> None:
    """Keep, for each key, only the record with the smallest weight.

    Weights are unique within a key group (the paper's unique-weight
    convention), so "the lightest" is well defined — and no two distinct
    records share a ``(key, weight)`` sort key, which lets the sort take
    the columnar path for any field spec (``assume_unique``).
    """
    key_spec = columnar.key_fields(key)
    weight_spec = columnar.key_fields(weight)
    if key_spec is not None and weight_spec is not None:
        # One flat field spec — unlocks the columnar sort.  Flat (k..., w...)
        # tuples order exactly like the object path's ((k...), (w...)) pairs
        # and cost the same words (tuples charge the sum of their leaves).
        sort_key: Any = key_spec + weight_spec
    else:
        key_fn0 = columnar.as_callable(key)
        weight_fn0 = columnar.as_callable(weight)
        sort_key = lambda item: (key_fn0(item), weight_fn0(item))  # noqa: E731
    sample_sort(cluster, name, key=sort_key, note=f"{note}/sort", assume_unique=True)

    key_fn = columnar.as_callable(key)

    # Local pass: within a machine, keep the first record of each group
    # (a vectorized mask pass over a columnar block, a scan otherwise).
    for machine in cluster.smalls:
        data = machine.get(name, [])
        if key_spec is not None and isinstance(data, EdgeBlock):
            machine.put(name, _keep_first_block(data, key_spec))
        else:
            machine.put(name, _keep_first_items(data, key_fn))

    # Boundary pass: each non-empty machine announces the key of its last
    # (pre-drop) record to the next non-empty machine, which then drops its
    # leading records of that key.  One round.
    nonempty = [m for m in cluster.smalls if m.get(name)]
    plan = RoundPlan(note=f"{note}/boundary")
    for left, right in zip(nonempty, nonempty[1:]):
        plan.send(
            left.machine_id,
            right.machine_id,
            ("last-key", _last_key(left.get(name), key_spec, key_fn)),
        )
    inboxes = cluster.execute(plan)
    for mid, received in inboxes.items():
        machine = cluster.machine(mid)
        boundary_keys = {payload[1] for payload in received}
        items = machine.get(name, [])
        index = 0
        if key_spec is not None and isinstance(items, EdgeBlock):
            cols = [items.columns[f] for f in key_spec]
            while index < len(items) and (
                tuple(col[index].item() for col in cols) in boundary_keys
            ):
                index += 1
        else:
            while index < len(items) and key_fn(items[index]) in boundary_keys:
                index += 1
        machine.put(name, items[index:])


def _keep_first_block(block: EdgeBlock, fields: tuple[int, ...]) -> EdgeBlock:
    """The first record of each consecutive key group, as one mask pass."""
    if len(block) <= 1:
        return block
    keep = columnar.first_of_runs([block.columns[f] for f in fields])
    if keep.all():
        return block
    return EdgeBlock([col[keep] for col in block.columns])


def _keep_first_items(items: Any, key_fn: Callable) -> list[Any]:
    """The first record of each consecutive key group, as one scan."""
    kept = []
    last_key: Any = _SENTINEL
    for item in items:
        item_key = key_fn(item)
        if item_key != last_key:
            kept.append(item)
            last_key = item_key
    return kept


def _last_key(data: Any, key_spec: tuple[int, ...] | None, key_fn: Callable) -> Any:
    """Key of the last stored record without materializing block rows."""
    if key_spec is not None and isinstance(data, EdgeBlock):
        return tuple(data.columns[f][-1].item() for f in key_spec)
    return key_fn(data[-1])


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()
