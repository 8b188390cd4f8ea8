"""Distributed deduplication: keep the lightest record per key.

After a contraction step, parallel edges appear between contracted
vertices; the paper keeps only the lightest edge between any two nodes
("easily done using a variant of Claim 2").  The output must stay
*distributed*, so instead of funneling through the large machine we sort by
``(key, weight)`` (Claim 1), drop duplicates locally, and fix groups that
straddle machine boundaries with one extra round in which every machine
tells its successor the last key it holds.

*key* and *weight* are field specs (column indices), and the records are
flat rows of finite scalars.  The local keep-first pass reads the sorted
rows as :class:`~repro.primitives.columnar.EdgeBlock` s
(:func:`~repro.primitives.columnar.stored_blocks`) and is one vectorized
neighbor-difference mask over the key columns; the boundary messages
carry the key as a tuple of Python scalars.
"""

from __future__ import annotations

from typing import Any

from ..mpc.cluster import Cluster
from ..mpc.plan import RoundPlan
from . import columnar
from .columnar import EdgeBlock
from .sort import sample_sort

__all__ = ["dedup_lightest"]


def dedup_lightest(
    cluster: Cluster,
    name: str,
    key: int | tuple[int, ...],
    weight: int | tuple[int, ...],
    note: str = "dedup",
) -> None:
    """Keep, for each key, only the record with the smallest weight.

    Weights are unique within a key group (the paper's unique-weight
    convention), so "the lightest" is well defined — and no two distinct
    records share a ``(key, weight)`` sort key, which lets the sort take
    the columnar path for any field spec (``assume_unique``).  A flat
    ``(key..., weight...)`` spec orders exactly like nested ``((key...),
    (weight...))`` pairs and costs the same words.  Raises
    :class:`TypeError` for a key that is not a field spec or a record
    that is not a flat row of scalars.
    """
    key_spec = columnar.key_fields(key, "key")
    weight_spec = columnar.key_fields(weight, "weight")
    sample_sort(
        cluster, name, key=key_spec + weight_spec, note=f"{note}/sort",
        assume_unique=True,
    )

    # Local pass: within a machine, keep the first record of each group.
    smalls = cluster.smalls
    for machine, block in zip(smalls, columnar.stored_blocks(smalls, name)):
        machine.put(name, _keep_first(block, key_spec))

    # Boundary pass: each non-empty machine announces the key of its last
    # (pre-drop) record to the next non-empty machine, which then drops its
    # leading records of that key.  One round.
    nonempty = [m for m in smalls if m.get(name)]
    plan = RoundPlan(note=f"{note}/boundary")
    for left, right in zip(nonempty, nonempty[1:]):
        last_key = _key_at(left.get(name), key_spec, -1)
        plan.send(left.machine_id, right.machine_id, ("last-key", last_key))
    inboxes = cluster.execute(plan)
    for mid, received in inboxes.items():
        machine = cluster.machine(mid)
        boundary_keys = {payload[1] for payload in received}
        block = machine.get(name)
        index = 0
        while index < len(block) and _key_at(block, key_spec, index) in boundary_keys:
            index += 1
        machine.put(name, block[index:])


def _key_at(block: EdgeBlock, fields: tuple[int, ...], index: int) -> tuple:
    """The key of row *index* of *block*, as a tuple of Python scalars."""
    return columnar.rows_at([block.columns[f] for f in fields], [index])[0]


def _keep_first(block: Any, fields: tuple[int, ...]) -> Any:
    """The first record of each consecutive key group, as one mask pass."""
    if len(block) <= 1:
        return block
    keep = columnar.first_of_runs([block.columns[f] for f in fields])
    if keep.all():
        return block
    return EdgeBlock([col[keep] for col in block.columns])
