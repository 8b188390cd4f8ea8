"""Distributed deduplication: keep the lightest record per key.

After a contraction step, parallel edges appear between contracted
vertices; the paper keeps only the lightest edge between any two nodes
("easily done using a variant of Claim 2").  The output must stay
*distributed*, so instead of funneling through the large machine we sort by
``(key, weight)`` (Claim 1), drop duplicates locally, and fix groups that
straddle machine boundaries with one extra round in which every machine
tells its successor the last key it holds.

*key* and *weight* are field specs (column indices), and the records are
flat rows of finite scalars.  The sorted rows are read as cluster-wide
columns (:func:`~repro.primitives.columnar.sharded`), so the keep-first
pass is one neighbor-difference mask over the machine and key columns of
all machines at once, stored back as one sharded dataset, and the
boundary pass one comparison of each receiver's first key with its
sender's last, whose drops move receivers' row bounds
(:meth:`repro.mpc.cluster.Cluster.rebound`); the boundary messages carry
the key as a tuple of Python scalars.
"""

from __future__ import annotations

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
    key: int | tuple[int, ...],
    weight: int | tuple[int, ...],
    note: str = "dedup",
) -> None:
    """Keep, for each key, only the record with the smallest weight.

    Weights are unique within a key group (the paper's unique-weight
    convention), so "the lightest" is well defined.  A flat ``(key...,
    weight...)`` spec orders exactly like nested ``((key...),
    (weight...))`` pairs and costs the same words.  Raises
    :class:`TypeError` for a key that is not a field spec or a record
    that is not a flat row of scalars.
    """
    key_spec = columnar.key_fields(key, "key")
    weight_spec = columnar.key_fields(weight, "weight")
    sample_sort(cluster, name, key=key_spec + weight_spec, note=f"{note}/sort")

    # Local pass: within a machine, keep the first record of each group.
    columns, counts = columnar.sharded(cluster, name, scalars=True)
    if columns:
        owner = np.repeat(np.arange(len(counts)), counts)
        keep = columnar.first_of_runs([owner, *(columns[f] for f in key_spec)])
        columns = [col[keep] for col in columns]
        counts = np.bincount(owner[keep], minlength=len(counts))
        cluster.store(name, EdgeBlock(columns), counts)

    # Boundary pass: each non-empty machine announces the key of its last
    # (pre-drop) record to the next non-empty machine, which then drops its
    # leading record of that key.  One round.
    smalls = cluster.smalls
    nonempty = np.flatnonzero(counts)
    stops = np.cumsum(counts)
    starts = stops - counts
    lasts = stops[nonempty[:-1]] - 1
    firsts = lasts + 1
    keys = [columns[f] for f in key_spec] if columns else []
    plan = RoundPlan(note=f"{note}/boundary")
    for left, right, last_key in zip(
        nonempty[:-1].tolist(), nonempty[1:].tolist(), columnar.rows_at(keys, lasts)
    ):
        plan.send(smalls[left].machine_id, smalls[right].machine_id, ("last-key", last_key))
    cluster.execute(plan)
    repeated = np.ones(len(firsts), dtype=bool)
    for col in keys:
        repeated &= col[firsts] == col[lasts]
    rights = nonempty[1:][repeated]
    if len(rights):
        starts[rights] += 1
        cluster.rebound(name, starts, stops)
