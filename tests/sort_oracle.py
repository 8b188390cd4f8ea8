"""The object sample sort: Claim 1 one Python tuple at a time.

This is the reference :func:`repro.primitives.sort.sample_sort` is
compared against.  It runs the same four steps on the stored rows as
Python tuples: per-item sampling keyed by ``itemgetter`` over the field
spec (a one-field spec keys by a 1-tuple), ``list.sort`` of the sample at
the coordinator, per-item ``bisect`` bucketing and one ``send_batch`` per
machine and bucket (buckets ascending, items in arrival order), and
``sorted`` per bucket machine.
It consumes the cluster RNG, builds the plan runs and charges the words
of the array sort, and leaves lists of tuples on the machines.

:func:`installed` puts it in place of the array sort in every primitive
module that sorts, so whole pipelines run on it.
"""

from __future__ import annotations

import bisect
import importlib
import math
from contextlib import ExitStack, contextmanager
from operator import itemgetter
from typing import Any, Iterator
from unittest import mock

from repro.mpc.cluster import Cluster
from repro.mpc.plan import RoundPlan
from repro.primitives import columnar
from repro.primitives.broadcast import broadcast, converge_cast
from repro.primitives.sort import SortLayout, _report_counts, _splitter_indices

#: The modules whose ``sample_sort`` :func:`installed` replaces.
SORTING_MODULES = ("sort", "join", "arrange", "dedup", "edgestore")


def sample_sort(
    cluster: Cluster,
    name: str,
    key: int | tuple[int, ...],
    note: str = "sort",
) -> SortLayout:
    """Sort dataset *name* across the small machines by the field spec
    *key*, one row at a time (see the module docstring)."""
    smalls = cluster.smalls
    machine_ids = [m.machine_id for m in smalls]
    coordinator = cluster.coordinator
    fields = columnar.key_fields(key)
    field = fields[0]
    row_key = itemgetter(*fields) if len(fields) > 1 else lambda item: (item[field],)
    total = sum(len(m.get(name, [])) for m in smalls)

    if total == 0:
        return SortLayout(machine_ids=machine_ids, counts=[0] * len(smalls))

    # Step 1: sample and converge-cast the sample keys to the coordinator.
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

    # Step 2: the coordinator picks splitters at even quantiles and
    # broadcasts them.
    splitters = [sample_keys[i] for i in _splitter_indices(len(sample_keys), k)]
    broadcast(cluster, coordinator, tuple(splitters), machine_ids, note=f"{note}/splitters")

    # Step 3: route every item to its bucket machine, one run per
    # (machine, bucket), buckets ascending.
    plan = RoundPlan(note=f"{note}/route")
    for machine in smalls:
        buckets: dict[int, list[Any]] = {}
        for item in machine.get(name, []):
            bucket = bisect.bisect_right(splitters, row_key(item))
            buckets.setdefault(bucket, []).append(item)
        for bucket in sorted(buckets):
            plan.send_batch(machine.machine_id, machine_ids[bucket], buckets[bucket])
    cluster.pop(name)
    inboxes = cluster.execute(plan)
    counts = []
    for machine in smalls:
        bucket_items = sorted(inboxes.get(machine.machine_id, []), key=row_key)
        machine.put(name, bucket_items)
        counts.append(len(bucket_items))

    # Step 4: report bucket counts to the coordinator so the layout is known.
    _report_counts(cluster, coordinator, machine_ids, counts, note)
    return SortLayout(machine_ids=machine_ids, counts=counts)


@contextmanager
def installed() -> Iterator[None]:
    """Run every primitive's sort on :func:`sample_sort` for the duration
    (the ``sample_sort`` each module in :data:`SORTING_MODULES` calls)."""
    with ExitStack() as stack:
        for module in SORTING_MODULES:
            stack.enter_context(mock.patch.object(
                importlib.import_module(f"repro.primitives.{module}"),
                "sample_sort",
                sample_sort,
            ))
        yield
