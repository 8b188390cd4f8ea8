"""Claim 3 — constant-round dissemination.

The large machine holds a value ``x_key`` per key; every small machine that
stores an item with that key must learn the value.  Values flow down
per-key fanout-``n^gamma`` trees over the holder machines, all trees
advancing in the same synchronous rounds, exactly as in the proof of
Claim 3 (after the arrangement of Claim 4, each machine is an inner node of
at most one tree, so the per-level volume is bounded).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from ..mpc.cluster import Cluster
from ..mpc.plan import RoundPlan

__all__ = ["disseminate", "holders_by_key"]


def holders_by_key(
    cluster: Cluster,
    name: str,
    keys_of_item: Callable[[Any], tuple],
) -> dict[Hashable, list[int]]:
    """Which small machines hold items with each key.

    In the real protocol this mapping is established by the arrangement of
    Claim 4 (it already charged its rounds); the simulator reads it off the
    stores.
    """
    holders: dict[Hashable, list[int]] = {}
    for machine in cluster.smalls:
        seen: set[Hashable] = set()
        for item in machine.get(name, []):
            for key in keys_of_item(item):
                seen.add(key)
        for key in seen:
            holders.setdefault(key, []).append(machine.machine_id)
    return holders


def disseminate(
    cluster: Cluster,
    values: dict[Hashable, Any],
    holders: dict[Hashable, list[int]],
    src: int | None = None,
    note: str = "disseminate",
) -> dict[int, dict[Hashable, Any]]:
    """Deliver ``values[key]`` to every machine in ``holders[key]``.

    Returns, per machine id, the mapping of key->value it received.
    """
    if src is None:
        src = cluster.coordinator
    # Throttle hook, consulted once per call: the heap-indexed tree layout
    # below must use one consistent fanout for all of its rounds, so an
    # enforcing controller narrows the *next* dissemination's trees.
    fanout = cluster.throttled_fanout(cluster.config.tree_fanout, note=note)

    received: dict[int, dict[Hashable, Any]] = {}

    # Per-level sends are batched per (sender, receiver) machine pair: many
    # trees advance in the same round, and e.g. the seed round pushes one
    # message per key from one source.  A batch of k messages and k single
    # sends are the same run-length sum, words and per-machine totals, so
    # the ledger cannot tell them apart (receivers are simulation-side
    # here: the inboxes go unread).  Message order inside a batch follows
    # the key/frontier iteration order, unchanged.

    # Round 0: the source seeds the root (first holder) of each key's tree.
    seed_batches: dict[int, list[tuple[Hashable, Any]]] = {}
    trees: dict[Hashable, list[int]] = {}
    for key, value in values.items():
        machine_list = holders.get(key, [])
        if not machine_list:
            continue
        trees[key] = machine_list
        seed_batches.setdefault(machine_list[0], []).append((key, value))
        received.setdefault(machine_list[0], {})[key] = value
    if seed_batches:
        seed_plan = RoundPlan(note=f"{note}/seed")
        for root, messages in seed_batches.items():
            seed_plan.send_batch(src, root, messages)
        cluster.execute(seed_plan)

    # Subsequent rounds: heap-indexed tree push, all keys in lockstep.
    # Node at position i forwards to children at positions i*fanout+1 ...
    frontier: dict[Hashable, list[int]] = {key: [0] for key in trees}
    while True:
        batches: dict[tuple[int, int], list[tuple[Hashable, Any]]] = {}
        new_frontier: dict[Hashable, list[int]] = {}
        for key, positions in frontier.items():
            machine_list = trees[key]
            value = values[key]
            for position in positions:
                first_child = position * fanout + 1
                for child in range(first_child, min(first_child + fanout, len(machine_list))):
                    pair = (machine_list[position], machine_list[child])
                    batches.setdefault(pair, []).append((key, value))
                    received.setdefault(machine_list[child], {})[key] = value
                    new_frontier.setdefault(key, []).append(child)
        if not batches:
            break
        plan = RoundPlan(note=f"{note}/push")
        for (sender, target), messages in batches.items():
            plan.send_batch(sender, target, messages)
        cluster.execute(plan)
        frontier = new_frontier
    return received
