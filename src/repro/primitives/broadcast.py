"""Tree broadcast and converge-cast over the small machines.

The proofs of Claims 2 and 3 route information along trees with branching
factor ``n^gamma``, giving depth ``O((1-gamma)/gamma) = O(1)`` for constant
``gamma``.  These two functions are the reusable building blocks: broadcast
pushes one value from a source to many machines; converge-cast pulls items
from many machines to one destination, combining partial results at every
level so no intermediate machine receives more than it can store.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..mpc.cluster import Cluster
from ..mpc.plan import RoundPlan, is_block

__all__ = ["broadcast", "converge_cast"]


def broadcast(
    cluster: Cluster,
    src: int,
    value: Any,
    dst_ids: Sequence[int],
    note: str = "broadcast",
) -> int:
    """Send *value* from machine *src* to every machine in *dst_ids* along a
    fanout-``n^gamma`` tree.  Returns the number of rounds used.

    The fanout is a throttle hook: consulted per level, so an enforcing
    controller forecasting an over-headroom round narrows the tree (more
    levels, each sender pushing fewer copies per round)."""
    base_fanout = cluster.config.tree_fanout
    holders = [src]
    pending = [d for d in dst_ids if d != src]
    rounds = 0
    while pending:
        fanout = cluster.throttled_fanout(base_fanout, note=note)
        plan = RoundPlan(note=f"{note}/push")
        new_holders = []
        index = 0
        for holder in holders:
            for _ in range(fanout):
                if index >= len(pending):
                    break
                target = pending[index]
                index += 1
                plan.send(holder, target, value)
                new_holders.append(target)
        pending = pending[index:]
        cluster.execute(plan)
        holders.extend(new_holders)
        rounds += 1
    return rounds


def converge_cast(
    cluster: Cluster,
    items_by_machine: dict[int, list[Any]],
    dst: int,
    combine: Callable[[list[Any]], list[Any]] | None = None,
    note: str = "converge",
) -> list[Any]:
    """Funnel items from many machines into *dst* along a fanout tree.

    *combine* (if given) is applied to each intermediate machine's buffer
    after every level — this is how aggregation keeps intermediate volumes
    bounded (Claim 2).  Returns the list of items that reach *dst*.

    Memory honesty: every in-flight buffer is charged to the machine
    holding it (a scratch dataset per cast), so the per-round memory check
    sees the tree's intermediate state, and strict mode fails a cast whose
    buffers outgrow a machine — exactly the condition Claim 2's per-level
    combining is there to prevent.  The scratch is freed as buffers drain;
    the combined result is the caller's to charge wherever it stores it.

    The fan-in is a throttle hook (consulted per level, like
    :func:`broadcast`'s fanout): narrowing the tree shrinks both the
    per-round receive volume and the in-flight buffer growth at every
    intermediate machine.

    Block casts: when every machine's items are one block
    (:func:`~repro.mpc.plan.is_block`: a numeric numpy array or a
    :class:`~repro.mpc.plan.Block`, leading axis indexing items), the
    buffers stay blocks, so every send and every scratch charge is sized
    O(1), and the result is a block.  Without *combine*, a machine's
    held rows come first, then the received arrays, concatenated — only
    arrays concatenate, so a :class:`~repro.mpc.plan.Block` cast without
    *combine* raises :class:`TypeError`.  With *combine*, blocks are
    never concatenated by the cast: *combine* maps the list of held and
    received blocks to one block, and the destination keeps its received
    blocks as a list (charged as the sum of its blocks) until the final
    combine.  Either way every send is one block run, and rows, rounds,
    words and memory charges are those of the equivalent lists of
    tuples.  No buffer keeps a view of a block it has sent, and the
    empty buffer is a fresh empty block.
    """
    base_fanout = cluster.config.tree_fanout
    scratch = f"{note}#cast-buffer"
    machines = cluster.machines

    def charge(mid: int) -> None:
        buffer = buffers.get(mid)
        if buffer is not None and len(buffer):
            machines[mid].put(scratch, buffer)
        else:
            machines[mid].pop(scratch, None)

    arrays = bool(items_by_machine) and all(
        is_block(items) for items in items_by_machine.values()
    )
    gather = arrays and combine is not None
    if arrays:
        first = next(iter(items_by_machine.values()))
        if isinstance(first, np.ndarray):
            empty = np.zeros_like(first[:0])  # no view
        elif gather:
            empty = first[:0]  # a Block slice owns its data
        else:
            raise TypeError(
                f"a cast of {type(first).__name__} blocks needs a combine: "
                "only arrays concatenate"
            )
        buffers: dict[int, Any] = {
            mid: items for mid, items in items_by_machine.items() if len(items)
        }
    else:
        empty = []
        buffers = {
            mid: list(items) for mid, items in items_by_machine.items() if items
        }
    # From here on a machine's items live in its buffer only, and nothing
    # keeps a block once it is sent and combined: a caller that hands its
    # blocks over gets their memory back as the tree consumes them.
    del items_by_machine
    try:
        for mid in buffers:
            charge(mid)
        while True:
            sources = sorted(
                mid for mid in buffers if mid != dst and len(buffers[mid])
            )
            if not sources:
                break
            fanout = cluster.throttled_fanout(base_fanout, note=note)
            if len(sources) <= fanout:
                representatives = {mid: dst for mid in sources}
            else:
                representatives = {}
                for position, mid in enumerate(sources):
                    group = position // fanout
                    representatives[mid] = sources[group] if sources[group] != mid else mid
            plan = RoundPlan(note=f"{note}/level")
            for mid in sources:
                target = representatives[mid]
                if target == mid:
                    continue
                plan.send_batch(mid, target, buffers[mid])
                buffers[mid] = empty
                charge(mid)
            inboxes = cluster.execute(plan)
            for target, received in inboxes.items():
                held = buffers.get(target, empty)
                if gather:
                    held = held if type(held) is list else [held]
                    buffers[target] = held + received
                elif arrays:
                    buffers[target] = np.concatenate([held, *received])
                else:
                    buffers[target] = held + received
                if combine is not None and target != dst:
                    buffers[target] = combine(buffers[target])
                charge(target)
        result = buffers.get(dst, empty)
        if gather and type(result) is not list:
            result = [result]
        if combine is not None:
            result = combine(result)
        # Record the destination's post-combine peak (it may never see
        # another round), then hand the buffer back to the caller.
        buffers[dst] = result
        charge(dst)
        cluster.checkpoint_memory(f"{note}/result")
    finally:
        # Strict-mode aborts mid-tree must not leave scratch charged.
        for mid in buffers:
            machine = machines.get(mid)
            if machine is not None:
                machine.pop(scratch, None)
    return result
