"""Tree broadcast and converge-cast over the small machines.

The proofs of Claims 2 and 3 route information along trees with branching
factor ``n^gamma``, giving depth ``O((1-gamma)/gamma) = O(1)`` for constant
``gamma``.  These two functions are the reusable building blocks: broadcast
pushes one value from a source to many machines; converge-cast pulls items
from many machines to one destination, combining partial results at every
level so no intermediate machine receives more than it can store.

Both work level by level on int64 vectors over machine ids, so the Python
work of a tree level does not grow with the machines it spans:

* a broadcast level is one plan entry — one payload on many routes
  (:meth:`~repro.mpc.plan.RoundPlan.send_multicast`), sized once;
* a converge-cast level picks every holder's representative with one
  vector op, and charges the level's holders their in-flight buffers with
  one vector update (:class:`~repro.mpc.cluster.Scratch`).  An array cast
  takes every holder's rows as one array with an owner column, holders
  ascending, and moves a level as one scatter given by its runs
  (:meth:`~repro.mpc.plan.RoundPlan.send_runs`); a named reducer
  combines a whole level with one grouped reduce over ``(holder, key)``.
  Casts of lists and of other blocks keep one buffer per holder and
  combine each holder's buffer with the caller's function.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from ..mpc.cluster import Cluster, Scratch
from ..mpc.plan import Block, RoundPlan
from ..mpc.words import word_size
from . import columnar

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

    Every holder pushes the value to the next ``fanout`` machines still
    waiting, holders in the order they got it; a level is one multicast
    entry, so the value is sized once per level.  The fanout is a throttle
    hook: consulted per level, so an enforcing controller forecasting an
    over-headroom round narrows the tree (more levels, each sender pushing
    fewer copies per round)."""
    base_fanout = cluster.config.tree_fanout
    holders = np.array([src], dtype=np.int64)
    pending = np.asarray(dst_ids, dtype=np.int64).reshape(-1)
    pending = pending[pending != src]
    rounds = 0
    while len(pending):
        fanout = cluster.throttled_fanout(base_fanout, note=note)
        count = min(len(pending), len(holders) * fanout)
        targets = pending[:count]
        plan = RoundPlan(note=f"{note}/push")
        plan.send_multicast(holders[np.arange(count) // fanout], targets, value)
        pending = pending[count:]
        cluster.execute(plan)
        holders = np.concatenate((holders, targets))
        rounds += 1
    return rounds


def converge_cast(
    cluster: Cluster,
    items: dict[int, Any] | tuple[Any, Any],
    dst: int,
    combine: Callable[[list[Any]], Any] | columnar.Reducer | None = None,
    note: str = "converge",
) -> Any:
    """Funnel items from many machines into *dst* along a fanout tree.

    *items* maps each machine to its items (a list, or a block that is
    not a numpy array), or is one ``(owners, rows)`` pair for an array
    cast (see below).  *combine* (if given) is applied to each
    intermediate machine's buffer after every level — this is how
    aggregation keeps intermediate volumes bounded (Claim 2).  Returns the
    items that reach *dst*.

    The tree: at every level the machines other than *dst* that hold
    items, ascending, are the sources; with at most ``fanout`` of them
    they all send to *dst*, otherwise the one at position ``p`` sends to
    the source at position ``p // fanout`` (which keeps its items if that
    is itself).  A receiver's buffer is its held items first, then the
    received ones in source order.

    Memory honesty: every in-flight buffer is charged to the machine
    holding it (a :class:`~repro.mpc.cluster.Scratch` named
    ``"<note>#cast-buffer"``, updated for a whole level at once), so the
    per-round memory check sees the tree's intermediate state, and strict
    mode fails a cast whose buffers outgrow a machine — exactly the
    condition Claim 2's per-level combining is there to prevent.  The
    scratch is freed as buffers drain; the combined result is the caller's
    to charge wherever it stores it.

    The fan-in is a throttle hook (consulted per level, like
    :func:`broadcast`'s fanout): narrowing the tree shrinks both the
    per-round receive volume and the in-flight buffer growth at every
    intermediate machine.

    * An array cast takes ``(owners, rows)``: a numeric ``(n, ...)``
      array of every machine's rows (leading axis indexing items) and an
      int64 column of each row's machine, ascending.  Its buffers stay
      one array, so every send and every charge is sized O(1), each level
      is one scatter, and the result is an array.  *combine* is ``None``
      — a machine's held rows come first, then the received rows — or a
      named reducer (:class:`~repro.primitives.columnar.Reducer`) over
      ``(key, value)`` rows, which combines the whole level — and the
      destination's rows at the end — with one grouped reduce over
      ``(holder, key)``, each holder's keys in first-encounter order.
    * A cast of lists, or of :class:`~repro.mpc.plan.Block` objects,
      keeps one buffer per holder and sends it as one run; a holder that
      has sent its items holds a fresh empty list (or block), and
      *combine* maps a holder's buffer to its combined items.  Blocks
      stay blocks: *combine* sees the holder's list of held and received
      blocks (the destination keeps its received blocks as a list,
      charged as the sum of its blocks, until the final combine), so a
      block cast without *combine* raises :class:`TypeError` — only
      arrays concatenate.

    Rows, rounds, words and memory charges of the block forms are those
    of the equivalent lists of tuples.
    """
    base_fanout = cluster.config.tree_fanout
    if isinstance(items, tuple):
        if combine is not None and not isinstance(combine, columnar.Reducer):
            raise TypeError("an array cast takes a named reducer or no combine")
        buffers: Any = _Rows(*items, dst, combine)
    else:
        kinds = set(map(type, items.values()))
        if any(issubclass(kind, np.ndarray) for kind in kinds):
            raise TypeError("an array cast takes one (owners, rows) pair")
        if isinstance(combine, columnar.Reducer):
            raise TypeError("a named reducer combines an array cast's rows")
        blocks = bool(kinds) and all(issubclass(kind, Block) for kind in kinds)
        if blocks and combine is None:
            first = next(iter(items.values()))
            raise TypeError(
                f"a cast of {type(first).__name__} blocks needs a combine: "
                "only arrays concatenate"
            )
        buffers = _Holders(items, dst, combine, blocks)
    # From here on a machine's items live in the cast's buffers only, and
    # nothing keeps a block once it is sent and combined: a caller that
    # hands its blocks over gets their memory back as the tree consumes
    # them.
    del items
    scratch = Scratch(cluster, f"{note}#cast-buffer")
    try:
        scratch.charge(*buffers.initial_charges())
        while True:
            sources = buffers.sources()
            if not len(sources):
                break
            fanout = cluster.throttled_fanout(base_fanout, note=note)
            if len(sources) <= fanout:
                targets = np.full(len(sources), dst, dtype=np.int64)
            else:
                targets = sources[np.arange(len(sources)) // fanout]
            plan = RoundPlan(note=f"{note}/level")
            scratch.free(buffers.send(plan, sources, targets))
            inboxes = cluster.execute(plan)
            scratch.charge(*buffers.receive(inboxes))
        result = buffers.result()
        # Record the destination's post-combine peak (it may never see
        # another round), then hand the buffer back to the caller.
        scratch.charge([dst], [word_size(result) if len(result) else 0])
        cluster.checkpoint_memory(f"{note}/result")
    finally:
        # Strict-mode aborts mid-tree must not leave scratch charged.
        scratch.release()
    return result


class _Rows:
    """The buffers of an array cast: every holder's rows but the
    destination's in one array ``rows`` — ``holders`` ascending,
    ``counts[i]`` rows of ``holders[i]`` each, a holder's rows contiguous:
    held first, then received in source order — and the destination's
    rows in a list of arrays.

    A level moves rows without reordering them: the sources of a group
    are consecutive holders whose representative is the group's first
    member or an earlier holder, so after the level every representative's
    rows — its held rows, then its sources' — are still contiguous, in
    order.  The level's scatter delivers those same rows, one run per
    sending holder.
    """

    def __init__(self, owners: Any, rows: Any, dst: int, combine: Any) -> None:
        if len(owners) > 1 and (owners[1:] < owners[:-1]).any():
            raise ValueError("an array cast's owners must ascend")
        self.empty = np.zeros_like(rows[:0])  # no view
        self.dst = dst
        self.combine = combine
        starts = columnar.first_of_runs([owners]).nonzero()[0]
        ids = owners[starts]
        counts = np.diff(starts, append=len(owners))
        self._initial = (ids, counts * math.prod(rows.shape[1:]))
        others = ids != dst
        if others.all():
            self.at_dst: list[Any] = []
        else:
            at_dst = owners == dst
            self.at_dst = [rows[at_dst]]
            rows = rows[~at_dst]
        self.holders = ids[others]
        self.counts = counts[others]
        self.rows = rows
        self._targets: Any = None

    def initial_charges(self) -> tuple[Any, Any]:
        return self._initial

    def sources(self) -> Any:
        return self.holders

    def send(self, plan: RoundPlan, sources: Any, targets: Any) -> Any:
        """Queue the level as one scatter; return the machines that send."""
        # Every source sends but the first when it is its own
        # representative, and its rows lead the array.
        first = int(targets[0] == sources[0])
        keep = int(self.counts[0]) if first else 0
        plan.send_runs(
            sources[first:], targets[first:], self.counts[first:], self.rows[keep:]
        )
        self._targets = targets
        return sources[first:]

    def receive(self, inboxes: dict[int, list[Any]]) -> tuple[Any, Any]:
        """Combine what the level delivered; return the receivers, in
        delivery order, and their new buffer sizes."""
        dst = self.dst
        if dst in inboxes:  # the level sent everything to the destination
            self.at_dst.extend(inboxes[dst])
            self.holders = self.holders[:0]
            self.counts = self.counts[:0]
            self.rows = self.rows[:0]
            return [dst], [sum(int(block.size) for block in self.at_dst)]
        # Every representative receives (its group has a sender), and the
        # targets ascend: the receivers in delivery order are the new
        # holders.
        targets = self._targets
        starts = columnar.first_of_runs([targets]).nonzero()[0]
        self.holders = receivers = targets[starts]
        self.counts = np.add.reduceat(self.counts, starts)
        if self.combine is not None:
            # One grouped reduce for the level; a holder keeps at least
            # one row per key it held.
            self.rows, owners = columnar.reduce_rows(
                self.rows, self.combine, groups=np.repeat(receivers, self.counts)
            )
            self.counts = np.diff(np.searchsorted(owners, receivers, "right"), prepend=0)
        return receivers, self.counts * math.prod(self.rows.shape[1:])

    def result(self) -> Any:
        at_dst = self.at_dst
        rows = (
            at_dst[0] if len(at_dst) == 1
            else np.concatenate(at_dst) if at_dst else self.empty
        )
        if self.combine is None:
            return rows
        return columnar.reduce_rows(rows, self.combine)[0]


class _Holders:
    """The buffers of a list or :class:`~repro.mpc.plan.Block` cast: one
    per holder, sent as one run and combined per holder."""

    def __init__(
        self, items_by_machine: dict[int, Any], dst: int, combine: Any, blocks: bool
    ) -> None:
        self.dst = dst
        self.combine = combine
        self.gather = blocks  # a block cast has a combine: the dst gathers
        if blocks:
            self.empty: Any = next(iter(items_by_machine.values()))[:0]
            self.buffers: dict[int, Any] = {
                mid: items for mid, items in items_by_machine.items() if len(items)
            }
        else:
            self.empty = []
            self.buffers = {
                mid: list(items) for mid, items in items_by_machine.items() if items
            }

    def initial_charges(self) -> tuple[list[int], list[int]]:
        return list(self.buffers), [word_size(b) for b in self.buffers.values()]

    def sources(self) -> Any:
        dst = self.dst
        return np.array(
            sorted(mid for mid, buffer in self.buffers.items() if mid != dst and len(buffer)),
            dtype=np.int64,
        )

    def send(self, plan: RoundPlan, sources: Any, targets: Any) -> list[int]:
        senders = []
        buffers = self.buffers
        for mid, target in zip(sources.tolist(), targets.tolist()):
            if target != mid:
                plan.send_batch(mid, target, buffers[mid])
                buffers[mid] = self.empty
                senders.append(mid)
        return senders

    def receive(self, inboxes: dict[int, list[Any]]) -> tuple[list[int], list[int]]:
        buffers, combine, dst = self.buffers, self.combine, self.dst
        for target, received in inboxes.items():
            held = buffers.get(target, self.empty)
            if self.gather and type(held) is not list:
                held = [held]
            buffer = held + received
            if combine is not None and target != dst:
                buffer = combine(buffer)
            buffers[target] = buffer
        receivers = list(inboxes)
        return receivers, [
            word_size(buffers[mid]) if len(buffers[mid]) else 0 for mid in receivers
        ]

    def result(self) -> Any:
        result = self.buffers.get(self.dst, self.empty)
        if self.gather and type(result) is not list:
            result = [result]
        if self.combine is not None:
            result = self.combine(result)
        return result
