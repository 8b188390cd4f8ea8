"""The MPC cluster: machines, synchronous rounds, communication accounting.

The cluster is deliberately *orchestrated*: algorithm code runs centrally
and moves data between machines in synchronous rounds.  The honesty of the
simulation lives in the ledger — every logical communication costs a round,
every payload is charged its word size against the sender's and receiver's
capacity, and *both* per-machine budgets of the heterogeneous MPC model
are enforced: words communicated per round **and** words of local memory.
Memory usage is checked against each machine's capacity at every round
(and at input placement); violations are recorded in the ledger next to
the communication violations, and in strict mode they raise
:class:`MemoryLimitExceeded` / :class:`CommunicationLimitExceeded`
respectively.  (Local computation between rounds is free, exactly as in
the model — but the state it leaves behind is not: scratch datasets count
against memory until they are explicitly freed with ``Machine.pop``.)

The per-machine accounting is by vectors over machine ids, so the Python
work of a round does not grow with the number of machines.  The cluster
holds every machine's usage and capacity as int64 vectors
(:attr:`Cluster.usage`, :attr:`Cluster.capacities`); ``Machine.put`` and
``pop`` update the machine's entry, and :class:`Scratch` (a tree
primitive's in-flight buffers) and :class:`Shard` (a sharded dataset)
charge many machines in one vector update.  A
round's memory record is one vector comparison: high-water marks change
only where usage rose, and violations come out in machine order.  A
round's traffic is summed from the plan's run columns into per-machine
sent and received vectors (:meth:`RoundPlan.volumes`); traffic violations
come out in first-appearance order, as the runs name the machines.

Rounds are executed by the *columnar round engine*: algorithms build a
:class:`~repro.mpc.plan.RoundPlan` (traffic stored as entries in flat
parallel arrays) and hand it to :meth:`Cluster.execute`, which sizes each
entry once (cached on the plan), routes the whole plan in a single
accounting pass, enforces capacities, and fills inboxes in send-call
order; it is the only way to run a round.  Columnar producers use
:meth:`RoundPlan.send_indexed`: a numeric scatter — from one source or
from many — is stored whole and tallied with vectorized per-machine
sums, so a sort route costs O(machines) Python work rather than one run
per ``(src, dst)`` pair.
"""

from __future__ import annotations

import random
import time
from array import array
from typing import Any, Sequence

import numpy as np

from .config import ModelConfig
from .errors import CommunicationLimitExceeded, MemoryLimitExceeded, ProtocolError
from .ledger import RoundLedger, Violation
from .machine import LARGE, SMALL, Machine, memory_limit
from .plan import RoundPlan
from .throttle import ThrottleController
from .words import row_words

__all__ = ["Cluster", "Scratch", "Shard"]

#: Capacities are held as int64; a larger one (a superlinear machine of a
#: large ``f``) is one no usage can reach, stored as this.
_INT64_MAX = np.iinfo(np.int64).max

#: The largest entry of a non-empty vector (or of each row, ``axis=1``).
_peaks = np.maximum.reduce


class Cluster:
    """A heterogeneous MPC cluster built from a :class:`ModelConfig`."""

    def __init__(
        self,
        config: ModelConfig,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self.rng = rng if rng is not None else random.Random(0)
        # Input placement draws from a dedicated stream derived from the
        # cluster seed (the rng's initial state), so adding an unrelated
        # self.rng use later can never shift where the input lands.
        self._placement_rng = random.Random(repr(self.rng.getstate()))
        self.ledger = RoundLedger()
        # Machines report the upcoming round index so strict-mode memory
        # failures at `put` carry *when* the breach happened.
        round_source = lambda: self.ledger.rounds + 1  # noqa: E731

        kinds = [SMALL] * config.num_small + [LARGE] * config.num_large
        capacity = {SMALL: config.small_capacity, LARGE: config.large_capacity}
        # Every machine's memory usage in words, indexed by machine id:
        # machines update their entries in the buffer, vector passes read
        # and update the numpy view of it.
        buffer = array("q", bytes(8 * len(kinds)))
        #: Every machine's memory usage in words, indexed by machine id.
        self.usage = np.frombuffer(buffer, dtype=np.int64)
        #: Every machine's capacity in words, indexed by machine id.
        self.capacities = np.array(
            [min(capacity[kind], _INT64_MAX) for kind in kinds], dtype=np.int64
        )
        self._ids = np.arange(len(kinds), dtype=np.int64)
        # No machine is over capacity while every volume is at most this.
        self._min_capacity = int(self.capacities.min())
        self._shards: dict[str, Shard] = {}  # seen by every small machine
        # Names a small machine put a value of its own under since the
        # cluster last dropped them: the names a store or pop must walk.
        self._owned: set[str] = set()
        machines = [
            Machine(
                mid, kind, capacity[kind], strict=config.strict,
                round_source=round_source, usage=buffer,
                shards=self._shards if kind == SMALL else None,
                owned=self._owned if kind == SMALL else None,
            )
            for mid, kind in enumerate(kinds)
        ]
        self.smalls: list[Machine] = machines[:config.num_small]
        self.larges: list[Machine] = machines[config.num_small:]
        #: The small machines' ids, in machine order.
        self.small_ids: list[int] = [machine.machine_id for machine in self.smalls]
        self.machines: dict[int, Machine] = {
            machine.machine_id: machine for machine in machines
        }
        #: Throttle controller (``repro.mpc.throttle``); ``None`` when the
        #: config's throttle mode is ``off`` so the hot path pays nothing.
        self.throttle: ThrottleController | None = (
            ThrottleController(config.throttle, self.capacities)
            if config.throttle != "off"
            else None
        )
        self._memory_frac = 0.0

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def large(self) -> Machine:
        """The single large machine of the paper's Heterogeneous MPC model."""
        if not self.larges:
            raise ProtocolError("this configuration has no large machine")
        return self.larges[0]

    @property
    def coordinator(self) -> int:
        """The id of the machine a primitive gathers to and broadcasts
        from: the large machine, or the first small machine without one."""
        return self.larges[0].machine_id if self.larges else self.small_ids[0]

    def machine(self, machine_id: int) -> Machine:
        try:
            return self.machines[machine_id]
        except KeyError:
            raise ProtocolError(f"no machine with id {machine_id}") from None

    # ------------------------------------------------------------------
    # The synchronous round
    # ------------------------------------------------------------------
    def execute(self, plan: RoundPlan) -> dict[int, list[Any]]:
        """Run *plan* as one synchronous round (or several, throttled).

        With throttling enforced (``config.throttle == "enforce"``)
        a plan whose per-machine volumes would breach the headroom
        budgets is first split at the run-column boundary
        (:meth:`~repro.mpc.throttle.ThrottleController.split_plan`) and
        executed as consecutive rounds — same payloads, same
        per-destination order, each round within budget; the extra
        rounds are the (ledger-visible) price of staying under the hard
        limits.  Otherwise the plan runs as exactly one round.  Returns
        the inbox of each machine that received at least one item.
        """
        if plan.is_empty:
            return {}
        controller = self.throttle
        if controller is not None and controller.enforcing:
            chunks = controller.split_plan(plan)
            if len(chunks) > 1:
                inboxes: dict[int, list[Any]] = {}
                for chunk in chunks:
                    for dst, items in self._execute_round(chunk).items():
                        inboxes.setdefault(dst, []).extend(items)
                return inboxes
        return self._execute_round(plan)

    def _execute_round(self, plan: RoundPlan) -> dict[int, list[Any]]:
        """Run *plan* as exactly one synchronous round.

        One accounting pass: :meth:`~repro.mpc.plan.RoundPlan.volumes`
        sizes every entry exactly once (cached on the plan) and sums the
        plan's run columns into per-machine sent and received vectors,
        and inboxes are filled in exact send-call order
        (``plan.deliveries()``).  Traffic violations come out in order of
        first appearance over the plan's runs (senders, then receivers).
        Memory usage is checked against each machine's capacity as part of
        the round.  In strict mode a violation raises
        :class:`CommunicationLimitExceeded` (traffic) or
        :class:`MemoryLimitExceeded` (stored state) before the round is
        recorded, otherwise it is recorded in the ledger as a typed
        :class:`~repro.mpc.ledger.Violation`.  An empty plan is a no-op:
        no data moves, so no round is charged.
        """
        if plan.is_empty:
            return {}
        start = time.perf_counter()
        volumes, total, items = plan.volumes(len(self.usage))
        inboxes = dict(plan.deliveries())

        note = plan.note
        next_round = self.ledger.rounds + 1
        max_sent, max_received = map(int, _peaks(volumes, axis=1).tolist())
        violations: list[Violation] = []
        if max(max_sent, max_received) > self._min_capacity:
            for side, kind, peak in (
                (0, "sent", max_sent), (1, "received", max_received)
            ):
                if peak <= self._min_capacity:
                    continue
                words = volumes[side]
                over = words > self.capacities
                column = plan.run_columns()[side]
                # The machines over capacity, in run order, once each.
                for mid in dict.fromkeys(column[over[column]].tolist()):
                    violations.append(Violation(
                        mid, kind, int(words[mid]), self.machines[mid].capacity,
                        next_round, note,
                    ))
        if violations and self.config.strict:
            raise CommunicationLimitExceeded(
                "; ".join(violations), violations=violations
            )
        memory_violations = self._record_memory(note)
        if memory_violations and self.config.strict:
            raise MemoryLimitExceeded(
                "; ".join(memory_violations), violations=memory_violations
            )
        violations.extend(memory_violations)

        controller = self.throttle
        if controller is not None:
            traffic = _peaks(volumes / self.capacities, axis=None)
            controller.observe(float(traffic), self._memory_frac)

        self.ledger.record_round(
            note=note,
            total_words=total,
            max_sent=max_sent,
            max_received=max_received,
            violations=tuple(violations),
            items=items,
            elapsed=time.perf_counter() - start,
        )
        return inboxes

    def _record_memory(self, note: str = "") -> list[Violation]:
        """Update memory high-water marks; return capacity violations.

        One vector pass over :attr:`usage`: the ledger raises the marks
        where usage rose, and every machine over its capacity is a
        violation, in machine order.  Violation records render like the
        communication ones ("round R [note]: machine M ...") so they land
        in the same per-round ``violations`` tuple and ledger stream.  When
        a throttle controller is attached, the worst usage/capacity
        fraction of the pass is kept for its next load observation.
        """
        usage = self.usage
        self.ledger.record_memory(self._ids, usage)
        violations: list[Violation] = []
        over = usage > self.capacities
        if np.count_nonzero(over):
            over = np.flatnonzero(over)
            next_round = self.ledger.rounds + 1
            violations = [
                Violation(
                    mid, "memory", words, self.machines[mid].capacity, next_round, note
                )
                for mid, words in zip(over.tolist(), usage[over].tolist())
            ]
        if self.throttle is not None:
            self._memory_frac = float(_peaks(usage / self.capacities))
        return violations

    def checkpoint_memory(self, note: str = "") -> list[Violation]:
        """Check memory between rounds (input placement, cast boundaries).

        Updates high-water marks, appends any over-capacity messages to the
        ledger's ``violations`` stream, and — matching the per-round check
        of :meth:`execute` — raises :class:`MemoryLimitExceeded` in strict
        mode.  Returns the violation messages otherwise.
        """
        violations = self._record_memory(note)
        if violations and self.config.strict:
            raise MemoryLimitExceeded("; ".join(violations), violations=violations)
        self.ledger.violations.extend(violations)
        return violations

    # ------------------------------------------------------------------
    # Throttle hooks (consulted by the primitives)
    # ------------------------------------------------------------------
    def throttled_fanout(self, base: int, note: str = "") -> int:
        """The tree fanout the primitives should use this phase: *base*
        unless the throttle controller is enforcing and forecasting an
        over-headroom round (see :mod:`repro.mpc.throttle`)."""
        if self.throttle is None:
            return base
        return self.throttle.fanout(base, note=note)

    def throttled_sample_rate(self, base: float, note: str = "") -> float:
        """The sampling rate the primitives should use this phase (same
        contract as :meth:`throttled_fanout`)."""
        if self.throttle is None:
            return base
        return self.throttle.sample_rate(base, note=note)

    # ------------------------------------------------------------------
    # Common one-round patterns
    # ------------------------------------------------------------------
    def gather(
        self,
        dst: int,
        items_by_src: dict[int, Sequence[Any]],
        note: str = "gather",
    ) -> list[Any]:
        """All listed machines send their items to *dst* in one round."""
        plan = RoundPlan(note=note)
        for src, items in items_by_src.items():
            plan.send_batch(src, dst, items)
        inboxes = self.execute(plan)
        return inboxes.get(dst, [])

    def scatter(
        self,
        src: int,
        items_by_dst: dict[int, Sequence[Any]],
        note: str = "scatter",
    ) -> dict[int, list[Any]]:
        """Machine *src* sends a list of items to each destination, one round."""
        plan = RoundPlan(note=note)
        for dst, items in items_by_dst.items():
            plan.send_batch(src, dst, items)
        return self.execute(plan)

    # ------------------------------------------------------------------
    # Input placement
    # ------------------------------------------------------------------
    def distribute_edges(
        self,
        edges: Sequence[Any],
        name: str = "edges",
        shuffle: bool = True,
    ) -> None:
        """Place the input edges on the small machines (arbitrarily, as the
        model allows; costs zero rounds — this is the *initial* state).

        The shuffle draws from the dedicated placement RNG, so the
        placement of a given input under a given cluster seed is stable no
        matter what else consumed ``self.rng`` beforehand.  Oversized
        placements are memory violations: recorded in the ledger, raised
        as :class:`MemoryLimitExceeded` in strict mode (by ``Machine.put``
        itself).
        """
        if not self.smalls:
            raise ProtocolError(
                "cannot distribute input: this configuration has no small "
                "machines to hold it"
            )
        order = list(edges)
        if shuffle:
            self._placement_rng.shuffle(order)
        buckets: list[list[Any]] = [[] for _ in self.smalls]
        for index, edge in enumerate(order):
            buckets[index % len(buckets)].append(edge)
        for machine, bucket in zip(self.smalls, buckets):
            machine.put(name, bucket)
        self.checkpoint_memory(f"input/{name}")

    # ------------------------------------------------------------------
    # Sharded datasets
    # ------------------------------------------------------------------
    def store(self, name: str, block: Any, counts: Any) -> None:
        """Store the record batch *block* (numpy ``block.columns``) as
        dataset *name*, replacing what the small machines held: machine
        ``i`` holds the next ``counts[i]`` rows, charged as putting them
        would be.  In strict mode the machines are checked in machine
        order, as their puts would be."""
        stops = np.cumsum(counts, dtype=np.int64)
        self._place(name, Shard(block, stops - counts, stops))

    def rebound(self, name: str, starts: Any, stops: Any) -> None:
        """New row bounds over the columns of the sharded dataset *name*:
        small machine ``i`` holds rows ``starts[i]:stops[i]``; checked as
        :meth:`store` checks."""
        shard = self._shards[name]
        self._place(name, Shard(shard.block, starts, stops, shard.prefix))

    def _place(self, name: str, shard: "Shard") -> None:
        k = len(self.smalls)
        self._drop_owned(name)
        old = self._shards.get(name)
        after = self.usage[:k] + shard.charges
        if old is not None:
            after -= old.charges
        self._refuse(self._ids[:k], after, shard.charges, name)
        self.usage[:k] = after
        self._shards[name] = shard

    def _refuse(self, ids: Any, after: Any, words: Any, name: str) -> None:
        """In strict mode, raise what putting ``words`` under *name* raises
        on the first of machines *ids* whose usage *after* is too much."""
        over = np.flatnonzero(after > self.capacities[ids])
        if self.config.strict and len(over):
            first = int(over[0])
            machine = self.machines[int(ids[first])]
            raise memory_limit(
                machine.machine_id, machine.kind, int(after[first]), machine.capacity,
                self.ledger.rounds + 1, name, int(words[first]),
            )

    def shard(self, name: str) -> "Shard | None":
        """The sharded dataset *name*, or ``None``."""
        return self._shards.get(name)

    def pop(self, name: str) -> "Shard | None":
        """Drop dataset *name* from every small machine; return its shard,
        popped in one vector update."""
        shard = self._shards.pop(name, None)
        if shard is not None:
            self.usage[:len(self.smalls)] -= shard.charges
        else:
            self._drop_owned(name)
        return shard

    def _drop_owned(self, name: str) -> None:
        """Drop the values small machines put under *name* themselves (a
        name that is sharded has none)."""
        if name in self._owned:
            self._owned.discard(name)
            for machine in self.smalls:
                machine.drop(name)

    # ------------------------------------------------------------------
    # Simulation-side inspection (costs no rounds; used by orchestration
    # logic and by tests, never as a stand-in for communication).
    # ------------------------------------------------------------------
    def all_items(self, name: str) -> list[Any]:
        items: list[Any] = []
        for machine in self.smalls:
            items.extend(machine.get(name, []))
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n={self.config.n}, m={self.config.m}, "
            f"smalls={len(self.smalls)}, larges={len(self.larges)}, "
            f"rounds={self.ledger.rounds})"
        )


class Scratch:
    """Scratch state charged to machines outside any dataset: a tree
    primitive's in-flight buffers.

    ``words[mid]`` is what the scratch charges machine ``mid`` (an int64
    vector over machine ids, like :attr:`Cluster.usage`, into which every
    charge is added).  :meth:`charge` sets the charges of many machines in
    one vector update; :meth:`free` frees some, :meth:`release` all.  A
    machine's charge counts against its memory exactly like a dataset of
    *name* holding the buffer: the per-round record sees it, and in strict
    mode a charge that takes a machine past its capacity raises the
    :class:`~repro.mpc.errors.MemoryLimitExceeded` that putting the buffer
    would — the machines checked in the order given, the first breach
    raised, and nothing of that charge applied.
    """

    def __init__(self, cluster: Cluster, name: str) -> None:
        self.cluster = cluster
        self.name = name
        self.words = np.zeros(len(cluster.usage), dtype=np.int64)

    def charge(self, machine_ids: Any, words: Any) -> None:
        """Set the charge of each of the distinct *machine_ids* (a 1-D
        sequence) to the matching entry of *words*; a zero frees it."""
        ids = np.asarray(machine_ids, dtype=np.int64)
        words = np.asarray(words, dtype=np.int64)
        cluster = self.cluster
        delta = words - self.words[ids]
        if cluster.config.strict:
            hoard = words > 0
            after = (cluster.usage[ids] + delta)[hoard]
            cluster._refuse(ids[hoard], after, words[hoard], self.name)
        cluster.usage[ids] += delta
        self.words[ids] = words

    def free(self, machine_ids: Any) -> None:
        """Free the charges of the distinct *machine_ids*."""
        ids = np.asarray(machine_ids, dtype=np.int64)
        self.cluster.usage[ids] -= self.words[ids]
        self.words[ids] = 0

    def release(self) -> None:
        """Free every charge."""
        self.cluster.usage -= self.words
        self.words[:] = 0


class Shard:
    """One block of every small machine's rows, ordered by machine: small
    machine ``i`` holds rows ``starts[i]:stops[i]``, charged
    ``charges[i]`` words, as putting them would be
    (:func:`~repro.mpc.words.row_words`)."""

    __slots__ = ("block", "starts", "stops", "charges", "prefix", "_rows")

    def __init__(self, block: Any, starts: Any, stops: Any, prefix: Any = None) -> None:
        self.block = block
        self.starts = np.array(starts, dtype=np.int64)
        self.stops = np.array(stops, dtype=np.int64)
        # Typed columns' words per row; prefix sums of object row words.
        self.prefix = typed, words = prefix or _prefix_words(block.columns)
        self.charges = typed * (self.stops - self.starts)
        if words is not None:
            self.charges += words[self.stops] - words[self.starts]
        self._rows: dict[int, Any] = {}

    def columns(self) -> list[Any]:
        """Every machine's rows as one column per field, in machine order
        (``[]`` without rows): the block's own columns when the bounds
        tile it, gathered when they skip rows."""
        counts = self.stops - self.starts
        if not counts.any():
            return []
        columns = list(self.block.columns)
        shift = np.repeat(self.starts - (np.cumsum(counts) - counts), counts)
        if len(shift) != len(columns[0]) or shift.any():
            columns = [col[shift + np.arange(len(shift))] for col in columns]
        return columns

    def rows(self, slot: int) -> Any:
        """Machine *slot*'s slice, ``[]`` when empty (one object per
        machine, so a block's rows materialize once)."""
        if slot not in self._rows:
            lo, hi = int(self.starts[slot]), int(self.stops[slot])
            self._rows[slot] = self.block[lo:hi] if hi > lo else []
        return self._rows[slot]


def _prefix_words(columns: Sequence[Any]) -> tuple[int, Any]:
    if not {col.dtype.kind for col in columns} <= set("iufbO"):
        raise TypeError("a sharded dataset's columns must be numeric or of dtype object")
    objects = [row_words(col) for col in columns if col.dtype.kind == "O"]
    if not objects:
        return len(columns), None
    words = np.zeros(len(objects[0]) + 1, dtype=np.int64)
    np.cumsum(sum(objects), out=words[1:])
    return len(columns) - len(objects), words
