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
from typing import Any, Callable, Sequence

from .config import ModelConfig
from .errors import CommunicationLimitExceeded, MemoryLimitExceeded, ProtocolError
from .ledger import RoundLedger, Violation
from .machine import LARGE, SMALL, Machine
from .plan import RoundPlan
from .throttle import ThrottleController

__all__ = ["Cluster"]


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

        self.smalls: list[Machine] = [
            Machine(
                i, SMALL, config.small_capacity, strict=config.strict,
                round_source=round_source,
            )
            for i in range(config.num_small)
        ]
        self.larges: list[Machine] = [
            Machine(
                config.num_small + j, LARGE, config.large_capacity,
                strict=config.strict, round_source=round_source,
            )
            for j in range(config.num_large)
        ]
        self.machines: dict[int, Machine] = {
            machine.machine_id: machine for machine in self.smalls + self.larges
        }
        #: Throttle controller (``repro.mpc.throttle``); ``None`` when the
        #: config's throttle mode is ``off`` so the hot path pays nothing.
        self.throttle: ThrottleController | None = (
            ThrottleController(
                config.throttle,
                {mid: machine.capacity for mid, machine in self.machines.items()},
            )
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
    def has_large(self) -> bool:
        return bool(self.larges)

    @property
    def small_ids(self) -> list[int]:
        return [machine.machine_id for machine in self.smalls]

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

        One accounting pass: :meth:`~repro.mpc.plan.RoundPlan.tally`
        sizes every entry exactly once (cached on the plan) and sums
        per-machine send/receive volumes — a scatter with vectorized
        passes — keyed in first-appearance order, and inboxes are filled
        in exact send-call order (``plan.deliveries()``).  Memory usage
        is checked against each machine's capacity as part of the round.
        In strict mode a violation raises
        :class:`CommunicationLimitExceeded` (traffic) or
        :class:`MemoryLimitExceeded` (stored state) before the round is
        recorded, otherwise it is recorded in the ledger as a typed
        :class:`~repro.mpc.ledger.Violation`.  An empty plan is a no-op:
        no data moves, so no round is charged.
        """
        if plan.is_empty:
            return {}
        start = time.perf_counter()
        sent, received, total, items = plan.tally()
        unknown = set(sent).union(received).difference(self.machines)
        if unknown:
            raise ProtocolError(
                f"message involves unknown machine(s) {sorted(unknown)}"
            )
        inboxes = {dst: items_ for dst, items_ in plan.deliveries()}

        note = plan.note
        next_round = self.ledger.rounds + 1
        violations: list[Violation] = []
        for mid, words in sent.items():
            capacity = self.machines[mid].capacity
            if words > capacity:
                violations.append(
                    Violation(mid, "sent", words, capacity, next_round, note)
                )
        for mid, words in received.items():
            capacity = self.machines[mid].capacity
            if words > capacity:
                violations.append(
                    Violation(mid, "received", words, capacity, next_round, note)
                )
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
            traffic_frac = 0.0
            for volumes in (sent, received):
                for mid, words in volumes.items():
                    capacity = self.machines[mid].capacity
                    if capacity:
                        frac = words / capacity
                        if frac > traffic_frac:
                            traffic_frac = frac
            controller.observe(traffic_frac, self._memory_frac)

        self.ledger.record_round(
            note=note,
            total_words=total,
            max_sent=max(sent.values(), default=0),
            max_received=max(received.values(), default=0),
            violations=tuple(violations),
            items=items,
            elapsed=time.perf_counter() - start,
        )
        return inboxes

    def _record_memory(self, note: str = "") -> list[Violation]:
        """Update memory high-water marks; return capacity violations.

        Violation records render like the communication ones ("round R
        [note]: machine M ...") so they land in the same per-round
        ``violations`` tuple and ledger stream.  When a throttle
        controller is attached, the worst usage/capacity fraction of the
        pass is kept for its next load observation.
        """
        violations: list[Violation] = []
        next_round = self.ledger.rounds + 1
        track = self.throttle is not None
        memory_frac = 0.0
        for machine in self.machines.values():
            usage = machine.usage
            self.ledger.record_memory(machine.machine_id, usage)
            if usage > machine.capacity:
                violations.append(
                    Violation(
                        machine.machine_id, "memory", usage, machine.capacity,
                        next_round, note,
                    )
                )
            if track and machine.capacity:
                frac = usage / machine.capacity
                if frac > memory_frac:
                    memory_frac = frac
        if track:
            self._memory_frac = memory_frac
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
    # Simulation-side inspection (costs no rounds; used by orchestration
    # logic and by tests, never as a stand-in for communication).
    # ------------------------------------------------------------------
    def all_items(self, name: str) -> list[Any]:
        items: list[Any] = []
        for machine in self.smalls:
            items.extend(machine.get(name, []))
        return items

    def map_small(self, name: str, fn: Callable[[Machine, list[Any]], list[Any]]) -> None:
        """Apply a local (zero-round) transformation on each small machine.

        Memory is checkpointed after the mutation (the mapped dataset may
        have grown), so callers no longer need their own
        :meth:`checkpoint_memory` to keep high-water marks honest.
        """
        results = [fn(machine, machine.get(name, [])) for machine in self.smalls]
        for machine, result in zip(self.smalls, results):
            machine.put(name, result)
        self.checkpoint_memory(f"map/{name}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(n={self.config.n}, m={self.config.m}, "
            f"smalls={len(self.smalls)}, larges={len(self.larges)}, "
            f"rounds={self.ledger.rounds})"
        )
