"""Round accounting for the MPC simulator.

The ledger is the simulator's source of truth for the quantity the paper
cares about: the number of synchronous communication rounds.  Every round
:meth:`Cluster.execute` runs is recorded here, together with the
per-machine send/receive volumes of that round and any capacity
violations.

Two structuring tools mirror how the paper charges rounds:

* :meth:`RoundLedger.section` labels a block of rounds (e.g. ``"boruvka
  step 3"``) so benchmarks can report per-phase counts.

* :meth:`RoundLedger.parallel` models the paper's *parallel repetition*
  idiom ("repeat the entire process O(log n) times, in parallel").  The
  simulator runs repetitions sequentially, but all branches of a parallel
  section execute in the same rounds, so the section charges the *maximum*
  round count over its branches rather than the sum.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["NoteStats", "RoundLedger", "RoundRecord", "Violation"]

#: The violation kinds a :class:`Violation` can carry.
VIOLATION_KINDS = ("sent", "received", "memory")


class Violation(str):
    """A typed capacity-violation record.

    Subclasses ``str`` so every existing consumer of the ledger's
    violation stream — golden hashes, substring assertions, ``"; "``
    joins in strict-mode exceptions — keeps seeing the exact legacy
    message rendering, while new consumers (the throttle controller,
    regression tests, artifacts) read the structured fields instead of
    parsing strings.

    Attributes:
        machine_id: the machine that breached its budget.
        kind: one of :data:`VIOLATION_KINDS` — ``"sent"`` / ``"received"``
            for per-round bandwidth, ``"memory"`` for stored state.
        amount: the offending volume, in words.
        capacity: the machine's budget, in words.
        round: the 1-based round index the breach belongs to (for
            between-round checks: the upcoming round).
        note: the round's note label (or the dataset name for
            ``Machine.put`` strict failures).
    """

    machine_id: int
    kind: str
    amount: int
    capacity: int
    round: int
    note: str

    def __new__(
        cls,
        machine_id: int,
        kind: str,
        amount: int,
        capacity: int,
        round: int,
        note: str = "",
    ) -> "Violation":
        if kind not in VIOLATION_KINDS:
            raise ValueError(f"unknown violation kind {kind!r}")
        if kind == "memory":
            text = (
                f"round {round} [{note}]: machine {machine_id} holds "
                f"{amount} > memory capacity {capacity}"
            )
        else:
            text = (
                f"round {round} [{note}]: machine {machine_id} {kind} "
                f"{amount} > capacity {capacity}"
            )
        self = super().__new__(cls, text)
        self.machine_id = machine_id
        self.kind = kind
        self.amount = amount
        self.capacity = capacity
        self.round = round
        self.note = note
        return self


@dataclass
class RoundRecord:
    """Statistics of one communication round.

    ``violations`` holds :class:`Violation` records (``str`` subclasses
    rendering the legacy messages).
    """

    index: int
    note: str
    total_words: int
    max_sent: int
    max_received: int
    violations: tuple[str, ...] = ()
    items: int = 0
    elapsed: float = 0.0


@dataclass
class NoteStats:
    """Aggregate statistics over every round sharing one note label.

    Benchmarks use these to attribute cost: ``rounds`` and ``total_words``
    are model-level quantities, ``items`` counts logical payloads routed,
    and ``elapsed`` is simulator wall-clock time (seconds) — the only
    non-model field, useful for finding the hot exchanges.
    """

    rounds: int = 0
    total_words: int = 0
    items: int = 0
    elapsed: float = 0.0


@dataclass
class RoundLedger:
    """Accumulates rounds, communication volume and capacity violations."""

    rounds: int = 0
    records: list[RoundRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    memory_high_water: dict[int, int] = field(default_factory=dict)
    note_stats: dict[str, NoteStats] = field(default_factory=dict)
    _sections: list[str] = field(default_factory=list)
    # The high-water marks as an int64 vector over machine ids (0 where
    # none), so a round's memory record is one vector comparison.
    _marks: Any = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64), repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_round(
        self,
        note: str,
        total_words: int,
        max_sent: int,
        max_received: int,
        violations: tuple[str, ...] = (),
        items: int = 0,
        elapsed: float = 0.0,
    ) -> RoundRecord:
        self.rounds += 1
        label = " / ".join(self._sections + [note]) if note else " / ".join(self._sections)
        record = RoundRecord(
            index=self.rounds,
            note=label,
            total_words=total_words,
            max_sent=max_sent,
            max_received=max_received,
            violations=violations,
            items=items,
            elapsed=elapsed,
        )
        self.records.append(record)
        self.violations.extend(violations)
        stats = self.note_stats.get(label)
        if stats is None:
            stats = self.note_stats[label] = NoteStats()
        stats.rounds += 1
        stats.total_words += total_words
        stats.items += items
        stats.elapsed += elapsed
        return record

    def charge(self, rounds: int, note: str = "charged") -> None:
        """Charge *rounds* synchronous rounds without moving simulated data.

        Used for subroutines whose round structure is known but whose
        message-level simulation is out of scope (the Lemma 5.2 phase-1
        matching substitute); every use is documented under "Substitutions"
        in ``docs/THEOREM_MAP.md``.
        """
        for _ in range(max(0, rounds)):
            self.record_round(note=note, total_words=0, max_sent=0, max_received=0)

    def record_memory(self, ids: Any, words: Any) -> None:
        """Raise the high-water marks of machines *ids* to *words* where
        they are higher: parallel int64 arrays of distinct ids and their
        usages (the cluster passes every machine's, once per recorded
        round).

        A mark changes only where usage rose, and a machine enters
        :attr:`memory_high_water` when its usage first exceeds zero —
        machines that rise in the same record enter in the order given.
        """
        marks = self._marks
        try:
            rose = words > marks[ids]
        except IndexError:  # a machine id past the marks so far
            marks = self._marks = np.concatenate(
                (marks, np.zeros(int(ids.max()) + 1 - len(marks), dtype=np.int64))
            )
            rose = words > marks[ids]
        if np.count_nonzero(rose):
            ids, words = ids[rose], words[rose]
            marks[ids] = words
            self.memory_high_water.update(zip(ids.tolist(), words.tolist()))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @contextmanager
    def section(self, label: str):
        """Label the rounds executed inside the ``with`` block."""
        self._sections.append(label)
        try:
            yield
        finally:
            self._sections.pop()

    @contextmanager
    def parallel(self, label: str = "parallel"):
        """A parallel-repetition section; see the module docstring."""
        section = ParallelSection(self, label)
        with self.section(label):
            yield section
        section.finalize()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_words(self) -> int:
        return sum(record.total_words for record in self.records)

    @property
    def max_memory(self) -> int:
        """Highest memory high-water mark over all machines, in words."""
        return max(self.memory_high_water.values(), default=0)

    def hottest_notes(self, limit: int = 10) -> list[tuple[str, NoteStats]]:
        """Note labels ranked by simulator wall-clock time, hottest first."""
        ranked = sorted(
            self.note_stats.items(), key=lambda pair: pair[1].elapsed, reverse=True
        )
        return ranked[:limit]

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "total_words": self.total_words,
            "violations": len(self.violations),
            "max_memory": self.max_memory,
        }


class ParallelSection:
    """Tracks branch round counts inside :meth:`RoundLedger.parallel`."""

    def __init__(self, ledger: RoundLedger, label: str) -> None:
        self._ledger = ledger
        self._label = label
        self._start = ledger.rounds
        self._branch_rounds: list[int] = []
        self._open = True

    @contextmanager
    def branch(self):
        """Run one repetition; its rounds overlap with sibling branches."""
        if not self._open:
            raise RuntimeError("parallel section already finalized")
        start = self._ledger.rounds
        try:
            yield
        finally:
            self._branch_rounds.append(self._ledger.rounds - start)
            # Rewind: sibling branches share the same physical rounds.
            self._ledger.rounds = start

    def finalize(self) -> None:
        self._open = False
        if self._branch_rounds:
            self._ledger.rounds = self._start + max(self._branch_rounds)
