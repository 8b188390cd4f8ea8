"""Adaptive communication throttling: the feedback-control layer.

The ledger *records* capacity violations; this module closes the loop so
protocols stay under budget on adversarially dense inputs instead of
merely reporting the breach.  Two pieces:

* :class:`PeakHoldLoadEstimator` — predicts next-round per-machine load
  from the ledger's per-round stream.  Each executed round contributes
  one *load fraction* per budget (worst ``words / capacity`` over the
  machines for traffic, worst ``usage / capacity`` for memory); the
  prediction is the held peak over a sliding window of recent rounds.
  Peak-hold rather than a mean is deliberate: the budgets are hard
  per-round limits, so the controller must provision for the recent
  worst case, not the average — a single over-budget round is a
  violation no matter how idle its neighbours were.

* :class:`ThrottleController` — owns the estimator and the degradation
  machinery, configured by a :class:`ThrottlePolicy` on
  :class:`~repro.mpc.config.ModelConfig`:

  - ``mode="off"``: no controller is attached at all; the hot path and
    every artifact byte are identical to a build without this module.
  - ``mode="advise"``: the estimator runs and throttling *decisions*
    are recorded as :class:`ThrottleEvent` entries, but behaviour is
    unchanged — a dry run for sizing headroom.
  - ``mode="enforce"``: decisions are applied.  An over-budget
    :class:`~repro.mpc.plan.RoundPlan` is split across extra rounds at
    the run-column boundary (:meth:`ThrottleController.split_plan`),
    and the primitives lower participation through the throttle hooks
    (tree fan-in/out via :meth:`~ThrottleController.fanout`, sort
    sample rates via :meth:`~ThrottleController.sample_rate`).

Determinism: every decision is a pure function of the policy and the
ledger history, both of which are bit-identical across serial/parallel
scenario execution — so throttled artifacts stay byte-deterministic
(pinned by tests and the determinism CI job).

Honesty: splitting re-schedules *transport* — each extra round is
charged to the ledger like any other round.  It cannot shrink a
machine's *stored* state; memory violations are predicted and surfaced
(:meth:`~ThrottleController.note_bank`, advise events) but only the
participation hooks, which shrink in-flight scratch, can reduce them.
An indivisible payload larger than a budget still violates and is still
recorded — the controller degrades gracefully, it never hides a breach.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .plan import RoundPlan, is_block
from .words import word_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ledger import RoundLedger

__all__ = [
    "MODES",
    "PeakHoldLoadEstimator",
    "ThrottleController",
    "ThrottleEvent",
    "ThrottlePolicy",
]

#: The recognised throttle modes, in increasing order of intervention.
MODES = ("off", "advise", "enforce")


@dataclass(frozen=True)
class ThrottlePolicy:
    """Configuration of the throttle controller (on ``ModelConfig``).

    Attributes:
        mode: one of :data:`MODES`.
        headroom: target fraction of each capacity the controller
            provisions to — budgets are ``headroom * capacity``, so a
            0.9 headroom keeps a 10% safety margin under the hard limit.
        window: peak-hold window of the load estimator, in rounds.
        min_fanout: floor for throttled tree fanouts (a tree must still
            branch, or dissemination never terminates).
        min_scale: floor for the participation scale factor — graceful
            degradation, never a full stop.
    """

    mode: str = "off"
    headroom: float = 0.9
    window: int = 8
    min_fanout: int = 2
    min_scale: float = 0.25

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown throttle mode {self.mode!r}; known: {MODES}")
        if not 0.0 < self.headroom <= 1.0:
            raise ValueError("headroom must lie in (0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1 round")
        if self.min_fanout < 2:
            raise ValueError("min_fanout must be >= 2 (trees must branch)")
        if not 0.0 < self.min_scale <= 1.0:
            raise ValueError("min_scale must lie in (0, 1]")

    @property
    def enabled(self) -> bool:
        """Whether a controller should observe rounds at all."""
        return self.mode != "off"

    @property
    def enforcing(self) -> bool:
        """Whether throttling decisions are applied (vs only recorded)."""
        return self.mode == "enforce"


@dataclass(frozen=True)
class ThrottleEvent:
    """One recorded throttling decision.

    ``applied`` distinguishes enforce-mode interventions from
    advise-mode dry-run observations of the same decision.
    """

    round: int
    kind: str  # "split" | "fanout" | "sample_rate" | "bank"
    note: str
    before: float
    after: float
    applied: bool


class PeakHoldLoadEstimator:
    """Peak-hold predictor over per-round load fractions.

    Fed one observation per executed round (see the module docstring);
    :attr:`predicted_traffic` / :attr:`predicted_memory` are the held
    peaks over the last ``window`` rounds — the estimator's forecast of
    the next round's worst per-machine budget fraction.
    """

    __slots__ = ("window", "observations", "_traffic", "_memory")

    def __init__(self, window: int = 8) -> None:
        if window < 1:
            raise ValueError("window must be >= 1 round")
        self.window = window
        self.observations = 0
        self._traffic: deque[float] = deque(maxlen=window)
        self._memory: deque[float] = deque(maxlen=window)

    def observe(self, traffic_frac: float, memory_frac: float = 0.0) -> None:
        """Record one round's worst traffic and memory budget fractions."""
        self.observations += 1
        self._traffic.append(float(traffic_frac))
        self._memory.append(float(memory_frac))

    @property
    def predicted_traffic(self) -> float:
        """Held peak of the per-round traffic fraction (0.0 when unfed)."""
        return max(self._traffic, default=0.0)

    @property
    def predicted_memory(self) -> float:
        """Held peak of the per-round memory fraction (0.0 when unfed)."""
        return max(self._memory, default=0.0)

    @classmethod
    def from_ledger(
        cls, ledger: "RoundLedger", capacity: int, window: int = 8
    ) -> "PeakHoldLoadEstimator":
        """Replay a finished ledger's ``RoundRecord`` stream offline.

        For post-hoc analysis and tests: traffic fractions come from each
        record's ``max(max_sent, max_received)`` against *capacity* (use
        the binding — usually smallest — capacity), the memory fraction
        from the final ``memory_high_water`` table (the ledger keeps
        high-water marks, not a per-round memory series).
        """
        estimator = cls(window=window)
        cap = max(1, capacity)
        memory_frac = ledger.max_memory / cap
        for record in ledger.records:
            estimator.observe(
                max(record.max_sent, record.max_received) / cap, memory_frac
            )
        return estimator


class ThrottleController:
    """Applies a :class:`ThrottlePolicy` using the estimator's forecast.

    One controller per cluster, created by ``Cluster.__init__`` when the
    config's policy is not ``off``.  The cluster feeds it after every
    round (:meth:`observe`); primitives consult the hooks; ``execute``
    asks :meth:`split_plan` before running a plan in enforce mode.
    """

    def __init__(self, policy: ThrottlePolicy, capacities: Mapping[int, int]) -> None:
        self.policy = policy
        self.capacities = dict(capacities)
        self.estimator = PeakHoldLoadEstimator(policy.window)
        self.events: list[ThrottleEvent] = []
        self.splits = 0
        self.extra_rounds = 0
        self.overload_rounds = 0
        self.peak_traffic_frac = 0.0
        self.peak_memory_frac = 0.0
        self._round = 0

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def observe(self, traffic_frac: float, memory_frac: float) -> None:
        """Feed one executed round's budget fractions to the estimator."""
        self._round += 1
        self.estimator.observe(traffic_frac, memory_frac)
        self.peak_traffic_frac = max(self.peak_traffic_frac, traffic_frac)
        self.peak_memory_frac = max(self.peak_memory_frac, memory_frac)
        if max(traffic_frac, memory_frac) > self.policy.headroom:
            self.overload_rounds += 1

    def scale(self) -> float:
        """Current participation scale in ``[min_scale, 1.0]``.

        1.0 while the forecast stays inside headroom; otherwise shrink
        proportionally so the forecast load lands back on the headroom
        line (classic multiplicative feedback), floored at ``min_scale``.
        """
        predicted = self.estimator.predicted_traffic
        if predicted <= self.policy.headroom:
            return 1.0
        return max(self.policy.min_scale, self.policy.headroom / predicted)

    # ------------------------------------------------------------------
    # Hooks (primitives)
    # ------------------------------------------------------------------
    def fanout(self, base: int, note: str = "") -> int:
        """Throttle hook for tree fan-in/out (broadcast, converge-cast,
        disseminate, columnar aggregation).  Returns *base* unless the
        forecast is over headroom in enforce mode."""
        scale = self.scale()
        if scale >= 1.0:
            return base
        throttled = max(self.policy.min_fanout, int(base * scale))
        if throttled >= base:
            return base
        self.events.append(
            ThrottleEvent(
                round=self._round, kind="fanout", note=note,
                before=base, after=throttled, applied=self.policy.enforcing,
            )
        )
        return throttled if self.policy.enforcing else base

    def sample_rate(self, base: float, note: str = "") -> float:
        """Throttle hook for sampling rates (``sample_sort`` splitter
        sampling).  Scales the rate down when the forecast is over
        headroom in enforce mode."""
        scale = self.scale()
        if scale >= 1.0 or base <= 0.0:
            return base
        throttled = base * scale
        self.events.append(
            ThrottleEvent(
                round=self._round, kind="sample_rate", note=note,
                before=base, after=throttled, applied=self.policy.enforcing,
            )
        )
        return throttled if self.policy.enforcing else base

    def note_bank(self, words: int, capacity: int, note: str = "") -> None:
        """Advisory hook for bulk resident state (the connectivity
        sketch-bank build): a planned allocation past headroom is
        recorded as an event.  Memory cannot be re-scheduled the way
        traffic can — the bank *is* the algorithm's working set — so
        this hook never blocks; it feeds the advise channel and the
        artifact's throttle block."""
        if capacity <= 0:
            return
        if words > self.policy.headroom * capacity:
            self.events.append(
                ThrottleEvent(
                    round=self._round, kind="bank", note=note,
                    before=words, after=capacity, applied=False,
                )
            )

    # ------------------------------------------------------------------
    # Plan splitting (enforce mode)
    # ------------------------------------------------------------------
    def budget(self, machine_id: int) -> int | None:
        """Headroom budget of a machine in words (None when unknown —
        ``execute`` raises ``ProtocolError`` for unknown machines)."""
        capacity = self.capacities.get(machine_id)
        if capacity is None:
            return None
        return max(1, int(self.policy.headroom * capacity))

    def split_plan(self, plan: RoundPlan) -> list[RoundPlan]:
        """Split *plan* into per-round chunks within headroom budgets.

        First-fit pass over the run columns in send-call order: each
        piece lands in the earliest chunk where both its sender's and
        receiver's running volumes stay within budget (per-machine
        tallies — saturating one sender never cuts off packing for the
        others), floored at the chunk holding the previous piece for the
        same destination so per-destination delivery order is preserved.
        Each chunk is one extra round.  A single run larger than the
        binding budget is sliced at item granularity (blocks by row
        slices, object runs by cumulative word size); an indivisible
        over-budget item is emitted alone in an otherwise-idle slot for
        its machines and still violates.

        Order preservation: chunks execute in sequence, pieces for one
        destination occupy non-decreasing chunk indices in send order,
        and each chunk keeps insertion order — so the concatenated
        inboxes observe the exact original per-destination send order
        and the summed words/items equal the unsplit plan's (pinned by
        property tests).  Returns ``[plan]`` untouched when every
        machine already fits its budget.
        """
        if not self.policy.enforcing:
            return [plan]
        sent, received, _, _ = plan.tally()
        if self._fits(sent) and self._fits(received):
            return [plan]
        run_words = plan.run_words()

        def side_fits(current: int, words: int, budget: int | None) -> bool:
            if budget is None or current + words <= budget:
                return True
            # An indivisible over-budget piece can never fit; allow it
            # alone in a slot where this machine is otherwise idle.
            return current == 0 and words > budget

        buckets: list[list[tuple[int, int, object]]] = []
        chunk_sent: list[dict[int, int]] = []
        chunk_received: list[dict[int, int]] = []
        dst_floor: dict[int, int] = {}
        for (src, dst, items), words in zip(plan.runs(), run_words):
            src_budget = self.budget(src)
            dst_budget = self.budget(dst)
            for piece, piece_words in self._pieces(items, words, src_budget, dst_budget):
                index = dst_floor.get(dst, 0)
                while index < len(buckets) and not (
                    side_fits(chunk_sent[index].get(src, 0), piece_words, src_budget)
                    and side_fits(
                        chunk_received[index].get(dst, 0), piece_words, dst_budget
                    )
                ):
                    index += 1
                if index == len(buckets):
                    buckets.append([])
                    chunk_sent.append({})
                    chunk_received.append({})
                buckets[index].append((src, dst, piece))
                chunk_sent[index][src] = chunk_sent[index].get(src, 0) + piece_words
                chunk_received[index][dst] = (
                    chunk_received[index].get(dst, 0) + piece_words
                )
                dst_floor[dst] = index
        if len(buckets) <= 1:
            return [plan]
        chunks: list[RoundPlan] = []
        for bucket in buckets:
            chunk = RoundPlan(note=plan.note)
            for src, dst, piece in bucket:
                chunk.send_batch(src, dst, piece)
            chunks.append(chunk)
        self.splits += 1
        self.extra_rounds += len(chunks) - 1
        self.events.append(
            ThrottleEvent(
                round=self._round, kind="split", note=plan.note,
                before=1, after=len(chunks), applied=True,
            )
        )
        return chunks

    def _fits(self, volumes: Mapping[int, int]) -> bool:
        for machine_id, words in volumes.items():
            budget = self.budget(machine_id)
            if budget is not None and words > budget:
                return False
        return True

    def _pieces(
        self,
        items: object,
        total_words: int,
        src_budget: int | None,
        dst_budget: int | None,
    ) -> Iterator[tuple[object, int]]:
        """Slice one run into budget-sized pieces (see :meth:`split_plan`)."""
        budgets = [b for b in (src_budget, dst_budget) if b is not None]
        limit = min(budgets) if budgets else None
        if limit is None or total_words <= limit:
            yield items, total_words
            return
        if is_block(items):
            rows = int(items.shape[0])
            per_row = max(1, total_words // rows)
            step = max(1, limit // per_row)
            for start in range(0, rows, step):
                piece = items[start:start + step]
                yield piece, int(piece.size)
            return
        piece: list = []
        piece_words = 0
        for item in items:
            words = word_size(item)
            if piece and piece_words + words > limit:
                yield piece, piece_words
                piece = []
                piece_words = 0
            piece.append(item)
            piece_words += words
        if piece:
            yield piece, piece_words

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def event_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def summary(self) -> dict:
        """Deterministic JSON-serializable digest (the artifact's
        ``throttle`` block is assembled from these)."""
        counts = self.event_counts()
        return {
            "mode": self.policy.mode,
            "headroom": self.policy.headroom,
            "window": self.policy.window,
            "splits": self.splits,
            "extra_rounds": self.extra_rounds,
            "overload_rounds": self.overload_rounds,
            "peak_traffic_frac": round(self.peak_traffic_frac, 6),
            "peak_memory_frac": round(self.peak_memory_frac, 6),
            "fanout_events": counts.get("fanout", 0),
            "sample_rate_events": counts.get("sample_rate", 0),
            "bank_events": counts.get("bank", 0),
            "events": len(self.events),
        }
