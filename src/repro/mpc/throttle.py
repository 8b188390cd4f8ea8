"""Adaptive communication throttling: the feedback-control layer.

The ledger *records* capacity violations; this module closes the loop so
protocols stay under budget on adversarially dense inputs instead of
merely reporting the breach.  :class:`ThrottleController` is the whole
layer.  The cluster feeds it one *load fraction* per budget after every
executed round (the worst ``words / capacity`` over the machines for
traffic, the worst ``usage / capacity`` for memory).  Its forecast of the
next round's traffic is the held peak over the last :data:`WINDOW`
rounds.  Peak-hold rather than a mean is deliberate: the budgets are hard
per-round limits, so the controller must provision for the recent worst
case, not the average — a single over-budget round is a violation no
matter how idle its neighbours were.

The mode is ``ModelConfig.throttle``, one of :data:`MODES`:

- ``"off"``: no controller is attached at all; the hot path and every
  artifact byte are identical to a build without this module.
- ``"advise"``: the controller observes, and throttling *decisions* are
  recorded as :class:`ThrottleEvent` entries, but behaviour is
  unchanged — a dry run for sizing headroom.
- ``"enforce"``: decisions are applied.  An over-budget
  :class:`~repro.mpc.plan.RoundPlan` is split across extra rounds at the
  run-column boundary (:meth:`ThrottleController.split_plan`), and the
  primitives lower participation through the throttle hooks (tree
  fan-in/out via :meth:`~ThrottleController.fanout`, sort sample rates
  via :meth:`~ThrottleController.sample_rate`).

Everything else is fixed: budgets are :data:`HEADROOM` times each
capacity, and participation never drops below :data:`MIN_SCALE` or a
tree's fanout below :data:`MIN_FANOUT`.

Determinism: every decision is a pure function of the mode and the
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
from typing import Any, Iterator

import numpy as np

from .plan import RoundPlan, is_block
from .words import word_size

__all__ = ["MODES", "ThrottleController", "ThrottleEvent"]

#: The recognised throttle modes, in increasing order of intervention.
MODES = ("off", "advise", "enforce")

#: Fraction of each capacity the controller provisions to: budgets are
#: ``HEADROOM * capacity``, a 10% safety margin under the hard limit.
HEADROOM = 0.9
#: Peak-hold window of the traffic forecast, in rounds.
WINDOW = 8
#: Floor for throttled tree fanouts (a tree must still branch, or
#: dissemination never terminates).
MIN_FANOUT = 2
#: Floor for the participation scale — graceful degradation, never a
#: full stop.
MIN_SCALE = 0.25


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


class ThrottleController:
    """Forecasts traffic and applies the throttle *mode* (see the module
    docstring).

    One controller per cluster, created by ``Cluster.__init__`` when the
    config's mode is not ``off``, from the cluster's capacities (indexed
    by machine id).  The cluster feeds it after every round
    (:meth:`observe`); primitives consult the hooks; ``execute`` asks
    :meth:`split_plan` before running a plan in enforce mode.
    """

    def __init__(self, mode: str, capacities: Any) -> None:
        self.mode = mode
        self.enforcing = mode == "enforce"
        # Every machine's headroom budget as an int64 vector over machine
        # ids.
        capacities = np.asarray(capacities, dtype=np.int64)
        self._budgets = np.maximum(1, HEADROOM * capacities).astype(np.int64)
        self.events: list[ThrottleEvent] = []
        self.splits = 0
        self.extra_rounds = 0
        self.overload_rounds = 0
        #: Rounds fed to :meth:`observe` so far.
        self.observed_rounds = 0
        self.peak_traffic_frac = 0.0
        self.peak_memory_frac = 0.0
        # Traffic fractions of the last WINDOW observed rounds.
        self._traffic: deque[float] = deque(maxlen=WINDOW)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def observe(self, traffic_frac: float, memory_frac: float) -> None:
        """Feed one executed round's budget fractions."""
        self.observed_rounds += 1
        self._traffic.append(traffic_frac)
        self.peak_traffic_frac = max(self.peak_traffic_frac, traffic_frac)
        self.peak_memory_frac = max(self.peak_memory_frac, memory_frac)
        if max(traffic_frac, memory_frac) > HEADROOM:
            self.overload_rounds += 1

    def scale(self) -> float:
        """Current participation scale in ``[MIN_SCALE, 1.0]``.

        1.0 while the forecast (the peak traffic fraction of the last
        :data:`WINDOW` rounds) stays inside headroom; otherwise shrink
        proportionally so the forecast load lands back on the headroom
        line (classic multiplicative feedback), floored at
        :data:`MIN_SCALE`.
        """
        predicted = max(self._traffic, default=0.0)
        if predicted <= HEADROOM:
            return 1.0
        return max(MIN_SCALE, HEADROOM / predicted)

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
        throttled = max(MIN_FANOUT, int(base * scale))
        if throttled >= base:
            return base
        self.events.append(
            ThrottleEvent(
                round=self.observed_rounds, kind="fanout", note=note,
                before=base, after=throttled, applied=self.enforcing,
            )
        )
        return throttled if self.enforcing else base

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
                round=self.observed_rounds, kind="sample_rate", note=note,
                before=base, after=throttled, applied=self.enforcing,
            )
        )
        return throttled if self.enforcing else base

    def note_bank(self, words: int, capacity: int, note: str = "") -> None:
        """Advisory hook for bulk resident state (the connectivity
        sketch-bank build): a planned allocation past headroom is
        recorded as an event.  Memory cannot be re-scheduled the way
        traffic can — the bank *is* the algorithm's working set — so
        this hook never blocks; it feeds the advise channel and the
        artifact's throttle block."""
        if capacity <= 0:
            return
        if words > HEADROOM * capacity:
            self.events.append(
                ThrottleEvent(
                    round=self.observed_rounds, kind="bank", note=note,
                    before=words, after=capacity, applied=False,
                )
            )

    # ------------------------------------------------------------------
    # Plan splitting (enforce mode)
    # ------------------------------------------------------------------
    def budget(self, machine_id: int) -> int:
        """Headroom budget of a machine in words."""
        return int(self._budgets[machine_id])

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
        if not self.enforcing:
            return [plan]
        volumes = plan.volumes(len(self._budgets))[0]
        if not np.count_nonzero(volumes > self._budgets):
            return [plan]
        run_words = plan.run_words()

        def side_fits(current: int, words: int, budget: int) -> bool:
            if current + words <= budget:
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
                round=self.observed_rounds, kind="split", note=plan.note,
                before=1, after=len(chunks), applied=True,
            )
        )
        return chunks

    def _pieces(
        self,
        items: object,
        total_words: int,
        src_budget: int,
        dst_budget: int,
    ) -> Iterator[tuple[object, int]]:
        """Slice one run into budget-sized pieces (see :meth:`split_plan`)."""
        limit = min(src_budget, dst_budget)
        if total_words <= limit:
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
            "mode": self.mode,
            "headroom": HEADROOM,
            "window": WINDOW,
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
