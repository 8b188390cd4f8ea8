"""Heterogeneous MPC simulator: machines, rounds, and accounting.

This package implements the computational model of Section 2 of the paper:
synchronous rounds, per-round communication bounded by machine memory, one
near-linear machine plus many sublinear machines (with sublinear-only and
superlinear-large variants for the baselines and for Theorems 3.1/5.5).

The RoundPlan API (columnar round engine)
-----------------------------------------

One synchronous round is described by a :class:`RoundPlan` and executed by
:meth:`Cluster.execute`::

    plan = RoundPlan(note="route")
    plan.send(src, dst, item)                 # one item
    plan.send_batch(src, dst, [a, b, c])      # a whole batch, sized in bulk
    plan.send_indexed(src, dsts, items)       # a scatter: item i -> dsts[i]
    inboxes = cluster.execute(plan)           # charges exactly one round

The plan stores traffic as entries in flat parallel arrays over one
flat payload store; ``execute`` sizes every entry exactly once with
:func:`word_size_many` (fast-pathing homogeneous scalar, edge-tuple, and
bytes batches; numeric numpy blocks size O(1)), caches the totals on the
plan, accumulates send/receive volumes in one pass, and fills inboxes in
exact send-call order.  A plan that moves no data is a no-op (zero
rounds).  Per-round item counts and wall-clock time are recorded in the
ledger's :class:`NoteStats` so benchmarks can attribute cost per note
label.

Scatters.  ``send_indexed`` groups a scatter into per-``(src, dst)``
runs — ascending source, then ascending destination, stable within a
run.  A list of items is bucketed into object runs.  A numeric numpy
block is grouped with one stable argsort and stored whole, and its
source may be a column too — row ``i`` goes from ``srcs[i]`` to
``dsts[i]``::

    plan.send_indexed(srcs, dsts, rows)       # a cluster-wide scatter

``execute`` tallies a stored scatter with vectorized per-machine sums
(first-appearance order, so violation lists match the per-run form) and
delivers it as one block per destination, holding that destination's
rows in source order.  A scatter's Python cost is O(machines), however
many ``(src, dst)`` runs it holds; the per-run views (``runs``,
``run_meta``, ``batches``) and the throttle's plan splitter still see
every run.

Both budgets of the model are enforced: per-round communication volumes
and per-machine memory (``Machine.put`` datasets versus capacity, checked
at every round and at input placement).  In strict mode
(``ModelConfig(strict=True)``) the former raises
:class:`CommunicationLimitExceeded` and the latter
:class:`MemoryLimitExceeded`; otherwise both are recorded in the ledger's
``violations`` stream.

Local computation between rounds is free in the model, so each machine's
local step is a plain function call in the coordinator; every charge is
derived from plans.

Compatibility policy
--------------------

:meth:`Cluster.exchange` — the original per-``(src, dst, payload)`` message
API — is retained indefinitely as a pure delegate that builds a plan and
calls ``execute`` (it owns no delivery or accounting logic).  Rounds
charged, words charged, strict-mode behavior, ledger totals, and inbox
orderings are identical on both paths: the plan stores runs in send-call
order, so even message lists that interleave sources deliver in exact
per-message order (pinned by the differential property test in
``tests/integration/test_engine_differential.py``).  New code should
prefer ``RoundPlan`` + ``Cluster.execute``; ``exchange`` exists so
external callers never break.
"""

from .cluster import Cluster, Message
from .config import ModelConfig
from .errors import (
    AlgorithmFailure,
    CapacityExceeded,
    CommunicationLimitExceeded,
    MemoryLimitExceeded,
    MPCError,
    ProtocolError,
)
from .ledger import NoteStats, RoundLedger, RoundRecord, Violation
from .machine import LARGE, SMALL, Machine
from .plan import RoundPlan
from .throttle import (
    PeakHoldLoadEstimator,
    ThrottleController,
    ThrottleEvent,
    ThrottlePolicy,
)
from .words import word_size, word_size_many

__all__ = [
    "Cluster",
    "Message",
    "ModelConfig",
    "RoundLedger",
    "RoundPlan",
    "RoundRecord",
    "NoteStats",
    "Machine",
    "SMALL",
    "LARGE",
    "word_size",
    "word_size_many",
    "MPCError",
    "CapacityExceeded",
    "MemoryLimitExceeded",
    "CommunicationLimitExceeded",
    "ProtocolError",
    "AlgorithmFailure",
    "Violation",
    "ThrottlePolicy",
    "ThrottleController",
    "ThrottleEvent",
    "PeakHoldLoadEstimator",
]
