"""Heterogeneous MPC simulator: machines, rounds, and accounting.

This package implements the computational model of Section 2 of the paper:
synchronous rounds, per-round communication bounded by machine memory, one
near-linear machine plus many sublinear machines (with sublinear-only and
superlinear-large variants for the baselines and for Theorems 3.1/5.5).

The RoundPlan API (columnar round engine)
-----------------------------------------

One synchronous round is described by a :class:`RoundPlan` and executed by
:meth:`Cluster.execute`, the one path that charges rounds and words::

    plan = RoundPlan(note="route")
    plan.send(src, dst, item)                 # one item
    plan.send_batch(src, dst, [a, b, c])      # a whole batch, sized in bulk
    plan.send_indexed(src, dsts, rows)        # a scatter: row i -> dsts[i]
    plan.send_runs(srcs, dsts, counts, rows)  # a scatter given by its runs
    plan.send_multicast(srcs, dsts, item)     # one item on many routes
    inboxes = cluster.execute(plan)           # charges exactly one round

The plan stores traffic as entries in flat parallel arrays over one
flat payload store; ``execute`` sizes every entry exactly once with
:func:`word_size_many` (fast-pathing homogeneous scalar, edge-tuple, and
bytes batches; numeric numpy blocks size O(1), ``object`` arrays by
their values; a multicast's payload is sized once), caches the totals
on the plan, sums the plan's ``(src, dst, words)`` run columns into
per-machine send/receive vectors, and fills inboxes in exact send-call
order.  A plan that moves no data is a
no-op (zero rounds).  Per-round item counts and wall-clock time are
recorded in the ledger's :class:`NoteStats` so benchmarks can attribute
cost per note label.

Scatters.  ``send_indexed`` groups a numpy array — numeric, or
``object`` rows of any Python values — into per-``(src, dst)`` runs:
ascending source, then ascending destination, stable within a run, with
one stable argsort, and stores it whole.  Its source may be a column too
— row ``i`` goes from ``srcs[i]`` to ``dsts[i]``::

    plan.send_indexed(srcs, dsts, rows)       # a cluster-wide scatter

``execute`` tallies a stored scatter from its run columns as they are
(violations in first-appearance order, so violation lists match the
per-run form) and delivers it as one block per destination, holding
that destination's rows in source order.  A scatter's Python cost does
not grow with the ``(src, dst)`` runs it holds; the per-run views
(``runs``, ``run_meta``) and the throttle's plan splitter still see
every run.

Both budgets of the model are enforced: per-round communication volumes
and per-machine memory.  The cluster holds every machine's usage and
capacity as int64 vectors over machine ids (``Cluster.usage``,
``Cluster.capacities``): ``Machine.put`` and ``pop`` update the
machine's entry, a tree primitive charges its in-flight buffers with one
vector update per level (:class:`~repro.mpc.cluster.Scratch`), and each
round's memory record — and each checkpoint, such as input placement —
is one vector comparison against the capacities.  State a machine holds
without ``put`` is not charged.  In strict mode
(``ModelConfig(strict=True)``) the former raises
:class:`CommunicationLimitExceeded` and the latter
:class:`MemoryLimitExceeded`; otherwise both are recorded in the ledger's
``violations`` stream.

Local computation between rounds is free in the model, so each machine's
local step is a plain function call in the coordinator; every charge is
derived from plans.

The adaptive throttle (:mod:`repro.mpc.throttle`) is set by one field,
``ModelConfig(throttle=...)``: ``"off"`` (the default), ``"advise"`` or
``"enforce"``.
"""

from .cluster import Cluster
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
from .throttle import ThrottleController, ThrottleEvent
from .words import word_size, word_size_many

__all__ = [
    "Cluster",
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
    "ThrottleController",
    "ThrottleEvent",
]
