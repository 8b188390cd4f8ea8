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

The plan stores traffic as per-``(src, dst)`` runs in flat parallel
arrays over one flat payload store; ``execute`` sizes every run exactly
once with :func:`word_size_many` (fast-pathing homogeneous scalar,
edge-tuple, and bytes batches; numeric numpy blocks size O(1)), caches
the totals on the plan, accumulates send/receive volumes in a single
grouped pass over the run columns, and fills inboxes in exact send-call
order.  A plan that moves no data is a no-op (zero rounds).  Per-round
item counts and wall-clock time are recorded in the ledger's
:class:`NoteStats` so benchmarks can attribute cost per note label.

``send_indexed`` scatters group on the engine backend seam
(:mod:`repro.mpc.backend`): the pure-Python default buckets stably per
destination; the numpy backend (``REPRO_ENGINE_BACKEND=numpy``) groups
numpy columns with one stable argsort and keeps payloads as zero-copy
array blocks.  Ledgers are bit-identical across backends by
construction — both derive all accounting from the same integer run
metadata.

Both budgets of the model are enforced: per-round communication volumes
and per-machine memory (``Machine.put`` datasets versus capacity, checked
at every round and at input placement).  In strict mode
(``ModelConfig(strict=True)``) the former raises
:class:`CommunicationLimitExceeded` and the latter
:class:`MemoryLimitExceeded`; otherwise both are recorded in the ledger's
``violations`` stream.

Local compute runs on the *executor seam* (:mod:`repro.mpc.executor`):
the primitives' hot per-machine loops are registered *local steps* —
pure functions over one machine's shard — dispatched through
:meth:`Cluster.run_local_steps`.  The default :class:`SerialExecutor`
runs them inline; ``ModelConfig.with_executor("process", workers=N)``
(or ``REPRO_EXECUTOR=process``) fans shippable steps out over a process
pool.  All accounting stays derived from plans on the coordinator, so
ledgers and artifacts are byte-identical across executors — and inside
``bench --jobs N`` workers the seam always degrades to serial (nested
parallelism is guarded; ``--jobs`` wins over ``--executor``).

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

from .backend import (
    HAS_NUMPY,
    NumpyEngineBackend,
    PureEngineBackend,
    available_engine_backends,
    get_engine_backend,
)
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
from .executor import (
    LocalStep,
    ProcessExecutor,
    SerialExecutor,
    available_executors,
    forced_executor,
    get_executor,
    local_step,
    shutdown_pools,
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
    "HAS_NUMPY",
    "PureEngineBackend",
    "NumpyEngineBackend",
    "available_engine_backends",
    "get_engine_backend",
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
    "LocalStep",
    "SerialExecutor",
    "ProcessExecutor",
    "available_executors",
    "forced_executor",
    "get_executor",
    "local_step",
    "shutdown_pools",
]
