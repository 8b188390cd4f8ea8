"""A single MPC machine: named datasets plus word-accurate usage tracking.

A machine's usage is one entry of the cluster's int64 usage vector
(:attr:`repro.mpc.cluster.Cluster.usage`, indexed by machine id):
:meth:`Machine.put` and :meth:`Machine.pop` update the entry the
cluster's per-round memory record reads.  The vector is a numpy view of
an ``array('q')`` buffer, which the machine updates item by item at
Python speed.  A machine built alone holds a buffer of its own.

A small machine's ``get`` reads its slice of a sharded dataset of the
cluster (:class:`repro.mpc.cluster.Shard`); only the cluster replaces or
drops one, so a machine's ``put`` or ``pop`` of a sharded name raises
:class:`~repro.mpc.errors.ProtocolError`.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Iterator

from .errors import MemoryLimitExceeded, ProtocolError
from .ledger import Violation
from .words import word_size

__all__ = ["Machine", "SMALL", "LARGE", "memory_limit"]

SMALL = "small"
LARGE = "large"


def memory_limit(
    machine_id: int, kind: str, usage: int, capacity: int, round: int,
    name: str, size: int,
) -> MemoryLimitExceeded:
    """The strict-mode error of storing *size* words under *name* on the
    *kind* machine *machine_id*, which would then hold *usage* words."""
    violation = Violation(machine_id, "memory", usage, capacity, round, note=name)
    return MemoryLimitExceeded(
        f"{violation} (storing {size} words in dataset {name!r} "
        f"on the {kind} machine)",
        violations=[violation],
    )


#: What a machine's ``put`` or ``pop`` of a sharded name raises.
_SHARDED = "dataset {!r} is sharded: only the cluster stores or pops it"


class Machine:
    """One machine of the cluster.

    Data lives in named datasets (``machine.put("edges", [...])``).  The
    machine charges each dataset's word size when it is put, so the
    cluster can enforce or record memory usage cheaply; a stored dataset
    is never mutated in place — code that changes one puts the new value.

    Memory honesty: in strict mode (``strict=True``, set by the cluster
    from ``ModelConfig.strict``) any :meth:`put` that would push total
    usage past ``capacity`` raises
    :class:`~repro.mpc.errors.MemoryLimitExceeded` at the moment of
    hoarding — scratch state must be charged within budget or explicitly
    freed (:meth:`pop`).  In recording mode the cluster compares its usage
    vector with the capacities at every round and logs a ledger violation
    instead.

    *usage* (set by the cluster) is the cluster's usage buffer, indexed by
    machine id.  The machine's entry also carries scratch the cluster
    charges outside any dataset (tree buffers,
    :class:`~repro.mpc.cluster.Scratch`), so :attr:`usage` is the sum of
    the dataset sizes plus that scratch.

    ``round_source`` (set by the cluster) reports the upcoming 1-based
    round index so strict-mode failures carry *when* the breach happened
    in their :class:`~repro.mpc.ledger.Violation` record, not just where.
    """

    __slots__ = (
        "machine_id",
        "kind",
        "capacity",
        "strict",
        "round_source",
        "_store",
        "_sizes",
        "_usage",
        "_slot",
        "_shards",
        "_owned",
    )

    def __init__(
        self,
        machine_id: int,
        kind: str,
        capacity: int,
        strict: bool = False,
        round_source: Callable[[], int] | None = None,
        usage: array | None = None,
        shards: dict[str, Any] | None = None,
        owned: set[str] | None = None,
    ) -> None:
        self.machine_id = machine_id
        self.kind = kind
        self.capacity = capacity
        self.strict = strict
        self.round_source = round_source
        self._store: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        if usage is None:
            usage, machine_id = array("q", [0]), 0
        self._usage = usage
        self._slot = machine_id
        self._shards = {} if shards is None else shards  # the cluster's, by name
        # The names put here, shared by the small machines with the cluster.
        self._owned = set() if owned is None else owned

    def _round(self) -> int:
        return self.round_source() if self.round_source is not None else 0

    # ------------------------------------------------------------------
    # Dataset management
    # ------------------------------------------------------------------
    def put(self, name: str, value: Any) -> None:
        if name in self._shards:
            raise ProtocolError(_SHARDED.format(name))
        size = word_size(value)
        usage = self._usage[self._slot] - self._sizes.get(name, 0) + size
        if self.strict and usage > self.capacity:
            raise memory_limit(
                self.machine_id, self.kind, usage, self.capacity, self._round(),
                name, size,
            )
        self._store[name] = value
        self._sizes[name] = size
        self._usage[self._slot] = usage
        self._owned.add(name)

    def get(self, name: str, default: Any = None) -> Any:
        shard = self._shards.get(name)
        return self._store.get(name, default) if shard is None else shard.rows(self._slot)

    def pop(self, name: str, default: Any = None) -> Any:
        if name in self._shards:
            raise ProtocolError(_SHARDED.format(name))
        size = self._sizes.pop(name, 0)
        if size:
            self._usage[self._slot] -= size
        return self._store.pop(name, default)

    def drop(self, name: str) -> None:
        """Drop the value this machine put under *name*, if any."""
        if name in self._store:
            del self._store[name]
            self._usage[self._slot] -= self._sizes.pop(name)

    def datasets(self) -> Iterator[str]:
        return iter([*self._store, *self._shards])

    def __contains__(self, name: str) -> bool:
        return name in self._store or name in self._shards

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def usage(self) -> int:
        """Current memory usage in words: the sum of the sizes charged when
        each dataset was put (a list of records by its leaves, an
        ``EdgeBlock`` as rows times width, whatever its columns hold), plus
        any scratch the cluster charges to this machine."""
        return self._usage[self._slot]

    @property
    def is_large(self) -> bool:
        return self.kind == LARGE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(id={self.machine_id}, kind={self.kind}, "
            f"usage={self.usage}/{self.capacity})"
        )
