"""A single MPC machine: named datasets plus word-accurate usage tracking."""

from __future__ import annotations

from typing import Any, Callable, Iterator

from .errors import MemoryLimitExceeded
from .ledger import Violation
from .words import word_size

__all__ = ["Machine", "SMALL", "LARGE"]

SMALL = "small"
LARGE = "large"


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
    freed (:meth:`pop`).  In recording mode the cluster compares
    :attr:`usage` with ``capacity`` at every round and logs a ledger
    violation instead.

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
    )

    def __init__(
        self,
        machine_id: int,
        kind: str,
        capacity: int,
        strict: bool = False,
        round_source: Callable[[], int] | None = None,
    ) -> None:
        self.machine_id = machine_id
        self.kind = kind
        self.capacity = capacity
        self.strict = strict
        self.round_source = round_source
        self._store: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}

    def _round(self) -> int:
        return self.round_source() if self.round_source is not None else 0

    # ------------------------------------------------------------------
    # Dataset management
    # ------------------------------------------------------------------
    def put(self, name: str, value: Any) -> None:
        size = word_size(value)
        if self.strict:
            usage = self.usage - self._sizes.get(name, 0) + size
            if usage > self.capacity:
                violation = Violation(
                    self.machine_id, "memory", usage, self.capacity,
                    self._round(), note=name,
                )
                raise MemoryLimitExceeded(
                    f"{violation} (storing {size} words in dataset {name!r} "
                    f"on the {self.kind} machine)",
                    violations=[violation],
                )
        self._store[name] = value
        self._sizes[name] = size

    def get(self, name: str, default: Any = None) -> Any:
        return self._store.get(name, default)

    def pop(self, name: str, default: Any = None) -> Any:
        self._sizes.pop(name, None)
        return self._store.pop(name, default)

    def datasets(self) -> Iterator[str]:
        return iter(self._store)

    def __contains__(self, name: str) -> bool:
        return name in self._store

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def usage(self) -> int:
        """Current memory usage in words: the sum of the sizes charged when
        each dataset was put (a list of records by its leaves, an
        ``EdgeBlock`` as rows times width, whatever its columns hold)."""
        return sum(self._sizes.values())

    @property
    def is_large(self) -> bool:
        return self.kind == LARGE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(id={self.machine_id}, kind={self.kind}, "
            f"usage={self.usage}/{self.capacity})"
        )
