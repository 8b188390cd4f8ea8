"""The object aggregate: Claim 2 one Python pair at a time.

This is the reference :func:`repro.primitives.aggregate.aggregate` is
compared against.  Every machine combines its pairs in a dict loop (first
encounter keeps a key's place), and the combined pairs ride a list
converge-cast whose every level combines each holder's buffer the same
way.  It takes the typed aggregate's named reducers — ``"sum"`` and
``"or"`` element-wise on tuples, ``"min"`` and ``"max"`` as Python
compares values — or any binary callable, over any keys and values the
word accounting can size.  Its rounds, words, memory marks and result
order are the typed aggregate's on every input that one accepts.

:func:`installed` puts it in place of the typed aggregate in every module
that aggregates, so whole pipelines run on it.
"""

from __future__ import annotations

import importlib
import operator
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Hashable, Iterator
from unittest import mock

from repro.mpc.cluster import Cluster
from repro.primitives.broadcast import converge_cast
from repro.primitives.columnar import EdgeBlock

#: The modules whose ``aggregate`` :func:`installed` replaces.
AGGREGATING_MODULES = (
    "repro.primitives.aggregate",
    "repro.primitives.arrange",
    "repro.primitives.edgestore",
    "repro.baselines.sublinear",
)


def _elementwise(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def combine(a: Any, b: Any) -> Any:
        return tuple(map(op, a, b)) if type(a) is tuple else op(a, b)

    return combine


#: The named reducers as binary callables.
REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": _elementwise(operator.add),
    "min": min,
    "max": max,
    "or": _elementwise(operator.or_),
}


def combine_pairs(
    pairs: list[tuple[Hashable, Any]], combine: Callable[[Any, Any], Any]
) -> list[tuple[Hashable, Any]]:
    """Per-key fold of *pairs* with *combine*, keys in first-encounter
    order."""
    result: dict[Hashable, Any] = {}
    for key, value in pairs:
        result[key] = value if key not in result else combine(result[key], value)
    return list(result.items())


def _per_machine(block: EdgeBlock) -> dict[int, list[tuple[Hashable, Any]]]:
    """The pairs of a ``(machine, key, *value)`` block, by machine."""
    pairs: dict[int, list[tuple[Hashable, Any]]] = {}
    for mid, key, *value in block:
        pairs.setdefault(mid, []).append(
            (key, value[0] if len(value) == 1 else tuple(value))
        )
    return pairs


def aggregate(
    cluster: Cluster,
    pairs_by_machine: Any,
    combine: str | Callable[[Any, Any], Any],
    dst: int | None = None,
    note: str = "aggregate",
) -> dict[Hashable, Any]:
    """Aggregate ``(key, value)`` pairs with *combine*, a named reducer or
    a binary callable; the arguments are those of the typed aggregate."""
    if dst is None:
        dst = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]
    fold = REDUCERS[combine] if isinstance(combine, str) else combine
    if isinstance(pairs_by_machine, EdgeBlock):
        pairs_by_machine = _per_machine(pairs_by_machine)
    locally_combined = {
        mid: combine_pairs(list(pairs), fold) for mid, pairs in pairs_by_machine.items()
    }
    result = converge_cast(
        cluster,
        locally_combined,
        dst,
        combine=lambda buffer: combine_pairs(buffer, fold),
        note=note,
    )
    return dict(result)


@contextmanager
def installed() -> Iterator[None]:
    """Run every aggregation on :func:`aggregate` for the duration (the
    ``aggregate`` each module in :data:`AGGREGATING_MODULES` calls, which
    :func:`~repro.primitives.aggregate.count_items` calls too)."""
    with ExitStack() as stack:
        for module in AGGREGATING_MODULES:
            stack.enter_context(mock.patch.object(
                importlib.import_module(module), "aggregate", aggregate
            ))
        yield
