"""EdgeStore — a distributed multiset of records on the small machines.

This is the ergonomic layer the algorithms are written against.  Local
(zero-round) operations read or replace the machines' datasets;
everything that moves data charges rounds through the cluster.  Derived datasets get fresh names
so several stores can coexist (e.g. the contracted graph and the original
edges during Borůvka).

The small machines' local step is one call, :meth:`EdgeStore.local`.  It
runs once per small machine, in machine order (so random draws come in
machine order), on the machine's rows: its slice of a sharded dataset,
or the value it put.  A consumed source is dropped with one
:meth:`~repro.mpc.cluster.Cluster.pop` before any put; then, target by
target, the target is dropped the same way (only the cluster replaces a
sharded dataset) and each machine puts its rows, in machine order.  The
step costs no round; each put is charged, and in strict mode checked,
as ``Machine.put`` over the machine's old rows: the first machine that
fails raises.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Hashable, Sequence

from ..mpc.cluster import Cluster
from .aggregate import aggregate, count_items
from .join import annotate_edges_with_vertex_values
from .sort import SortLayout, sample_sort

__all__ = ["EdgeStore"]


_counter = itertools.count()


def _fresh(prefix: str) -> str:
    return f"{prefix}#{next(_counter)}"


class EdgeStore:
    """Handle to a named dataset spread over the small machines."""

    def __init__(self, cluster: Cluster, name: str) -> None:
        self.cluster = cluster
        self.name = name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        cluster: Cluster,
        items: Sequence[Any],
        name: str | None = None,
        shuffle: bool = True,
    ) -> "EdgeStore":
        """Place *items* on the small machines as the initial input
        distribution (zero rounds, per the model)."""
        name = name if name is not None else _fresh("store")
        cluster.distribute_edges(items, name=name, shuffle=shuffle)
        return cls(cluster, name)

    # ------------------------------------------------------------------
    # Local (zero-round) operations
    # ------------------------------------------------------------------
    def items(self) -> list[Any]:
        """All records, in machine order (simulation-side view)."""
        return self.cluster.all_items(self.name)

    def __len__(self) -> int:
        return sum(len(m.get(self.name, [])) for m in self.cluster.smalls)

    def local(
        self, step: Callable[[Any], Any], *targets: str, consume: bool = False
    ) -> "EdgeStore | tuple[EdgeStore, ...]":
        """The small machines' local step (see the module docstring):
        ``step(rows)`` gets a machine's rows of this store and returns its
        rows of the one target, or a tuple of row lists, one per target;
        *consume* drops this store.  Returns the target store, or a tuple
        of them."""
        cluster = self.cluster
        outputs = [step(machine.get(self.name, [])) for machine in cluster.smalls]
        if consume:
            cluster.pop(self.name)
        if len(targets) == 1:
            outputs = [(rows,) for rows in outputs]
        for target, rows in zip(targets, zip(*outputs)):
            cluster.pop(target)
            for machine, machine_rows in zip(cluster.smalls, rows):
                machine.put(target, machine_rows)
        stores = tuple(EdgeStore(cluster, target) for target in targets)
        return stores[0] if len(stores) == 1 else stores

    def sample(
        self, p: float, rng: random.Random, name: str | None = None
    ) -> "EdgeStore":
        """Independently keep each record with probability *p* into a new
        store (local coin flips, zero rounds)."""
        target = name if name is not None else _fresh(f"{self.name}.sample")
        return self.local(lambda rows: [row for row in rows if rng.random() < p], target)

    def drop(self) -> None:
        self.cluster.pop(self.name)

    # ------------------------------------------------------------------
    # Communicating operations (charge rounds)
    # ------------------------------------------------------------------
    def count(
        self, predicate: Callable[[Any], bool] | None = None, note: str = "count"
    ) -> int:
        """Count records via the converge-cast of Claim 2."""
        return count_items(self.cluster, self.name, predicate, note=note)

    def gather_to_large(
        self,
        predicate: Callable[[Any], bool] | None = None,
        note: str = "gather",
    ) -> list[Any]:
        """Every machine ships its (matching) records to the large machine
        in one round (one batch per machine, via the batched engine)."""
        large_id = self.cluster.large.machine_id
        items_by_src = {
            machine.machine_id: [
                item
                for item in machine.get(self.name, [])
                if predicate is None or predicate(item)
            ]
            for machine in self.cluster.smalls
        }
        return self.cluster.gather(large_id, items_by_src, note=note)

    def sort(self, key: int | tuple[int, ...], note: str = "sort") -> SortLayout:
        """Sort the records (Claim 1) by the field-spec *key* (a column
        index or a tuple of them); see
        :func:`~repro.primitives.sort.sample_sort`."""
        return sample_sort(self.cluster, self.name, key, note=note)

    def aggregate(
        self,
        pair_fn: Callable[[Any], tuple[Hashable, Any]],
        combine: str,
        note: str = "aggregate",
    ) -> dict[Hashable, Any]:
        """Per-key aggregation (Claim 2): *pair_fn* maps every record to a
        ``(key, value)`` pair, and the named reducer *combine* (``"sum"``
        / ``"min"`` / ``"max"`` / ``"or"``) aggregates them; results land
        on the large machine.  See
        :func:`~repro.primitives.aggregate.aggregate`."""
        pairs_by_machine = {
            machine.machine_id: list(map(pair_fn, machine.get(self.name, [])))
            for machine in self.cluster.smalls
        }
        return aggregate(self.cluster, pairs_by_machine, combine, note=note)

    def annotate(
        self,
        values: dict[Hashable, Any],
        default: Any = None,
        name: str | None = None,
        note: str = "annotate",
    ) -> "EdgeStore":
        """Attach endpoint values to every edge record (Claim 3 + sort-join);
        returns a store of flat rows ``(*edge, value_u, value_v)`` — read
        them as ``row[:-2], row[-2], row[-1]`` — held as blocks, with
        ``object`` value columns when the values are not scalars (see
        :mod:`repro.primitives.join`)."""
        target = name if name is not None else _fresh(f"{self.name}.annotated")
        annotate_edges_with_vertex_values(
            self.cluster, self.name, values, target, default=default, note=note
        )
        return EdgeStore(self.cluster, target)
