"""The incremental dynamic-graph service core.

Every query used to cost a full ``repro bench`` pipeline run: generate
the graph, distribute edges, build every sketch from scratch, aggregate,
run Borůvka.  But the AGM sketches are *linear* — an edge insert or
delete is a signed update of a handful of counters — so a long-lived
service can keep :class:`~repro.sketches.bank.SketchBank` shards warm
and answer connectivity / component / approximate-MST-weight questions
from them on demand:

* **Updates** stream in as signed batches.  Each edge lands in one shard
  bank (sharded by edge id, mirroring the per-machine partial banks of
  Theorem C.1) via :meth:`SketchBank.update_edges` with ``sign=+1`` or
  ``-1``; cost is proportional to the batch, never to the graph.
* **Queries** read a maintained component forest.  The forest is
  refreshed lazily: the first query after an update batch merges the
  shard banks (linearity again: banks add) and runs sketch-space Borůvka
  — ``O(n polylog n)`` work, independent of how many updates streamed in
  since the last refresh.  Subsequent queries are dictionary lookups.
* **Approximate MST weight** (Appendix C.1.1) keeps one extra bank per
  geometric weight threshold ``t`` holding the subgraph with weight
  ``<= t``; the estimate is the same blockwise sum
  ``sum_t (cc(t) - 1)`` as :func:`repro.core.mst_approx`.

Determinism contract (pinned by the differential-replay tests): a
service seeded with ``seed`` answers every query *identically* to a
from-scratch :func:`repro.core.connectivity.sketch_components` run with
``rng=random.Random(seed)`` on the surviving edge multiset.  This holds
because the seed package derivation is shared, bank counters are
order-independent sums, and :func:`bank_boruvka`'s output partition
depends only on counter contents (see its docstring).

Numeric limits: every refresh merges all shard banks, so the ``int64``
bound on the identity sums ``s1`` (see :mod:`repro.sketches.bank`) is
checked against the ids of every edge the service has applied, before an
update batch moves anything; a batch that could overflow is refused with
a :class:`ServiceError`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.mst_approx import geometric_thresholds
from ..sketches import GraphSketchSpec, SketchBank, bank_boruvka, edge_id
from ..sketches.bank import check_s1_bound

__all__ = ["ServeConfig", "ServiceError", "GraphService", "ComponentView"]


class ServiceError(ValueError):
    """A client-visible service failure (bad edge, bad query, bad op)."""


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one service instance.

    ``max_weight`` enables approximate-MST-weight queries: the service
    then maintains one threshold bank per geometric level up to
    ``max_weight`` and every update must carry a weight in
    ``[1, max_weight]``.  Left at ``None``, updates are unweighted pairs
    and only connectivity queries are served.
    """

    n: int
    seed: int = 0
    copies: int = 3
    shards: int = 4
    max_weight: int | None = None
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ServiceError("n must be >= 1")
        if self.copies < 1:
            raise ServiceError("copies must be >= 1")
        if self.shards < 1:
            raise ServiceError("shards must be >= 1")
        if self.max_weight is not None and self.max_weight < 1:
            raise ServiceError("max_weight must be >= 1")
        if self.epsilon <= 0:
            raise ServiceError("epsilon must be positive")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "copies": self.copies,
            "shards": self.shards,
            "max_weight": self.max_weight,
            "epsilon": self.epsilon,
        }


@dataclass
class ComponentView:
    """One refreshed snapshot of the component structure."""

    labels: list[int]
    num_components: int
    forest: list[tuple[int, int]] = field(repr=False, default_factory=list)


class GraphService:
    """Persistent sketch state + maintained component forest."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        # The seed-package streams are the determinism anchors.
        # Connectivity: the first spec drawn from random.Random(seed) is
        # exactly what sketch_components(rng=random.Random(seed)) builds.
        self.spec = GraphSketchSpec.generate(
            config.n, random.Random(config.seed), copies=config.copies
        )
        self._shards = [SketchBank(self.spec) for _ in range(config.shards)]
        self.thresholds: list[int] = []
        self._mst_specs: list[GraphSketchSpec] = []
        self._mst_banks: list[SketchBank] = []
        if config.max_weight is not None:
            self.thresholds = geometric_thresholds(
                config.max_weight, config.epsilon
            )
            # MST: mirror approximate_mst_weight's rng discipline — it
            # burns one rng.random() seeding its cluster, then draws one
            # spec per threshold in order — so the service's estimate
            # replays a from-scratch run with rng=random.Random(seed).
            mst_rng = random.Random(config.seed)
            mst_rng.random()
            for _ in self.thresholds:
                spec = GraphSketchSpec.generate(
                    config.n, mst_rng, copies=config.copies
                )
                self._mst_specs.append(spec)
                self._mst_banks.append(SketchBank(spec))
        #: Surviving edge multiset: (u, v, w) normalized -> multiplicity.
        #: The validation ledger — sketches never read it, but deletes are
        #: checked against it so the forest can't silently go negative.
        self._edges: Counter = Counter()
        #: Sum of the ids of every non-loop edge applied (either sign):
        #: the worst-case |s1| of the merged refresh bank.
        self._id_mass = 0
        self._components: ComponentView | None = None
        self._mst_estimate: float | None = None
        self._mst_counts: list[int] = []
        self.updates_applied = 0
        self.queries_answered = 0
        self.refreshes = 0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _normalize(self, edge: Sequence[int]) -> tuple[int, int, int]:
        if len(edge) == 2:
            u, v = edge
            w = 1
        elif len(edge) == 3:
            u, v, w = edge
        else:
            raise ServiceError(f"edge must be [u, v] or [u, v, w], got {edge!r}")
        n = self.config.n
        if not (isinstance(u, int) and isinstance(v, int)):
            raise ServiceError(f"edge endpoints must be integers, got {edge!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ServiceError(f"edge {edge!r} outside the vertex universe [0, {n})")
        if not isinstance(w, int) or w < 1:
            raise ServiceError(f"edge weight must be a positive integer, got {edge!r}")
        if self.config.max_weight is not None and w > self.config.max_weight:
            raise ServiceError(
                f"edge weight {w} exceeds configured max_weight "
                f"{self.config.max_weight}"
            )
        if u > v:
            u, v = v, u
        return u, v, w

    def update(
        self,
        insert: Iterable[Sequence[int]] = (),
        delete: Iterable[Sequence[int]] = (),
    ) -> dict:
        """Apply one batched signed update (inserts first, then deletes).

        Deletes must name surviving edges (same endpoints and weight);
        a batch that would drive any multiplicity negative is rejected
        *before* any counter moves, so the sketch state never diverges
        from the validation ledger.  So is a batch whose edge ids could
        push the sketch identity sums past ``int64``.
        """
        inserts = [self._normalize(e) for e in insert]
        deletes = [self._normalize(e) for e in delete]
        added = Counter(inserts)
        negative = [
            e for e, count in Counter(deletes).items()
            if self._edges[e] + added[e] < count
        ]
        if negative:
            raise ServiceError(
                f"cannot delete edges not in the surviving set: "
                f"{sorted(negative)[:5]}"
            )
        n = self.config.n
        mass = self._id_mass + sum(
            edge_id(n, u, v) for u, v, _ in inserts + deletes if u != v
        )
        try:
            check_s1_bound(mass)
        except OverflowError as exc:
            raise ServiceError(str(exc)) from exc
        self._id_mass = mass
        self._edges.update(added)
        self._edges.subtract(deletes)
        for e in set(deletes):
            if not self._edges[e]:
                del self._edges[e]
        for batch, sign in ((inserts, 1), (deletes, -1)):
            if not batch:
                continue
            self._apply(batch, sign)
            self.updates_applied += len(batch)
        if inserts or deletes:
            self._components = None
            self._mst_estimate = None
        return {
            "inserted": len(inserts),
            "deleted": len(deletes),
            "edges": sum(self._edges.values()),
        }

    def _apply(self, batch: list[tuple[int, int, int]], sign: int) -> None:
        n = self.config.n
        shards = len(self._shards)
        by_shard: dict[int, list[tuple[int, int]]] = {}
        for u, v, _ in batch:
            by_shard.setdefault(edge_id(n, u, v) % shards, []).append((u, v))
        for index, edges in by_shard.items():
            self._shards[index].update_edges(edges, sign=sign)
        for t, bank in zip(self.thresholds, self._mst_banks):
            level = [(u, v) for u, v, w in batch if w <= t]
            if level:
                bank.update_edges(level, sign=sign)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _merged_bank(
        self, partials: Iterable[SketchBank], spec: GraphSketchSpec
    ) -> SketchBank:
        merged = SketchBank(spec, range(self.config.n))
        for partial in partials:
            merged.absorb(partial)
        return merged

    def _labels_from(self, bank: SketchBank) -> ComponentView:
        uf, forest = bank_boruvka(bank)
        smallest: dict[int, int] = {}
        for v in range(self.config.n):
            root = uf.find(v)
            if root not in smallest or v < smallest[root]:
                smallest[root] = v
        labels = [smallest[uf.find(v)] for v in range(self.config.n)]
        return ComponentView(
            labels=labels,
            num_components=len(set(labels)),
            forest=forest,
        )

    def refresh(self) -> ComponentView:
        """Rebuild the component forest from the shard banks (lazy: query
        paths call this only when updates arrived since the last one)."""
        view = self._labels_from(self._merged_bank(self._shards, self.spec))
        self._components = view
        self.refreshes += 1
        return view

    def _view(self) -> ComponentView:
        view = self._components
        if view is None:
            view = self.refresh()
        return view

    def connected(self, u: int, v: int) -> bool:
        n = self.config.n
        if not (0 <= u < n and 0 <= v < n):
            raise ServiceError(f"query ({u}, {v}) outside the vertex universe [0, {n})")
        view = self._view()
        self.queries_answered += 1
        return view.labels[u] == view.labels[v]

    def components(self) -> ComponentView:
        view = self._view()
        self.queries_answered += 1
        return view

    def mst_weight(self) -> dict:
        """Blockwise ``(1+eps)`` spanning-forest weight estimate over the
        maintained threshold banks (Appendix C.1.1 formula)."""
        if not self._mst_banks:
            raise ServiceError(
                "MST-weight queries need a service configured with max_weight"
            )
        if self._mst_estimate is None:
            counts = []
            for spec, bank in zip(self._mst_specs, self._mst_banks):
                view = self._labels_from(self._merged_bank([bank], spec))
                counts.append(view.num_components)
            max_weight = self.config.max_weight
            estimate = float(self.config.n - 1)
            for j, t in enumerate(self.thresholds):
                upper = (
                    self.thresholds[j + 1]
                    if j + 1 < len(self.thresholds)
                    else max_weight
                )
                estimate += max(0, upper - t) * (counts[j] - 1)
            self._mst_counts = counts
            self._mst_estimate = estimate
        self.queries_answered += 1
        return {
            "estimate": self._mst_estimate,
            "thresholds": list(self.thresholds),
            "component_counts": list(self._mst_counts),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def surviving_edges(self) -> list[tuple[int, int, int]]:
        """The surviving edge multiset, expanded, in sorted order (the
        differential-replay input)."""
        out: list[tuple[int, int, int]] = []
        for edge in sorted(self._edges):
            out.extend([edge] * self._edges[edge])
        return out

    def stats(self) -> dict:
        return {
            "n": self.config.n,
            "shards": len(self._shards),
            "edges": sum(self._edges.values()),
            "distinct_edges": len(self._edges),
            "updates_applied": self.updates_applied,
            "queries_answered": self.queries_answered,
            "refreshes": self.refreshes,
            "forest_fresh": self._components is not None,
            "mst_enabled": bool(self._mst_banks),
            "sketch_words": sum(b.word_size() for b in self._shards),
        }
