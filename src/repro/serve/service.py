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
  Theorem C.1): a batch makes one :meth:`SketchBank.update_edges` call
  per shard, inserts then deletes with per-edge signs ``+1``/``-1``;
  cost is proportional to the batch, never to the graph.
* **Queries** read a maintained component forest.  The forest is
  refreshed lazily: the first query after an update batch runs
  sketch-space Borůvka over the sum of the shard banks (linearity again:
  banks add, so each phase sums only its own slots of every shard's rows
  and the merged bank is never built) — ``O(n polylog n)`` work,
  independent of how many updates streamed in since the last refresh.
  Subsequent queries are dictionary lookups.
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

Numeric limits: every refresh sums all shard banks, so the ``int64``
bound on the identity sums ``s1`` (see :mod:`repro.sketches.bank`) is
checked against the ids of every edge the service has applied, before an
update batch moves anything; a batch that could overflow is refused with
a :class:`ServiceError`.  :class:`ServeConfig` refuses, naming the field,
a configuration the service could not serve: non-``int`` sizes, seeds or
weights (``bool`` included), a non-positive or non-finite ``epsilon``,
an ``n`` whose edge ids overflow ``int64``, and sketch state beyond
:data:`MAX_REFRESH_WORDS`, :data:`MAX_SLOTS` or :data:`MAX_BANKS`.  An
update carrying more than :data:`MAX_UPDATE_EDGES` edges is refused
before any edge is looked at.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..core.mst_approx import geometric_thresholds
from ..sketches import INT64_MAX, GraphSketchSpec, SketchBank, bank_boruvka, edge_id
from ..sketches.bank import check_s1_bound

__all__ = [
    "MAX_BANKS",
    "MAX_REFRESH_WORDS",
    "MAX_SLOTS",
    "MAX_UPDATE_EDGES",
    "ServeConfig",
    "ServiceError",
    "GraphService",
    "ComponentView",
]

#: Words of a bank holding every vertex, ``n * (1 + 3 * slots)`` (one
#: ``s0``/``s1``/``s2`` counter per slot plus the row's vertex): each
#: shard and threshold bank grows towards it, and a refresh reads every
#: shard.  2**25 words is 256 MiB of 8-byte counters; ``n = 1024`` with 3
#: copies needs 2.3M.
MAX_REFRESH_WORDS = 2**25
#: Edges one ``update`` may carry, inserts and deletes together.  At
#: ``n = 1024`` a capped request takes about a second on a
#: connectivity-only service (each weight-threshold bank an edge lands
#: in adds its share); an uncapped 10^6-edge request held the session
#: for 20 s and about 650 MB.  Larger streams go in several requests.
MAX_UPDATE_EDGES = 2**15
#: Counter slots per bank row, ``phases * copies * levels``: the size of
#: the seed package ``init`` generates, whatever ``n`` is.  ``n = 1024``
#: with 3 copies has 759.
MAX_SLOTS = 2**14
#: Sketch banks one service keeps: one per shard plus one per
#: approximate-MST weight threshold.
MAX_BANKS = 64

#: The shapes an edge and an update batch may take: JSON arrays arrive as
#: lists, Python callers may pass tuples.  Exact types, so a string or a
#: dict is refused rather than unpacked.
_SEQUENCES = (list, tuple)


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
        for name in ("n", "seed", "copies", "shards", "max_weight"):
            value = getattr(self, name)
            if type(value) is not int and not (name == "max_weight" and value is None):
                raise ServiceError(f"{name} must be an integer, got {value!r}")
        for name in ("n", "copies", "shards", "max_weight"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ServiceError(f"{name} must be >= 1, got {value}")
        epsilon = self.epsilon
        if (
            type(epsilon) not in (int, float)
            or not math.isfinite(epsilon)
            or epsilon <= 0
        ):
            raise ServiceError(f"epsilon must be a positive real, got {epsilon!r}")
        n, copies = self.n, self.copies
        if n * n - 1 > INT64_MAX:
            raise ServiceError(
                f"n={n}: edge ids up to n^2 - 1 do not fit in int64 counters"
            )
        slots = GraphSketchSpec.slot_count(n, copies)
        if slots > MAX_SLOTS:
            raise ServiceError(
                f"copies={copies} with n={n} needs {slots} sketch slots per "
                f"vertex; the limit is {MAX_SLOTS}"
            )
        words = n * (1 + 3 * slots)
        if words > MAX_REFRESH_WORDS:
            raise ServiceError(
                f"n={n} with copies={copies} needs a {words}-word refresh "
                f"bank; the limit is {MAX_REFRESH_WORDS}"
            )
        # One sketch bank per shard and one per MST weight threshold.
        if self.shards > MAX_BANKS:
            raise ServiceError(
                f"shards={self.shards} exceeds the limit of {MAX_BANKS} sketch banks"
            )
        if self.max_weight is not None:
            room = MAX_BANKS - self.shards
            if len(geometric_thresholds(self.max_weight, epsilon, room + 1)) > room:
                raise ServiceError(
                    f"max_weight={self.max_weight} with epsilon={epsilon} needs "
                    f"more than {room} weight-threshold banks besides "
                    f"shards={self.shards}; the limit is {MAX_BANKS} banks"
                )

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
            self._mst_banks = [
                SketchBank(GraphSketchSpec.generate(config.n, mst_rng, copies=config.copies))
                for _ in self.thresholds
            ]
        #: Surviving edge multiset: (u, v, w) normalized -> multiplicity.
        #: The validation ledger — sketches never read it, but deletes are
        #: checked against it so the forest can't silently go negative.
        self._edges: Counter = Counter()
        #: Sum of the ids of every non-loop edge applied (either sign):
        #: the worst-case |s1| of a supernode summed over the shards.
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
        if type(edge) not in _SEQUENCES or len(edge) not in (2, 3):
            raise ServiceError(f"edge must be [u, v] or [u, v, w], got {edge!r}")
        if len(edge) == 2:
            u, v = edge
            w = 1
        else:
            u, v, w = edge
        n = self.config.n
        if type(u) is not int or type(v) is not int:
            raise ServiceError(f"edge endpoints must be integers, got {edge!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ServiceError(f"edge {edge!r} outside the vertex universe [0, {n})")
        if type(w) is not int or w < 1:
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
        insert: Sequence[Sequence[int]] = (),
        delete: Sequence[Sequence[int]] = (),
    ) -> dict:
        """Apply one batched signed update (inserts first, then deletes).

        Each batch is a list (or tuple) of ``[u, v]`` / ``[u, v, w]``
        edges with exact-``int`` fields — ``true`` is not vertex 1 — and
        the two hold at most :data:`MAX_UPDATE_EDGES` edges together.
        Deletes must name surviving edges (same endpoints and weight);
        a batch that would drive any multiplicity negative is rejected
        *before* any counter moves, so the sketch state never diverges
        from the validation ledger.  So is a batch whose edge ids could
        push the sketch identity sums past ``int64``.
        """
        for name, batch in (("insert", insert), ("delete", delete)):
            if type(batch) not in _SEQUENCES:
                raise ServiceError(f"{name} must be a list of edges, got {batch!r}")
        if len(insert) + len(delete) > MAX_UPDATE_EDGES:
            raise ServiceError(
                f"update carries {len(insert) + len(delete)} edges in insert "
                f"and delete; the limit is {MAX_UPDATE_EDGES} per request"
            )
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
        if inserts or deletes:
            self._apply(inserts, deletes)
            self.updates_applied += len(inserts) + len(deletes)
            self._components = None
            self._mst_estimate = None
        return {
            "inserted": len(inserts),
            "deleted": len(deletes),
            "edges": sum(self._edges.values()),
        }

    def _apply(
        self,
        inserts: list[tuple[int, int, int]],
        deletes: list[tuple[int, int, int]],
    ) -> None:
        """One signed ``update_edges`` call per shard and per threshold
        bank: its inserts first, so rows are created in insert order, then
        its deletes."""
        n = self.config.n
        shards = len(self._shards)
        signed = [(edge, 1) for edge in inserts] + [(edge, -1) for edge in deletes]
        by_shard: dict[int, tuple[list, list]] = {}
        for (u, v, _), sign in signed:
            edges, signs = by_shard.setdefault(edge_id(n, u, v) % shards, ([], []))
            edges.append((u, v))
            signs.append(sign)
        for index, (edges, signs) in by_shard.items():
            self._shards[index].update_edges(edges, sign=signs)
        for t, bank in zip(self.thresholds, self._mst_banks):
            level = [((u, v), sign) for (u, v, w), sign in signed if w <= t]
            if level:
                edges, signs = zip(*level)
                bank.update_edges(edges, sign=list(signs))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _labels_from(self, *banks: SketchBank) -> ComponentView:
        """Components of the sum of *banks* over every vertex."""
        vertices = range(self.config.n)
        uf, forest = bank_boruvka(*banks, vertices=vertices)
        labels = uf.labels(vertices)
        return ComponentView(
            labels=labels,
            num_components=len(set(labels)),
            forest=forest,
        )

    def refresh(self) -> ComponentView:
        """Rebuild the component forest from the shard banks (lazy: query
        paths call this only when updates arrived since the last one)."""
        view = self._labels_from(*self._shards)
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
        if type(u) is not int or type(v) is not int:
            raise ServiceError(f"vertex ids must be integers, got ({u!r}, {v!r})")
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
            counts = [
                self._labels_from(bank).num_components for bank in self._mst_banks
            ]
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
            "sketch_words": sum(
                bank.word_size() for bank in (*self._shards, *self._mst_banks)
            ),
        }
