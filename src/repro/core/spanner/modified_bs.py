"""Modified Baswana–Sen (Algorithm 2, Lemma 4.3).

The modification: in step ``i``, re-clustering may only use the edges of a
*sampled* subgraph ``G_i`` (each edge kept with probability ``p``), so the
large machine can run the clustering phase (lines 1–15) seeing only
``O~(p m)`` edges.  The price is over-approximation: fewer vertices get
re-clustered, so the removal step (lines 16–18, run by the small machines
on the full edge set) adds more edges — a factor ``1/p`` in expectation.

The module provides the clustering phase as a pure function (it is the
large machine's local computation), a fully local variant used by the
Figure 1 experiment, and the distributed implementation for Heterogeneous
MPC.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from ...mpc.cluster import Cluster
from ...mpc.plan import RoundPlan
from ...primitives.edgestore import EdgeStore

__all__ = [
    "ClusterPhaseResult",
    "cluster_phase",
    "VertexLabel",
    "modified_baswana_sen_local",
    "modified_baswana_sen_mpc",
]

#: An edge payload carried to the output (for clustering graphs, the
#: ``(scale, u, v)`` leaves of the original edge a record stands for).
Record = tuple


@dataclass
class ClusterPhaseResult:
    """Everything lines 1–15 of Algorithm 2 produce.

    ``centers[i][v]`` is ``c_i(v)`` (missing key = unclustered);
    ``removal_level[v]`` is the step at which ``v`` became unclustered
    (every vertex has one, since ``C_k`` is empty);
    ``recluster_records`` are the spanner edges added on line 15.
    """

    centers: list[dict[Hashable, Hashable]]
    removal_level: dict[Hashable, int]
    recluster_records: list[Record] = field(default_factory=list)


def cluster_phase(
    vertices: Sequence[Hashable],
    k: int,
    center_probability: float,
    sampled_adjacency: Sequence[dict[Hashable, list[tuple[Hashable, Record]]]],
    rng: random.Random,
) -> ClusterPhaseResult:
    """Run lines 1–15 of Algorithm 2.

    Args:
        vertices: vertex set of the (clustering) graph.
        k: stretch parameter; produces a (2k-1)-spanner skeleton.
        center_probability: per-step survival probability of a center
            (``r^{-1/k}`` for a graph on ``r`` vertices).
        sampled_adjacency: ``sampled_adjacency[i-1]`` is the adjacency of
            the sampled subgraph ``G_i`` used in step ``i``; entries are
            ``(neighbor, edge record)``.  Step ``k`` never consults its
            subgraph (``C_k`` is empty), so ``k-1`` subgraphs suffice.
        rng: center-sampling randomness.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    centers: list[dict[Hashable, Hashable]] = [{v: v for v in vertices}]
    removal_level: dict[Hashable, int] = {}
    recluster: list[Record] = []
    alive: set[Hashable] = set(vertices)

    for i in range(1, k + 1):
        previous = centers[-1]
        if i == k:
            new_centers: set[Hashable] = set()
        else:
            new_centers = {c for c in alive if rng.random() < center_probability}
        level: dict[Hashable, Hashable] = {}
        adjacency = (
            sampled_adjacency[i - 1] if i - 1 < len(sampled_adjacency) else {}
        )
        for v in vertices:
            if v not in previous:
                continue
            if previous[v] in new_centers:
                level[v] = previous[v]
                continue
            re_clustered = False
            for u, record in adjacency.get(v, ()):
                u_center = previous.get(u)
                if u_center is not None and u_center in new_centers:
                    level[v] = u_center
                    recluster.append(record)
                    re_clustered = True
                    break
            if not re_clustered:
                removal_level[v] = i
        centers.append(level)
        alive = new_centers

    return ClusterPhaseResult(
        centers=centers, removal_level=removal_level, recluster_records=recluster
    )


@dataclass(frozen=True)
class VertexLabel:
    """The per-vertex label the large machine disseminates: the removal
    level ``t`` and the center history ``(c_0(v), ..., c_{t-1}(v))``."""

    removal_level: int
    history: tuple[Hashable, ...]

    def center_before(self, step: int) -> Hashable | None:
        """``c_{step-1}(v)``, or None if v was unclustered by then."""
        if 0 <= step - 1 < len(self.history):
            return self.history[step - 1]
        return None

    def word_size(self) -> int:
        return 1 + len(self.history)


def _labels_from_phase(
    vertices: Iterable[Hashable], phase: ClusterPhaseResult
) -> dict[Hashable, VertexLabel]:
    labels = {}
    for v in vertices:
        t = phase.removal_level[v]
        history = tuple(phase.centers[i][v] for i in range(t))
        labels[v] = VertexLabel(removal_level=t, history=history)
    return labels


def _removal_candidates(
    a: Hashable, b: Hashable, label_a: VertexLabel, label_b: VertexLabel, record: Record
) -> list[tuple[tuple, tuple]]:
    """Candidates ``((removed vertex, adjacent cluster center), (tie-break
    neighbor, record))`` contributed by one edge (lines 16–18): when ``a``
    is removed at step ``t`` and ``b`` is still clustered at level ``t-1``,
    the edge is a candidate for connecting ``a`` to ``b``'s cluster."""
    out = []
    ta, tb = label_a.removal_level, label_b.removal_level
    if tb >= ta:
        center = label_b.center_before(ta)
        if center is not None:
            out.append(((a, center), (b, record)))
    if ta >= tb:
        center = label_a.center_before(tb)
        if center is not None:
            out.append(((b, center), (a, record)))
    return out


def modified_baswana_sen_local(
    n: int,
    edges: Sequence[tuple[int, int]],
    k: int,
    p: float,
    rng: random.Random,
) -> dict:
    """Sequential reference run of the full modified algorithm (used by the
    Figure 1 experiment and the Lemma 4.3 tests).

    Returns a dict with the spanner edge set and the breakdown into
    re-cluster and removal edges.
    """
    vertices = list(range(n))
    records = [(u, v, (min(u, v), max(u, v))) for u, v in edges]
    sampled: list[dict[int, list[tuple[int, tuple]]]] = []
    for _ in range(max(0, k - 1)):
        adjacency: dict[int, list[tuple[int, tuple]]] = {}
        for a, b, payload in records:
            if rng.random() < p:
                adjacency.setdefault(a, []).append((b, payload))
                adjacency.setdefault(b, []).append((a, payload))
        sampled.append(adjacency)

    probability = max(n, 2) ** (-1.0 / k)
    phase = cluster_phase(vertices, k, probability, sampled, rng)
    labels = _labels_from_phase(vertices, phase)

    best: dict[tuple, tuple] = {}
    for a, b, payload in records:
        for key, value in _removal_candidates(a, b, labels[a], labels[b], payload):
            if key not in best or value < best[key]:
                best[key] = value
    removal_edges = {value[1] for value in best.values()}
    recluster_edges = set(phase.recluster_records)
    return {
        "spanner": recluster_edges | removal_edges,
        "recluster_edges": recluster_edges,
        "removal_edges": removal_edges,
        "labels": labels,
    }


def modified_baswana_sen_mpc(
    cluster: Cluster,
    store: EdgeStore,
    vertices: Sequence[Hashable],
    k: int,
    p: float,
    rng: random.Random,
    note: str = "mbs",
) -> dict:
    """Algorithm 2 in the Heterogeneous MPC model.

    *store* holds flat records ``(a, b, *payload)``; the returned spanner
    is a set of payload tuples (for clustering graphs ``(scale, u, v)``,
    ending in the original-graph edge).  A payload is rebuilt as the
    tuple of the record's fields after ``a`` and ``b`` wherever it is
    sent or compared, so it has the record's leaves in their order.

    Protocol: small machines sample ``k-1`` subgraphs locally and ship them
    to the large machine (one round); the large machine runs the clustering
    phase and disseminates per-vertex labels (Claim 3 + sort-join); small
    machines form removal candidates and one edge per (vertex, adjacent
    cluster) is selected by aggregation (Claim 2).
    """
    large_id = cluster.large.machine_id

    # One round: every machine sends its sampled copies, tagged by level,
    # as a single batch per machine.
    plan = RoundPlan(note=f"{note}/sample")
    for machine in cluster.smalls:
        batch = []
        for record in machine.get(store.name, []):
            for level in range(max(0, k - 1)):
                if rng.random() < p:
                    batch.append((level, record))
        plan.send_batch(machine.machine_id, large_id, batch)
    inbox = cluster.execute(plan).get(large_id, [])

    sampled: list[dict[Hashable, list]] = [dict() for _ in range(max(0, k - 1))]
    for level, (a, b, *payload) in inbox:
        payload = tuple(payload)
        sampled[level].setdefault(a, []).append((b, payload))
        sampled[level].setdefault(b, []).append((a, payload))

    probability = max(len(vertices), 2) ** (-1.0 / k)
    phase = cluster_phase(list(vertices), k, probability, sampled, rng)
    labels = _labels_from_phase(vertices, phase)

    annotated = store.annotate(labels, note=f"{note}/labels")
    candidate_name = f"{store.name}.candidates"
    for machine in cluster.smalls:
        candidates = []
        for row in machine.pop(annotated.name, []):
            label_a, label_b = row[-2], row[-1]
            if label_a is None or label_b is None:
                continue
            candidates.extend(
                _removal_candidates(row[0], row[1], label_a, label_b, row[2:-2])
            )
        machine.put(candidate_name, candidates)
    candidate_store = EdgeStore(cluster, candidate_name)
    best = candidate_store.aggregate(
        lambda pair: (pair[0], pair[1]), "min", note=f"{note}/select"
    )
    candidate_store.drop()

    removal_edges = {value[1] for value in best.values()}
    recluster_edges = set(phase.recluster_records)
    return {
        "spanner": recluster_edges | removal_edges,
        "recluster_edges": recluster_edges,
        "removal_edges": removal_edges,
    }
