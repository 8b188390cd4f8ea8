"""Appendix C.4 — maximal independent set in O(log log Δ) rounds.

The GGKMR algorithm [26]: the large machine fixes a uniformly random
permutation of the vertices and processes geometrically growing *rank
prefixes*.  In iteration ``i`` the subgraph induced by the still-undecided
vertices of rank at most ``n / Δ^{α^{i+1}}`` (α = 3/4) has ``O~(n)`` edges
w.h.p., so it fits on the large machine, which extends the MIS greedily in
rank order.  Undecided vertices adjacent to new MIS vertices are discovered
by the small machines and reported back (Claims 2/3).  After
``O(log log Δ)`` iterations the residual graph has ``O~(n)`` edges and one
final shipment finishes the job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..mpc import Cluster, ModelConfig
from ..primitives.edgestore import EdgeStore

__all__ = ["MISResult", "heterogeneous_mis", "prefix_thresholds"]

ALPHA = 0.75


@dataclass
class MISResult:
    """Outcome of a distributed MIS run."""

    vertices: set[int]
    rounds: int
    iterations: int
    cluster: Cluster = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.vertices)


def prefix_thresholds(n: int, max_degree: int) -> list[float]:
    """Rank thresholds ``n / Δ^{α^i}`` for i = 1, 2, ... until the prefix
    covers everything; their count is O(log log Δ)."""
    if max_degree <= 2:
        return [float(n)]
    thresholds = []
    exponent = ALPHA
    while True:
        thresholds.append(n / max_degree**exponent)
        if max_degree**exponent <= 2.0:
            break
        exponent *= ALPHA
    thresholds.append(float(n))
    return thresholds


def heterogeneous_mis(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> MISResult:
    """Compute a maximal independent set of *graph* w.h.p."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    n = graph.n
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="mis-edges"
    )

    # The large machine draws the permutation; rank(v) in 1..n.
    order = list(range(n))
    rng.shuffle(order)
    rank = {v: position + 1 for position, v in enumerate(order)}

    degrees = store.aggregate(lambda e: (e[0], 1), "sum", note="deg")
    for v, extra in store.aggregate(lambda e: (e[1], 1), "sum", note="deg2").items():
        degrees[v] = degrees.get(v, 0) + extra
    max_degree = max(degrees.values(), default=1)

    in_mis: set[int] = set()
    blocked: set[int] = set()
    iterations = 0

    for threshold in prefix_thresholds(n, max_degree):
        iterations += 1
        with cluster.ledger.section(f"iter{iterations}"):
            # Ship the induced prefix subgraph of undecided vertices.
            status = {
                v: (rank[v], v in in_mis, v in blocked) for v in range(n)
            }
            annotated = store.annotate(status, note="prefix")
            prefix_name = f"{store.name}.prefix"
            for machine in cluster.smalls:
                kept = []
                for row in machine.pop(annotated.name, []):
                    (ru, mis_u, blk_u), (rv, mis_v, blk_v) = row[-2], row[-1]
                    if mis_u or blk_u or mis_v or blk_v:
                        continue
                    if ru <= threshold and rv <= threshold:
                        kept.append(row[:-2])
                machine.put(prefix_name, kept)
            prefix_store = EdgeStore(cluster, prefix_name)
            induced = prefix_store.gather_to_large(note="gather")
            prefix_store.drop()

            # Greedy in rank order over the undecided prefix vertices.
            adjacency: dict[int, set[int]] = {}
            for u, v in induced:
                adjacency.setdefault(u, set()).add(v)
                adjacency.setdefault(v, set()).add(u)
            undecided_prefix = [
                v
                for v in order
                if rank[v] <= threshold and v not in in_mis and v not in blocked
            ]
            newly_chosen = []
            for v in undecided_prefix:
                if v in blocked:
                    continue
                if not (adjacency.get(v, set()) & in_mis):
                    in_mis.add(v)
                    newly_chosen.append(v)
                    blocked.update(adjacency.get(v, set()))

            # Small machines discover neighbors of the new MIS vertices
            # (including those outside the prefix) and report them blocked.
            mis_flags = {v: (v in in_mis) for v in range(n)}
            annotated = store.annotate(mis_flags, default=False, note="notify")
            pairs_name = f"{store.name}.blocked"
            for machine in cluster.smalls:
                pairs = []
                survivors = []
                for row in machine.pop(annotated.name, []):
                    flag_u, flag_v = row[-2], row[-1]
                    if flag_u and flag_v:
                        continue  # cannot happen for a valid MIS
                    if flag_u:
                        pairs.append((row[1], True))
                    elif flag_v:
                        pairs.append((row[0], True))
                    else:
                        survivors.append(row[:-2])
                machine.put(pairs_name, pairs)
                machine.put(store.name, survivors)
            blocked_report = EdgeStore(cluster, pairs_name).aggregate(
                lambda pair: (pair[0], pair[1]), "or", note="blocked"
            )
            cluster.map_small(pairs_name, lambda m, items: [])
            blocked.update(v for v, flag in blocked_report.items() if flag)

    # Any vertex never decided (isolated or untouched) is independent.
    for v in range(n):
        if v not in in_mis and v not in blocked:
            in_mis.add(v)

    return MISResult(
        vertices=in_mis,
        rounds=cluster.ledger.rounds,
        iterations=iterations,
        cluster=cluster,
    )
