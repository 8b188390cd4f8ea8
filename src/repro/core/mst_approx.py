"""Appendix C.1.1 — (1+ε)-approximate MST weight in O(1) rounds.

The Chazelle–Rubinfeld–Trevisan / AGM reduction: for integer weights in
``[1, W]``,

    MST(G) = sum_{t=0}^{W-1} (cc(t) - 1)

where ``cc(t)`` is the number of connected components of the subgraph with
edges of weight <= t.  Evaluating ``cc`` only at geometric thresholds
``t_{j+1} ~ (1+eps) t_j`` and charging each block at its left endpoint
over-estimates by at most a ``(1+eps)`` factor, and needs only
``O(log_{1+eps} W)`` sketch-connectivity runs — all executed in parallel in
the same constant number of rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..mpc import Cluster, ModelConfig
from ..primitives.edgestore import EdgeStore
from .connectivity import sketch_components

__all__ = ["MSTApproxResult", "approximate_mst_weight", "geometric_thresholds"]


@dataclass
class MSTApproxResult:
    """Outcome of the (1+ε)-approximate MST-weight computation."""

    estimate: float
    thresholds: list[int]
    component_counts: dict[int, int]
    rounds: int
    cluster: Cluster | None = field(default=None, repr=False)


def geometric_thresholds(
    max_weight: int, epsilon: float, limit: int | None = None
) -> list[int]:
    """Strictly increasing integer thresholds ``1 = t_0 < t_1 < ... >= W``
    with ``t_{j+1} <= (1 + eps) t_j + 1`` — only the first *limit* of
    them when *limit* is given, so a caller can bound the count without
    building a long list."""
    thresholds = [1]
    while thresholds[-1] < max_weight and (limit is None or len(thresholds) < limit):
        nxt = max(thresholds[-1] + 1, int(thresholds[-1] * (1.0 + epsilon)))
        thresholds.append(min(nxt, max_weight))
    return thresholds


def approximate_mst_weight(
    graph: Graph,
    epsilon: float = 0.5,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
    copies: int = 3,
) -> MSTApproxResult:
    """Estimate the MST weight of a connected weighted graph within a
    ``(1+eps)`` factor, in O(1) rounds.

    (For a disconnected graph the same quantity estimates the minimum
    spanning *forest* weight plus nothing extra — cc(t) counts all
    components.)
    """
    if not graph.weighted:
        raise ValueError("approximate MST needs a weighted graph")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    store = EdgeStore.create(cluster, list(graph.edges), name="amst-edges")

    max_weight = max((e[2] for e in graph.edges), default=1)
    thresholds = geometric_thresholds(max_weight, epsilon)

    # All thresholds run their sketch-connectivity instance in parallel: the
    # round charge is the max over instances (they are identical protocols).
    counts: dict[int, int] = {}
    with cluster.ledger.parallel("thresholds") as par:
        for t in thresholds:
            with par.branch():
                level_name = f"{store.name}.le{t}"
                for machine in cluster.smalls:
                    machine.put(
                        level_name,
                        [e for e in machine.get(store.name, []) if e[2] <= t],
                    )
                level_store = EdgeStore(cluster, level_name)
                labels = sketch_components(
                    cluster,
                    level_store,
                    graph.n,
                    rng,
                    copies=copies,
                    note=f"cc{t}",
                )
                counts[t] = len(set(labels))
                level_store.drop()

    # Blockwise sum: block j covers integer thresholds [t_j, t_{j+1}).
    # cc(0) = n covers the [0, 1) block.
    estimate = float(graph.n - 1)  # the (cc(0) - 1) term for t = 0
    for j, t in enumerate(thresholds):
        upper = thresholds[j + 1] if j + 1 < len(thresholds) else max_weight
        width = max(0, upper - t)
        estimate += width * (counts[t] - 1)

    return MSTApproxResult(
        estimate=estimate,
        thresholds=thresholds,
        component_counts=counts,
        rounds=cluster.ledger.rounds,
        cluster=cluster,
    )
