"""Theorem 4.1 — an O(k)-spanner of size O(n^{1+1/k}) in O(1) rounds.

Algorithm 6 assembled from its ingredients:

* build the clustering graphs ``A_0 .. A_{L-1}`` (Algorithm 5);
* for each level, either ship ``A_i`` to the large machine and run classic
  Baswana–Sen there (levels where the sampled probability ``p_i`` would be
  1), or run modified Baswana–Sen with
  ``p_i = min(1, k^2 * i^{1+1/k} / 2^i)`` so the sampled edge set fits the
  large machine (Lemma 4.3 bounds the over-approximation);
* map every clustering-graph spanner edge back to its attached original
  edge (``E_G``), union with the star edges (Lemma A.2): a (6k-1)-spanner
  of expected size ``O(n^{1+1/k})``.

For weighted graphs we apply the standard reduction cited by the paper
([22]): split edges into geometric weight classes, compute an unweighted
(6k-1)-spanner per class in parallel, and take the union — a
(12k-2)-spanner of size ``O(n^{1+1/k} log n)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ...graph.graph import Graph
from ...local.baswana_sen import baswana_sen
from ...mpc import Cluster, ModelConfig
from ...primitives.edgestore import EdgeStore
from .clustering import build_clustering_graphs
from .modified_bs import modified_baswana_sen_mpc

__all__ = ["SpannerResult", "heterogeneous_spanner", "level_sampling_probability"]


@dataclass
class SpannerResult:
    """Outcome of a heterogeneous spanner construction."""

    edges: set[tuple]
    k: int
    stretch_bound: int
    rounds: int
    level_sizes: dict[int, int] = field(default_factory=dict)
    levels_on_large: list[int] = field(default_factory=list)
    levels_sampled: list[int] = field(default_factory=list)
    cluster: Cluster | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.edges)


def level_sampling_probability(k: int, i: int) -> float:
    """``p_i = min(1, k^2 * i^{1+1/k} / 2^i)`` from "putting everything
    together" in Section 4."""
    if i == 0:
        return 1.0
    return min(1.0, (k * k * i ** (1.0 + 1.0 / k)) / float(2**i))


def heterogeneous_spanner(
    graph: Graph,
    k: int,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> SpannerResult:
    """Compute an O(k)-spanner of *graph* in the Heterogeneous MPC model.

    Unweighted graphs get a (6k-1)-spanner of expected size
    ``O(n^{1+1/k})``; weighted graphs a (12k-2)-spanner of expected size
    ``O(n^{1+1/k} log n)`` via the weight-class reduction.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    if graph.weighted:
        return _weighted_spanner(graph, k, config, rng)

    cluster = Cluster(config, rng=random.Random(rng.random()))
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="spanner-edges"
    )
    edges, level_sizes, on_large, sampled_levels = _unweighted_spanner(
        cluster, store, graph.n, k, rng
    )
    return SpannerResult(
        edges=edges,
        k=k,
        stretch_bound=6 * k - 1,
        rounds=cluster.ledger.rounds,
        level_sizes=level_sizes,
        levels_on_large=on_large,
        levels_sampled=sampled_levels,
        cluster=cluster,
    )


def _unweighted_spanner(
    cluster: Cluster,
    store: EdgeStore,
    n: int,
    k: int,
    rng: random.Random,
) -> tuple[set[tuple[int, int]], dict[int, int], list[int], list[int]]:
    """The unweighted pipeline on an existing cluster/store; returns the
    spanner edges plus per-level bookkeeping."""
    with cluster.ledger.section("clustering-graphs"):
        clustering = build_clustering_graphs(cluster, store, n, rng)

    spanner: set[tuple[int, int]] = set(clustering.star_edges)
    level_sizes: dict[int, int] = {}
    on_large: list[int] = []
    sampled_levels: list[int] = []

    with cluster.ledger.section("level-spanners"):
        for level in sorted(clustering.level_edge_counts):
            p = level_sampling_probability(k, level)
            level_name = f"{clustering.store.name}.level{level}"
            for machine in cluster.smalls:
                machine.put(
                    level_name,
                    [
                        record
                        for record in machine.get(clustering.store.name, [])
                        if record[2] == level
                    ],
                )
            level_store = EdgeStore(cluster, level_name)

            if p >= 1.0:
                # The whole A_i fits on the large machine: optimal spanner.
                records = level_store.gather_to_large(note=f"level{level}/gather")
                chosen = _classic_spanner_on_large(records, k, rng)
                on_large.append(level)
            else:
                vertices = sorted(
                    {r[0] for r in level_store.items()}
                    | {r[1] for r in level_store.items()}
                )
                result = modified_baswana_sen_mpc(
                    cluster,
                    level_store,
                    vertices,
                    k,
                    p,
                    rng,
                    note=f"level{level}/mbs",
                )
                # Payloads are (scale, u, v); the edge is (u, v).
                chosen = {payload[1:] for payload in result["spanner"]}
                sampled_levels.append(level)
            level_store.drop()
            level_sizes[level] = len(chosen)
            spanner.update(chosen)

    return spanner, level_sizes, on_large, sampled_levels


def _classic_spanner_on_large(
    records: list[tuple], k: int, rng: random.Random
) -> set[tuple[int, int]]:
    """Classic Baswana–Sen on a clustering graph held by the large machine;
    returns the attached original edges of the chosen spanner edges."""
    if not records:
        return set()
    vertices = sorted({r[0] for r in records} | {r[1] for r in records})
    index = {v: position for position, v in enumerate(vertices)}
    by_pair: dict[tuple[int, int], tuple] = {}
    for c1, c2, _, u, v in records:
        key, original = (index[c1], index[c2]), (u, v)
        if key not in by_pair or original < by_pair[key]:
            by_pair[key] = original
    relabeled = Graph(len(vertices), list(by_pair.keys()), weighted=False)
    run = baswana_sen(relabeled, k, rng)
    return {by_pair[edge] for edge in run.spanner}


def _weighted_spanner(
    graph: Graph, k: int, config: ModelConfig, rng: random.Random
) -> SpannerResult:
    """Weight-class reduction: one unweighted spanner per geometric weight
    class, all classes running in parallel (the round charge is the max)."""
    classes: dict[int, list[tuple]] = {}
    for u, v, w in graph.edges:
        classes.setdefault(int(math.log2(max(w, 1))), []).append((u, v, w))

    cluster = Cluster(config, rng=random.Random(rng.random()))
    spanner: set[tuple] = set()
    level_sizes: dict[int, int] = {}
    with cluster.ledger.parallel("weight-classes") as par:
        for class_index in sorted(classes):
            with par.branch():
                weight_of = {
                    (min(u, v), max(u, v)): w for u, v, w in classes[class_index]
                }
                store = EdgeStore.create(
                    cluster,
                    sorted(weight_of),
                    name=f"class{class_index}-edges",
                )
                edges, _, _, _ = _unweighted_spanner(cluster, store, graph.n, k, rng)
                store.drop()
                chosen = {(u, v, weight_of[(u, v)]) for u, v in edges}
                spanner.update(chosen)
                level_sizes[class_index] = len(chosen)

    return SpannerResult(
        edges=spanner,
        k=k,
        stretch_bound=12 * k - 2,
        rounds=cluster.ledger.rounds,
        level_sizes=level_sizes,
        cluster=cluster,
    )
