"""Sublinear-MPC baselines — the left column of Table 1.

These algorithms use *only* the small machines, so their round counts
exhibit the ``Θ(log n)``-type growth that the heterogeneous algorithms
circumvent:

* ``sublinear_boruvka_mst`` — classic Borůvka: each component finds its
  single lightest outgoing edge (always MST-safe by the cut property),
  components merge, repeat; ``O(log n)`` iterations of O(1) rounds each.
  This stands in for the ``O(log n)`` sublinear MST of [5].
* ``sublinear_connectivity`` — the same loop ignoring weights, standing in
  for the sublinear connectivity algorithms.
* ``sublinear_matching`` — the randomized peeling matching run entirely in
  the sublinear regime, standing in for the
  ``O(sqrt(log Δ) log log Δ + sqrt(log log n))`` algorithm of [33].

Coordination (choosing merges) happens on small machine 0; the per-round
volumes it handles are recorded by the ledger, faithfully exposing why the
sublinear regime is communication-bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from ..graph.graph import Graph
from ..graph.union_find import UnionFind
from ..mpc import Cluster, ModelConfig
from ..primitives import columnar
from ..primitives.aggregate import aggregate
from ..primitives.columnar import EdgeBlock
from ..primitives.edgestore import EdgeStore

# After the package modules: the ``repro`` package imports this module
# ahead of them, and a first numpy import here starts OpenBLAS's worker
# threads earlier in the process's imports.  Measured with the e2e
# set-up samples (2-vCPU VM), that added ~25 ms of process CPU time and
# ~1,800 minor page faults before a solve; with OPENBLAS_NUM_THREADS=1
# the CPU gap was ~4 ms.
import numpy as np  # noqa: E402

__all__ = [
    "SublinearResult",
    "sublinear_boruvka_mst",
    "sublinear_connectivity",
    "sublinear_matching",
]


@dataclass
class SublinearResult:
    """Outcome of a sublinear-regime baseline run."""

    rounds: int
    iterations: int
    edges: list[tuple] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)
    matching: list[tuple[int, int]] = field(default_factory=list)
    cluster: Cluster = field(default=None, repr=False)


def _boruvka_loop(
    cluster: Cluster,
    store: EdgeStore,
    n: int,
    weighted: bool,
) -> tuple[list[tuple], UnionFind, int]:
    """Borůvka on the small machines: O(log n) merge iterations.

    Each iteration reads every machine's edges as one array per field:
    the component of every endpoint is one array lookup, and every edge
    between two components gives one ``(component, value)`` pair per
    endpoint, where the value ``(weight, *edge)`` — the weight ``w`` of a
    weighted edge, ``(u, v)`` of an unweighted one — orders edges by
    weight, then by the edge.  After the merge the survivors are kept
    with one mask over the relabeled edges (:func:`_keep_survivors`)."""
    coordinator = cluster.small_ids[0]
    smalls = cluster.smalls
    ids = np.array(cluster.small_ids, dtype=np.int64)
    component = np.arange(n, dtype=np.int64)
    uf = UnionFind(range(n))
    chosen: list[tuple] = []
    iterations = 0
    weight_width = 1 if weighted else 2

    while True:
        iterations += 1
        # Each component's lightest outgoing edge (Claim 2, toward the
        # coordinator small machine).
        columns, counts = columnar.concat_columns(
            columnar.stored_blocks(smalls, store.name)
        )
        pairs: Any = {}
        if columns:
            ends = [component[columns[0]], component[columns[1]]]
            cross = ends[0] != ends[1]
            weight = [columns[2]] if weighted else columns[:2]
            # Two pairs per edge, the first endpoint's first.
            pairs = EdgeBlock([
                np.repeat(np.repeat(ids, counts)[cross], 2),
                np.column_stack([end[cross] for end in ends]).ravel(),
                *(np.repeat(col[cross], 2) for col in (*weight, *columns)),
            ])
        lightest = aggregate(cluster, pairs, "min", dst=coordinator, note="boruvka/min")
        if not lightest:
            break

        merged_any = False
        for value in sorted(lightest.values()):
            edge = value[weight_width:]
            if uf.union(edge[0], edge[1]):
                chosen.append(edge)
                merged_any = True
        if not merged_any:
            break

        # Broadcast the updated component labels (one dissemination round
        # per annotate; the rename volume is what the ledger records).
        rename = {v: uf.find(v) for v in range(n)}
        annotated = store.annotate(rename, note="boruvka/rename")
        _keep_survivors(smalls, store, annotated, np.not_equal)
        component = np.fromiter(rename.values(), np.int64, n)

    return chosen, uf, iterations


def _keep_survivors(
    smalls: list[Any], store: EdgeStore, annotated: EdgeStore, keep: Any
) -> None:
    """Put back as *store* the rows of *annotated* (*store*'s, plus a value
    per endpoint) whose values pass ``keep``, by one mask; drop the rest."""
    columns, counts = columnar.concat_columns(
        columnar.stored_blocks(smalls, annotated.name)
    )
    for machine in smalls:
        machine.pop(annotated.name, None)
    survivors = [[]] * len(smalls)
    if columns:
        mask = keep(columns[-2], columns[-1])
        machine_of = np.repeat(np.arange(len(smalls)), counts)
        survivors = columnar.split_columns(
            [col[mask] for col in columns[:-2]],
            np.bincount(machine_of[mask], minlength=len(smalls)).tolist(),
        )
    for machine, data in zip(smalls, survivors):
        machine.put(store.name, data)


def sublinear_boruvka_mst(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> SublinearResult:
    """Exact MST with small machines only; O(log n) Borůvka iterations."""
    if not graph.weighted:
        raise ValueError("MST needs a weighted graph")
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.sublinear(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    store = EdgeStore.create(cluster, list(graph.edges), name="sub-mst")
    edges, _, iterations = _boruvka_loop(cluster, store, graph.n, weighted=True)
    return SublinearResult(
        rounds=cluster.ledger.rounds,
        iterations=iterations,
        edges=sorted(edges),
        cluster=cluster,
    )


def sublinear_connectivity(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> SublinearResult:
    """Connected components with small machines only."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.sublinear(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="sub-conn"
    )
    _, uf, iterations = _boruvka_loop(cluster, store, graph.n, weighted=False)
    labels = uf.labels(range(graph.n))
    return SublinearResult(
        rounds=cluster.ledger.rounds,
        iterations=iterations,
        labels=labels,
        cluster=cluster,
    )


def sublinear_matching(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> SublinearResult:
    """Maximal matching with small machines only, by local-minimum peeling:
    every iteration each surviving edge draws a rank, per-vertex minima are
    aggregated, and locally minimal edges join the matching: one array
    pass each, over the stored columns."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.sublinear(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="sub-match"
    )
    coordinator = cluster.small_ids[0]
    smalls = cluster.smalls
    matching: list[tuple[int, int]] = []
    matched: set[int] = set()
    iterations = 0

    while len(store):
        iterations += 1
        (u, v), counts = columnar.concat_columns(
            columnar.stored_blocks(smalls, store.name)
        )
        ranks = np.fromiter(iter(cluster.rng.random, None), np.float64, count=len(u))
        pairs = EdgeBlock([
            np.repeat(np.repeat(cluster.small_ids, counts), 2),
            np.column_stack((u, v)).ravel(),
            np.repeat(ranks, 2),
        ])
        best = aggregate(cluster, pairs, "min", dst=coordinator, note="peel/min")
        lowest = np.full(graph.n, np.inf)
        lowest[list(best)] = list(best.values())
        won = np.flatnonzero((lowest[u] == ranks) & (lowest[v] == ranks))
        for a, b in sorted(columnar.rows_at((u, v), won)):
            if a not in matched and b not in matched:
                matching.append((a, b))
                matched.update((a, b))

        flags = {vertex: (vertex in matched) for vertex in range(graph.n)}
        annotated = store.annotate(flags, default=False, note="peel/flags")
        _keep_survivors(smalls, store, annotated, lambda a, b: ~(a | b))

    return SublinearResult(
        rounds=cluster.ledger.rounds,
        iterations=iterations,
        matching=sorted(matching),
        cluster=cluster,
    )
