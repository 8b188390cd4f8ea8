"""Appendix C.2 / C.3 — minimum cuts in O(1) rounds.

**Exact unweighted min-cut (Theorem C.3)** follows Ghaffari–Nowicki–Thorup
[32]: a *2-out contraction* (every vertex marks two random incident edges;
the connected components of the marked graph are contracted) followed by a
*random-sampling contraction* at rate ``1/(2 delta)`` shrinks the graph to
``O(n)`` inter-component edges while preserving any non-singleton
near-minimum cut with constant probability.  The surviving multigraph is
shipped to the large machine, which computes its exact min cut
(Stoer–Wagner) and compares against the best singleton cut; O(log n)
repetitions run in parallel to amplify to w.h.p.

**(1±ε)-approximate weighted min-cut (Theorem C.4)** follows
Ghaffari–Nowicki [31] in its sampling essence: treat weight as edge
multiplicity, subsample units at rate ``q ~ log n / (eps^2 lambda)`` for
geometric guesses of ``lambda``, and accept the guess whose sampled graph
still has a sufficiently large min cut — by Karger's cut-counting bound all
cuts are preserved within ``(1±eps)`` at that rate, so rescaling the
sampled min cut by ``1/q`` estimates the true one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..graph.union_find import UnionFind
from ..local.mincut import stoer_wagner
from ..mpc import AlgorithmFailure, Cluster, ModelConfig
from ..primitives.broadcast import converge_cast
from ..primitives.edgestore import EdgeStore

__all__ = [
    "MinCutResult",
    "exact_unweighted_mincut",
    "approximate_weighted_mincut",
]


@dataclass
class MinCutResult:
    """Outcome of a distributed min-cut computation."""

    value: float
    rounds: int
    attempts: int = 1
    cluster: Cluster = field(default=None, repr=False)


# ----------------------------------------------------------------------
# Theorem C.3: exact unweighted min-cut
# ----------------------------------------------------------------------
def exact_unweighted_mincut(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
    attempts: int | None = None,
) -> MinCutResult:
    """Exact min cut of a connected unweighted graph, w.h.p."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    n = graph.n
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="cut-edges"
    )
    if attempts is None:
        attempts = max(8, 2 * int(math.log2(max(n, 4))) ** 2)

    # Degrees once (Claim 2): gives delta and the best singleton cut.
    degrees = store.aggregate(lambda e: (e[0], 1), "sum", note="degrees")
    for v, extra in store.aggregate(
        lambda e: (e[1], 1), "sum", note="degrees2"
    ).items():
        degrees[v] = degrees.get(v, 0) + extra
    delta = min((degrees.get(v, 0) for v in range(n)), default=0)
    best = float(delta)

    with cluster.ledger.parallel("contraction") as par:
        for _ in range(attempts):
            with par.branch():
                candidate = _contraction_attempt(cluster, store, n, delta, rng)
            if candidate is not None:
                best = min(best, candidate)

    return MinCutResult(
        value=best, rounds=cluster.ledger.rounds, attempts=attempts, cluster=cluster
    )


def _two_smallest(pairs: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
    """Each vertex's two lowest-ranked picks over *pairs* of ``(vertex,
    picks)``, vertices in first-encounter order."""
    best: dict[int, tuple] = {}
    for v, picks in pairs:
        best[v] = tuple(sorted(best[v] + picks)[:2]) if v in best else picks
    return list(best.items())


def _contraction_attempt(
    cluster: Cluster, store: EdgeStore, n: int, delta: int, rng: random.Random
) -> float | None:
    """One 2-out + sampling contraction; returns the contracted min cut or
    None when the attempt overflowed the large machine's budget."""
    # 2-out: every vertex keeps its two lowest-ranked incident edges.  The
    # per-vertex "two smallest" is an aggregation function (Claim 2): each
    # machine combines its own picks, then the tree combines per level.
    # A vertex's pair is (v, picks) with one or two (rank, edge) picks, so
    # it costs 1 + 3 * picks words: a ragged payload, cast as lists.
    ranked_pairs = {
        machine.machine_id: _two_smallest([
            pair
            for edge in machine.get(store.name, [])
            for pair in (
                (edge[0], ((cluster.rng.random(), edge),)),
                (edge[1], ((cluster.rng.random(), edge),)),
            )
        ])
        for machine in cluster.smalls
    }
    chosen = dict(converge_cast(
        cluster, ranked_pairs, cluster.coordinator, combine=_two_smallest, note="2out"
    ))
    uf = UnionFind(range(n))
    for picks in chosen.values():
        for _, edge in picks:
            uf.union(edge[0], edge[1])

    # Random-sampling contraction at rate 1/(2 delta) over the surviving
    # inter-component edges (sampled locally, merged on the large machine).
    p = min(1.0, 1.0 / max(2.0 * delta, 2.0))
    sampled = store.sample(p, rng)
    sampled_edges = sampled.gather_to_large(note="2out/sample")
    sampled.drop()
    for u, v in sampled_edges:
        uf.union(u, v)
    component = {v: uf.find(v) for v in range(n)}

    # Collect the contracted multigraph if it is small enough.
    annotated = store.annotate(component, note="2out/labels")
    survivors = annotated.local(
        lambda rows: [(row[-2], row[-1]) for row in rows if row[-2] != row[-1]],
        f"{store.name}.survivors",
        consume=True,
    )
    count = survivors.count(note="2out/count")
    budget = max(16 * n, 256)
    if count > budget:
        survivors.drop()
        return None
    multigraph = survivors.gather_to_large(note="2out/gather")
    survivors.drop()
    vertices = {x for e in multigraph for x in e}
    if len(vertices) < 2:
        return None
    value, _ = stoer_wagner(vertices, multigraph)
    return float(value)


# ----------------------------------------------------------------------
# Theorem C.4: (1 ± eps)-approximate weighted min-cut
# ----------------------------------------------------------------------
def approximate_weighted_mincut(
    graph: Graph,
    epsilon: float = 0.4,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> MinCutResult:
    """Approximate the weighted min cut within ``(1 ± eps)`` w.h.p."""
    if not graph.weighted:
        raise ValueError("needs a weighted graph")
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    n = graph.n
    store = EdgeStore.create(cluster, list(graph.edges), name="wcut-edges")

    total_weight = sum(e[2] for e in graph.edges)
    threshold = max(8.0, 6.0 * math.log(max(n, 4)) / (epsilon * epsilon))
    attempts = 0
    estimate: float | None = None

    # Geometric guesses for lambda, largest first: the first guess whose
    # sampled graph retains a min cut above the concentration threshold is
    # trustworthy.  q = 1 (small lambda) degenerates to the exact cut.
    guesses = []
    guess = 1.0
    while guess < 2 * total_weight:
        guesses.append(guess)
        guess *= 2.0
    with cluster.ledger.parallel("guesses") as par:
        for lam in sorted(guesses, reverse=True):
            attempts += 1
            q = min(1.0, threshold / max(lam, 1.0))
            with par.branch():
                value = _sampled_cut(cluster, store, q, rng)
            if value is None:
                continue
            if q >= 1.0:
                estimate = value
                break
            if value >= 0.5 * threshold:
                estimate = value / q
                break
    if estimate is None:
        raise AlgorithmFailure("no sampling guess produced a usable cut")

    return MinCutResult(
        value=estimate,
        rounds=cluster.ledger.rounds,
        attempts=attempts,
        cluster=cluster,
    )


def _sampled_cut(
    cluster: Cluster, store: EdgeStore, q: float, rng: random.Random
) -> float | None:
    """Sample each unit of weight with probability *q*, ship the unit
    multigraph to the large machine, return its min cut value."""

    def units(edges):
        kept_units = []
        for u, v, w in edges:
            if q >= 1.0:
                kept = w
            elif w <= 64:
                kept = sum(1 for _ in range(w) if rng.random() < q)
            else:
                # Normal approximation to Binomial(w, q) for heavy edges.
                mean = w * q
                sigma = math.sqrt(max(w * q * (1.0 - q), 1e-9))
                kept = min(w, max(0, round(rng.gauss(mean, sigma))))
            if kept:
                kept_units.append((u, v, kept))
        return kept_units

    unit_store = store.local(units, f"{store.name}.units")
    count = unit_store.count(note="wcut/count")
    budget = max(64 * cluster.config.n, 1024)
    if count > budget:
        unit_store.drop()
        return None
    edges = unit_store.gather_to_large(note="wcut/gather")
    unit_store.drop()
    vertices = {x for e in edges for x in (e[0], e[1])}
    if len(vertices) < cluster.config.n:
        return None  # sampling disconnected the graph
    value, _ = stoer_wagner(vertices, edges)
    return float(value)
