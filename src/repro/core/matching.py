"""Section 5 — maximal matching in Heterogeneous MPC.

Theorem 5.1 (three phases, average degree ``d``):

1. **Low-degree phase.**  Split vertices into ``V_low = {deg <= d^2}`` and
   ``V_high`` (at most ``n/d`` of them, by Markov).  A sublinear-MPC
   subroutine computes a maximal matching ``M1`` of the subgraph induced by
   ``V_low`` using only the small machines.  The paper plugs in
   Ghaffari–Uitto [33] as a black box (``O(sqrt(log D) log log D)`` rounds,
   ``D = d^2``); we substitute a random local-minimum peeling procedure with
   the same interface and charge its measured ``O(log D)`` round structure
   (see "Substitutions" in ``docs/THEOREM_MAP.md``).

2. **High-degree phase.**  The large machine collects ``2 d log n``
   random incident edges per high-degree vertex (via random edge ranks, the
   same collection mechanics as the MST's lightest-edge queries) and greedily
   extends the matching to ``M2``.  Lemma 5.4: afterwards, w.h.p. at most
   ``2n`` edges have both endpoints unmatched.

3. **Leftover phase.**  The ``<= 2n`` leftover edges are counted (Claim 2)
   and shipped to the large machine, which completes the matching greedily.

Theorem 5.5 (superlinear large machine, memory ``n^{1+f}``): the filtering
algorithm of Lattanzi et al. [44] — repeatedly subsample at rate
``1/n^f`` until the graph fits the large machine, match there, then walk
back up filtering the edges whose endpoints are still unmatched
(``O(n^{1+f})`` of them w.h.p. per level).  ``O(1/f)`` rounds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..local.matching import greedy_maximal_matching
from ..mpc import AlgorithmFailure, Cluster, ModelConfig
from ..primitives.arrange import arrange_directed, query_first_records
from ..primitives.edgestore import EdgeStore

__all__ = [
    "MatchingResult",
    "heterogeneous_matching",
    "filtering_matching",
    "low_degree_phase_rounds",
]


@dataclass
class MatchingResult:
    """Outcome of a distributed maximal-matching run."""

    matching: list[tuple[int, int]]
    rounds: int
    phase1_iterations: int = 0
    attempts: int = 1
    levels: int = 0
    cluster: Cluster = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.matching)


def low_degree_phase_rounds(max_degree: int) -> float:
    """The theoretical phase-1 charge from [33]:
    ``O(sqrt(log D) * log log D)`` for maximum degree ``D``."""
    log_d = max(math.log2(max(max_degree, 2)), 1.0)
    return math.sqrt(log_d) * max(math.log2(log_d), 1.0)


# ----------------------------------------------------------------------
# Phase 1 substitute: local-minimum peeling on the small machines
# ----------------------------------------------------------------------
def _peeling_matching(
    edges: list[tuple[int, int]], rng: random.Random
) -> tuple[list[tuple[int, int]], int]:
    """Randomized greedy peeling: every iteration, each surviving edge
    draws a random rank and locally minimal edges (rank below every
    adjacent survivor) join the matching.  A constant fraction of edges is
    eliminated per iteration in expectation, so the iteration count is
    ``O(log m)``; each iteration is O(1) rounds of vertex-local
    aggregation in sublinear MPC.  Returns (matching, iterations)."""
    matching: list[tuple[int, int]] = []
    matched: set[int] = set()
    alive = [e for e in edges]
    iterations = 0
    while alive:
        iterations += 1
        ranks = {edge: rng.random() for edge in alive}
        best: dict[int, float] = {}
        for edge, rank in ranks.items():
            for endpoint in edge:
                if endpoint not in best or rank < best[endpoint]:
                    best[endpoint] = rank
        for edge, rank in ranks.items():
            u, v = edge
            if best[u] == rank and best[v] == rank and u not in matched and v not in matched:
                matching.append(edge)
                matched.update(edge)
        alive = [e for e in alive if e[0] not in matched and e[1] not in matched]
    return matching, iterations


# ----------------------------------------------------------------------
# Theorem 5.1
# ----------------------------------------------------------------------
def heterogeneous_matching(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
    max_attempts: int = 16,
) -> MatchingResult:
    """Maximal matching in ``O(sqrt(log d log log d))`` rounds (Theorem 5.1)."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    n = graph.n
    edges = [(e[0], e[1]) for e in graph.edges]
    store = EdgeStore.create(cluster, edges, name="matching-edges")
    average_degree = max(2.0, graph.average_degree)
    degree_cap = average_degree * average_degree

    # --- Phase 1: maximal matching on the low-degree induced subgraph ------
    degrees = store.aggregate(lambda e: (e[0], 1), "sum", note="phase1/deg-u")
    degrees_v = store.aggregate(lambda e: (e[1], 1), "sum", note="phase1/deg-v")
    for vertex, count in degrees_v.items():
        degrees[vertex] = degrees.get(vertex, 0) + count
    low = {v for v in range(n) if degrees.get(v, 0) <= degree_cap}

    low_edges = [e for e in edges if e[0] in low and e[1] in low]
    with cluster.ledger.section("phase1"):
        m1, iterations = _peeling_matching(low_edges, rng)
        # Each peeling iteration is a constant number of sublinear-MPC
        # rounds (rank exchange + per-vertex min aggregation); see
        # "Substitutions" in docs/THEOREM_MAP.md.
        cluster.ledger.charge(2 * iterations, note="phase1/peeling")
    matched: set[int] = {x for e in m1 for x in e}

    sample_quota = max(1, int(2 * average_degree * math.log2(max(n, 4))))
    attempts = 0
    final: list[tuple[int, int]] | None = None
    with cluster.ledger.parallel("phase2-3") as par:
        for _ in range(max_attempts):
            attempts += 1
            with par.branch():
                result = _high_degree_phases(
                    cluster, store, n, low, matched, m1, sample_quota, rng
                )
            if result is not None:
                final = result
                break
    if final is None:
        raise AlgorithmFailure("phase 3 edge count exceeded 2n in every attempt")

    return MatchingResult(
        matching=sorted(final),
        rounds=cluster.ledger.rounds,
        phase1_iterations=iterations,
        attempts=attempts,
        cluster=cluster,
    )


def _high_degree_phases(
    cluster: Cluster,
    store: EdgeStore,
    n: int,
    low: set[int],
    matched_after_m1: set[int],
    m1: list[tuple[int, int]],
    sample_quota: int,
    rng: random.Random,
) -> list[tuple[int, int]] | None:
    """Phases 2 and 3 (one attempt); None signals the w.h.p. failure event."""
    matched = set(matched_after_m1)

    # --- Phase 2: random incident edges of high-degree vertices ------------
    with cluster.ledger.section("phase2"):
        ranked_name = f"{store.name}.ranked"
        for machine in cluster.smalls:
            machine.put(
                ranked_name,
                [
                    (edge[0], edge[1], cluster.rng.randrange(n**5))
                    for edge in machine.get(store.name, [])
                ],
            )
        arrangement = arrange_directed(
            cluster,
            ranked_name,
            directed_name=f"{ranked_name}.directed",
            secondary_key=2,
            note="phase2/arrange",
        )
        high = {v for v in arrangement.out_degrees if v not in low}

        # The large machine asks each machine for the lowest-ranked edges of
        # each high-degree vertex (k(v, M) queries, as in Section 3).
        collected = query_first_records(
            cluster,
            arrangement,
            {v: sample_quota for v in high},
            fields=(1,),
            notes=("phase2/queries", "phase2/sampled"),
        )
        cluster.map_small(ranked_name, lambda m, items: [])

        sampled_neighbors: dict[int, list[int]] = {}
        for src, other in collected:
            sampled_neighbors.setdefault(src, []).append(other)
        m2: list[tuple[int, int]] = []
        for u in sorted(high):
            if u in matched:
                continue
            partner = next(
                (v for v in sampled_neighbors.get(u, ()) if v not in matched), None
            )
            if partner is not None:
                matched.update((u, partner))
                m2.append((min(u, partner), max(u, partner)))

    # --- Phase 3: count and collect the leftover edges ---------------------
    with cluster.ledger.section("phase3"):
        flags = {v: (v in matched) for v in range(n)}
        annotated = store.annotate(flags, default=False, note="phase3/flags")
        leftover_name = f"{store.name}.leftover"
        for machine in cluster.smalls:
            machine.put(
                leftover_name,
                [
                    row[:-2]
                    for row in machine.pop(annotated.name, [])
                    if not row[-2] and not row[-1]
                ],
            )
        leftover = EdgeStore(cluster, leftover_name)
        count = leftover.count(note="phase3/count")
        if count > 2 * n:
            leftover.drop()
            return None
        edges = leftover.gather_to_large(note="phase3/gather")
        leftover.drop()
        m3 = greedy_maximal_matching(sorted(edges), matched=matched)

    return list(m1) + m2 + m3


# ----------------------------------------------------------------------
# Theorem 5.5: filtering with a superlinear large machine
# ----------------------------------------------------------------------
def filtering_matching(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
) -> MatchingResult:
    """Maximal matching in ``O(1/f)`` rounds given a large machine with
    ``n^{1+f}`` memory (Theorem 5.5, following Lattanzi et al. [44])."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous_superlinear(
            n=graph.n, m=max(graph.m, 1), f=0.5
        )
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    n = graph.n
    f = config.f
    capacity_budget = max(int(n ** (1.0 + f)), 64)
    sample_rate = min(1.0, n ** (-f))

    base = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="filter-edges"
    )

    # Build the sampling chain G_0 ⊇ G_1 ⊇ ... until the bottom level fits.
    chain = [base]
    counts = [base.count(note="filter/count")]
    while counts[-1] > capacity_budget:
        nxt = chain[-1].sample(sample_rate, rng)
        chain.append(nxt)
        counts.append(nxt.count(note="filter/count"))

    # Bottom level: match on the large machine.
    edges = chain[-1].gather_to_large(note="filter/bottom")
    matched: set[int] = set()
    matching = greedy_maximal_matching(sorted(edges), matched=matched)

    # Walk back up, filtering the still-unmatched edges of each level.
    for level in range(len(chain) - 2, -1, -1):
        flags = {v: (v in matched) for v in range(n)}
        annotated = chain[level].annotate(flags, default=False, note="filter/flags")
        open_name = f"{chain[level].name}.open"
        for machine in cluster.smalls:
            machine.put(
                open_name,
                [
                    row[:-2]
                    for row in machine.pop(annotated.name, [])
                    if not row[-2] and not row[-1]
                ],
            )
        open_store = EdgeStore(cluster, open_name)
        extra = open_store.gather_to_large(note="filter/open")
        open_store.drop()
        matching.extend(greedy_maximal_matching(sorted(extra), matched=matched))

    for level_store in chain[1:]:
        level_store.drop()

    return MatchingResult(
        matching=sorted(matching),
        rounds=cluster.ledger.rounds,
        levels=len(chain),
        cluster=cluster,
    )
