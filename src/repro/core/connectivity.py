"""Appendix C.1 — connected components in O(1) rounds (Theorem C.1).

The AGM linear-sketch algorithm: one machine generates the shared seed
package (``O(polylog n)`` bits — the paper replaces shared randomness with
``O(log n)``-wise independence) and tree-broadcasts it; every small machine
builds *partial* vertex sketches from the edges it stores (Property 1:
linear sketches add); the partial sketches are summed per vertex up the
aggregation tree of Claim 2 onto the large machine, which runs Borůvka in
sketch space locally.  Constant rounds end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..mpc import Cluster, ModelConfig
from ..mpc.words import word_size
from ..primitives.broadcast import broadcast, converge_cast
from ..primitives.edgestore import EdgeStore
from ..sketches import (
    GraphSketchSpec,
    SketchBank,
    bank_boruvka,
    build_sparse_blocks,
    combine_sparse_blocks,
)

__all__ = ["ConnectivityResult", "heterogeneous_connectivity", "sketch_components"]


@dataclass
class ConnectivityResult:
    """Outcome of a sketch-based connectivity run."""

    labels: list[int]
    num_components: int
    rounds: int
    cluster: Cluster | None = field(default=None, repr=False)


def sketch_components(
    cluster: Cluster,
    store: EdgeStore,
    n: int,
    rng: random.Random,
    copies: int = 3,
    note: str = "connectivity",
) -> list[int]:
    """Run Theorem C.1 on the edges in *store*; returns canonical component
    labels (smallest vertex of each component) for vertices ``0..n-1``."""
    spec = GraphSketchSpec.generate(n, rng, copies=copies)

    # One machine generated the seed package; broadcast it (Claim 3 spirit).
    source = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]
    seed_words = sum(
        seeds.word_size() for phase in spec.seeds for seeds in phase
    )
    broadcast(cluster, source, ("sketch-seeds", seed_words), cluster.small_ids, note=f"{note}/seeds")

    # Each small machine builds a partial sketch of the edges it stores
    # (zero rounds: local computation) — one counter row per touched
    # vertex, as one sparse row block per machine: the rows' non-zero
    # counters as (row, slot) coordinates.  The machines' builds are
    # independent, so one cluster-wide pass hashes every machine's edges
    # and emits every machine's coordinates at once.
    #
    # The partial rows are summed per vertex up the aggregation tree
    # (Claim 2): each machine's block is one run per tree edge, and every
    # level sums the coordinates of one vertex with one sort (a machine's
    # own rows have distinct vertices, so there is nothing to
    # pre-combine).  A row charges exactly what its dense form, and a
    # (vertex, legacy per-vertex sketch) pair, charged.  The blocks go to
    # the cast unnamed, so the cast releases them as the tree consumes
    # them; the destination bank makes the summed rows dense once.
    dst = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]
    block = converge_cast(
        cluster,
        dict(zip(
            cluster.small_ids,
            build_sparse_blocks(
                spec, [machine.get(store.name, []) for machine in cluster.smalls]
            ),
        )),
        dst,
        combine=combine_sparse_blocks,
        note=f"{note}/sum",
    )
    bank = SketchBank(spec)
    bank.insert_block(block)
    bank.add_vertices(range(n))  # isolated vertices get zero rows

    # Local Borůvka in sketch space on the (large) destination machine.
    # The assembled bank is that machine's working state — charge it for
    # the duration of the computation so the memory ledger (and strict
    # mode) sees the n * polylog(n) sketch footprint Theorem C.1 budgets.
    dst_machine = cluster.machine(dst)
    # Throttle hook (advisory): the assembled bank is resident working
    # state — re-scheduling traffic cannot shrink it, so a bank past the
    # headroom line is surfaced to the controller's advise channel (and
    # the artifact's throttle block) rather than "fixed" silently.
    if cluster.throttle is not None:
        cluster.throttle.note_bank(
            word_size(bank), dst_machine.capacity, note=f"{note}#bank"
        )
    dst_machine.put(f"{note}#bank", bank)
    try:
        uf, _ = bank_boruvka(bank)
        cluster.checkpoint_memory(f"{note}/boruvka")
    finally:
        dst_machine.pop(f"{note}#bank", None)
    return uf.labels(range(n))


def heterogeneous_connectivity(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
    copies: int = 3,
    instances: int = 3,
) -> ConnectivityResult:
    """Identify the connected components of *graph* in O(1) rounds.

    A single sketch instance fails with small constant probability (some
    supernode's samplers all miss in some phase), and failure is one-sided:
    the instance reports *too many* components, never too few (sampled
    edges are always real cut edges).  Running ``instances`` independent
    instances in parallel and keeping the one with fewest components
    therefore amplifies to w.h.p. — the paper's standard repetition.
    """
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="conn-edges"
    )
    best: list[int] | None = None
    with cluster.ledger.parallel("instances") as par:
        for _ in range(max(1, instances)):
            with par.branch():
                labels = sketch_components(cluster, store, graph.n, rng, copies=copies)
            if best is None or len(set(labels)) < len(set(best)):
                best = labels
    assert best is not None
    return ConnectivityResult(
        labels=best,
        num_components=len(set(best)),
        rounds=cluster.ledger.rounds,
        cluster=cluster,
    )
