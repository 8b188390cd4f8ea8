"""Appendix C.5 — (Δ+1) vertex coloring in O(1) rounds.

The Assadi–Chen–Khanna palette-sparsification theorem (Lemma C.8): if every
vertex samples ``Θ(log n)`` colors from ``{0, ..., Δ}``, then w.h.p. a
proper coloring exists in which every vertex uses one of its sampled
colors.  Only *conflicting* edges (endpoints with intersecting palettes)
matter, and w.h.p. there are ``O~(n)`` of them, so the large machine can
collect the conflict graph and list-color it locally; vertices with no
conflicting edge take any palette color.  We retry with fresh palettes in
the (w.h.p.-rare) event the local list coloring gets stuck.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..graph.graph import Graph
from ..local.coloring import list_coloring
from ..mpc import AlgorithmFailure, Cluster, ModelConfig
from ..primitives.edgestore import EdgeStore

__all__ = ["ColoringResult", "heterogeneous_coloring", "palette_size"]


@dataclass
class ColoringResult:
    """Outcome of a distributed (Δ+1)-coloring run."""

    colors: list[int]
    num_colors_allowed: int
    rounds: int
    attempts: int
    conflict_edges: int
    cluster: Cluster = field(default=None, repr=False)


def palette_size(n: int, max_degree: int) -> int:
    """``Θ(log n)`` sampled colors per vertex (capped at the palette
    universe Δ+1)."""
    return min(max_degree + 1, max(4, 4 * int(math.log2(max(n, 4)))))


def heterogeneous_coloring(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
    max_attempts: int = 12,
) -> ColoringResult:
    """Proper (Δ+1)-coloring of *graph* w.h.p. in O(1) rounds."""
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))
    n = graph.n
    store = EdgeStore.create(
        cluster, [(e[0], e[1]) for e in graph.edges], name="color-edges"
    )

    degrees = store.aggregate(lambda e: (e[0], 1), "sum", note="deg")
    for v, extra in store.aggregate(lambda e: (e[1], 1), "sum", note="deg2").items():
        degrees[v] = degrees.get(v, 0) + extra
    max_degree = max(degrees.values(), default=0)
    universe = max_degree + 1
    size = palette_size(n, max_degree)

    attempts = 0
    final: list[int] | None = None
    conflict_count = 0
    with cluster.ledger.parallel("palette") as par:
        for _ in range(max_attempts):
            attempts += 1
            with par.branch():
                palettes = {
                    v: tuple(rng.sample(range(universe), size)) for v in range(n)
                }
                annotated = store.annotate(palettes, note="palettes")
                conflict_name = f"{store.name}.conflicts"
                for machine in cluster.smalls:
                    conflicts = []
                    for row in machine.pop(annotated.name, []):
                        if set(row[-2]) & set(row[-1]):
                            conflicts.append(row[:-2])
                    machine.put(conflict_name, conflicts)
                conflict_store = EdgeStore(cluster, conflict_name)
                conflict_edges = conflict_store.gather_to_large(note="conflicts")
                conflict_store.drop()

                conflict_vertices = {x for e in conflict_edges for x in e}
                assignment = list_coloring(
                    sorted(conflict_vertices), conflict_edges, palettes
                )
                if assignment is not None:
                    colors = [0] * n
                    for v in range(n):
                        colors[v] = (
                            assignment[v] if v in assignment else palettes[v][0]
                        )
                    final = colors
                    conflict_count = len(conflict_edges)
            if final is not None:
                break
    if final is None:
        raise AlgorithmFailure("palette sparsification failed every attempt")

    return ColoringResult(
        colors=final,
        num_colors_allowed=universe,
        rounds=cluster.ledger.rounds,
        attempts=attempts,
        conflict_edges=conflict_count,
        cluster=cluster,
    )
