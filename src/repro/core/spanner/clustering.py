"""Algorithm 5 / Lemma A.1 — the clustering graphs of [22] in O(1) rounds.

Star decomposition: every vertex ``u`` gets a *star center* ``sigma(u)``
(itself, or an adjacent vertex from the densest hitting set that dominates
it), and each original edge ``{u, v}`` at degree scale
``i = floor(log2 min(deg u, deg v))`` induces the clustering-graph edge
``(sigma(u), sigma(v))`` in ``A_i``, tagged with the lightest original edge
realizing it (``E_G``).

The hitting sets ``D_i`` are built exactly as in Algorithm 5: ``log n``
independent samples at rate ``i / 2^i``, each patched with the un-dominated
high-degree vertices, keeping the smallest patched sample.  ``B_i`` is the
union of the chosen ``D_j`` for ``j >= i`` (with ``B_0 = V``), and
``i_u = max{i : u in B_i or N(u) cap B_i != empty}``.

Communication pattern (all O(1) rounds): degree aggregation (Claim 2),
three edge annotations (Claim 3 + sort-join) interleaved with neighborhood
OR-aggregations, a candidate aggregation to pick random star centers, and a
distributed dedup of the clustering-graph edges (Claim 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ...mpc.cluster import Cluster
from ...primitives.dedup import dedup_lightest
from ...primitives.edgestore import EdgeStore

__all__ = ["ClusteringGraphs", "build_clustering_graphs", "degree_scale"]


def degree_scale(deg_u: int, deg_v: int) -> int:
    """The level of an edge: ``floor(log2(min of the endpoint degrees))``."""
    return int(math.log2(max(min(deg_u, deg_v), 1)))


def _highbit(mask: int) -> int:
    """Index of the highest set bit, or -1 for zero."""
    return mask.bit_length() - 1


@dataclass
class ClusteringGraphs:
    """The star decomposition plus the distributed clustering graphs.

    ``store`` holds flat records ``(c1, c2, scale, u, v)`` — one per
    clustering-graph edge ``(c1, c2)`` of ``A_scale``, deduplicated to its
    lightest original edge ``(u, v)`` — living on the small machines,
    ready for Algorithm 6.
    """

    levels: int
    sigma: dict[int, int]
    star_edges: set[tuple[int, int]]
    store: EdgeStore = field(repr=False)
    level_vertex_counts: dict[int, int] = field(default_factory=dict)
    level_edge_counts: dict[int, int] = field(default_factory=dict)


def build_clustering_graphs(
    cluster: Cluster,
    store: EdgeStore,
    n: int,
    rng: random.Random,
    trials: int | None = None,
    note: str = "clustering",
) -> ClusteringGraphs:
    """Build the clustering graphs from the edges in *store* (records are
    plain ``(u, v)`` pairs of the unweighted input graph)."""
    # --- degrees (Claim 2) -------------------------------------------------
    degrees = _aggregate_degrees(cluster, store, note=f"{note}/degrees")
    max_degree = max(degrees.values(), default=1)
    levels = int(math.log2(max(max_degree, 1))) + 1
    trials = trials if trials is not None else max(2, int(math.log2(max(n, 4))))

    # --- trial hitting sets D^j_i (sampled locally on the large machine) ---
    # Mask representation: bit i of trial_masks[j][v] <=> v in D^j_i,
    # for i = 1 .. levels-1 (level 0 is all of V and never stored).
    trial_masks: list[dict[int, int]] = []
    for _ in range(trials):
        mask: dict[int, int] = {}
        for i in range(1, levels):
            probability = min(1.0, i / float(2**i))
            for v in range(n):
                if rng.random() < probability:
                    mask[v] = mask.get(v, 0) | (1 << i)
        trial_masks.append(mask)

    # --- which vertices are dominated by each trial set (annotate + OR) ----
    packed = {
        v: tuple(trial_masks[j].get(v, 0) for j in range(trials)) for v in range(n)
    }
    annotated = store.annotate(packed, note=f"{note}/trial-masks")
    pairs_name = f"{store.name}.neighbor-or"
    for machine in cluster.smalls:
        pairs = []
        for row in machine.pop(annotated.name, []):
            pairs.append((row[0], row[-1]))
            pairs.append((row[1], row[-2]))
        machine.put(pairs_name, pairs)
    neighbor_or = EdgeStore(cluster, pairs_name).aggregate(
        lambda pair: (pair[0], pair[1]),
        lambda a, b: tuple(x | y for x, y in zip(a, b)),
        note=f"{note}/dominate",
    )
    cluster.map_small(pairs_name, lambda m, items: [])

    # --- patch each trial set and keep the smallest per level --------------
    chosen_mask: dict[int, int] = {v: 0 for v in range(n)}
    for i in range(1, levels):
        best_members: set[int] | None = None
        for j in range(trials):
            members = {v for v in range(n) if trial_masks[j].get(v, 0) & (1 << i)}
            for v, degree in degrees.items():
                if degree >= 2**i and not (
                    v in members
                    or (neighbor_or.get(v, ()) and neighbor_or[v][j] & (1 << i))
                ):
                    members.add(v)  # un-dominated high-degree vertex: patch in
            if best_members is None or len(members) < len(best_members):
                best_members = members
        for v in best_members or ():
            chosen_mask[v] |= 1 << i

    # --- i_u and star centers ----------------------------------------------
    annotated = store.annotate(chosen_mask, default=0, note=f"{note}/final-masks")
    pairs2 = f"{store.name}.final-or"
    for machine in cluster.smalls:
        pairs = []
        for row in machine.get(annotated.name, []):
            pairs.append((row[0], row[-1]))
            pairs.append((row[1], row[-2]))
        machine.put(pairs2, pairs)
    final_or = EdgeStore(cluster, pairs2).aggregate(
        lambda pair: (pair[0], pair[1]), "or", note=f"{note}/i_u"
    )
    cluster.map_small(pairs2, lambda m, items: [])

    i_u: dict[int, int] = {}
    needs_neighbor_center: dict[int, int] = {}
    sigma: dict[int, int] = {}
    for v in range(n):
        self_top = _highbit(chosen_mask.get(v, 0))
        neighbor_top = _highbit(final_or.get(v, 0))
        level = max(self_top, neighbor_top, 0)
        i_u[v] = level
        if level == 0 or self_top >= level:
            sigma[v] = v  # B_0 = V, or v itself is in B_{i_u}
        else:
            needs_neighbor_center[v] = level

    # --- random adjacent center for the remaining vertices (Claim 2) -------
    candidate_name = f"{store.name}.center-candidates"
    i_u_values = {v: (i_u[v], chosen_mask.get(v, 0)) for v in range(n)}
    annotated2 = store.annotate(i_u_values, note=f"{note}/center-pick")
    for machine in cluster.smalls:
        candidates = []
        for row in machine.pop(annotated2.name, []):
            u, v = row[0], row[1]
            (lu, mask_u), (lv, mask_v) = row[-2], row[-1]
            if u in needs_neighbor_center and _highbit(mask_v) >= lu:
                candidates.append((u, (cluster.rng.random(), v, (u, v))))
            if v in needs_neighbor_center and _highbit(mask_u) >= lv:
                candidates.append((v, (cluster.rng.random(), u, (u, v))))
        machine.put(candidate_name, candidates)
    chosen_center = EdgeStore(cluster, candidate_name).aggregate(
        lambda pair: (pair[0], pair[1]), "min", note=f"{note}/sigma"
    )
    cluster.map_small(candidate_name, lambda m, items: [])

    star_edges: set[tuple[int, int]] = set()
    for v, (_, center, edge) in chosen_center.items():
        sigma[v] = center
        star_edges.add((min(edge), max(edge)))
    for v, level in needs_neighbor_center.items():
        if v not in sigma:
            # No incident edge reached the aggregation (isolated after all
            # filtering) — degenerate; the vertex centers itself.
            sigma[v] = v

    # --- clustering-graph edges ---------------------------------------------
    sigma_deg = {v: (sigma[v], degrees.get(v, 0)) for v in range(n)}
    annotated3 = store.annotate(sigma_deg, note=f"{note}/edges")
    ai_name = f"{store.name}.ai-edges"
    for machine in cluster.smalls:
        records = []
        for row in machine.pop(annotated3.name, []):
            (su, du), (sv, dv) = row[-2], row[-1]
            if su == sv:
                continue
            scale = degree_scale(du, dv)
            c1, c2 = min(su, sv), max(su, sv)
            records.append((c1, c2, scale, row[0], row[1]))
        machine.put(ai_name, records)
    ai_store = EdgeStore(cluster, ai_name)
    # Lightest original edge per (scale, c1, c2).
    dedup_lightest(cluster, ai_name, key=(2, 0, 1), weight=(3, 4), note=f"{note}/dedup")

    # --- per-level statistics (Claim 2) -------------------------------------
    level_edge_counts = ai_store.aggregate(
        lambda r: (r[2], 1), "sum", note=f"{note}/edge-counts"
    )
    vertex_marks = ai_store.aggregate(
        lambda r: ((r[2], r[0]), 1), "max", note=f"{note}/vertex-counts"
    )
    vertex_marks2 = ai_store.aggregate(
        lambda r: ((r[2], r[1]), 1), "max", note=f"{note}/vertex-counts2"
    )
    level_vertices: dict[int, set[int]] = {}
    for (scale, c), _ in list(vertex_marks.items()) + list(vertex_marks2.items()):
        level_vertices.setdefault(scale, set()).add(c)

    return ClusteringGraphs(
        levels=levels,
        sigma=sigma,
        star_edges=star_edges,
        store=ai_store,
        level_vertex_counts={i: len(vs) for i, vs in level_vertices.items()},
        level_edge_counts=dict(level_edge_counts),
    )


def _aggregate_degrees(
    cluster: Cluster, store: EdgeStore, note: str
) -> dict[int, int]:
    """Vertex degrees via Claim 2 (both endpoints of every edge count)."""
    pairs_by_machine = {
        machine.machine_id: [
            pair
            for edge in machine.get(store.name, [])
            for pair in ((edge[0], 1), (edge[1], 1))
        ]
        for machine in cluster.smalls
    }
    from ...primitives.aggregate import aggregate

    return aggregate(cluster, pairs_by_machine, "sum", note=note)
