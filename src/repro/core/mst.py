"""Section 3 — MST in ``O(log log(m/n))`` rounds in Heterogeneous MPC.

The algorithm (Theorem 3.1) has two parts:

1. **Doubly-exponential Borůvka** (Lotker et al. [45]).  In step ``i`` every
   remaining vertex selects its ``q_i`` lightest outgoing edges and the
   large machine contracts along them, where ``q_i = n^{2^i * f}`` —
   ``2^{2^i}`` for a near-linear large machine (``f = 1/log n``).  After
   ``t = ceil(log2(log_n(m/n) / f))`` steps (``log log(m/n)`` in the
   near-linear case) at most ``~n^2/m`` contracted vertices remain.

2. **KKT sampling** (Karger–Klein–Tarjan [40]).  Sample each remaining edge
   with probability ``p``; the large machine computes a minimum spanning
   forest ``F`` of the sample and broadcasts KKKP flow labels of ``F``
   (Claim 3 + sort-join), letting every small machine discard its F-heavy
   edges locally.  By Lemma 3.2 only ``O(n'/p)`` F-light edges survive in
   expectation; they are counted (Claim 2) and shipped to the large
   machine, which finishes the MST locally.  The whole process is repeated
   in parallel until the count check passes.

The implementation works on *contracted edge records*
``(cu, cv, w, ou, ov)`` — current endpoints, unique weight, and the
original edge the record represents — so the final output is expressed in
original-graph edges, as the paper requires.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from ..graph.graph import Graph
from ..graph.union_find import UnionFind
from ..labeling import build_flow_labels, decode_heaviest
from ..local.mst import kruskal_edges
from ..mpc import AlgorithmFailure, Cluster, ModelConfig
from ..primitives import columnar
from ..primitives.arrange import arrange_directed, query_first_records
from ..primitives.columnar import EdgeBlock
from ..primitives.dedup import dedup_lightest
from ..primitives.edgestore import EdgeStore

__all__ = ["MSTResult", "heterogeneous_mst", "boruvka_step_budget", "planned_boruvka_steps"]


@dataclass
class MSTResult:
    """Outcome of a heterogeneous MST run."""

    edges: list[tuple[int, int, int]]
    rounds: int
    boruvka_steps: int
    sampling_attempts: int
    cluster: Cluster = field(repr=False)

    @property
    def total_weight(self) -> int:
        return sum(e[2] for e in self.edges)


def planned_boruvka_steps(n: int, m: int, f: float) -> int:
    """``t = ceil(log2(log_n(m/n) / f))`` steps of doubly-exponential
    Borůvka (Theorem 3.1); ``ceil(log2 log2 (m/n))`` when ``f = 1/log n``."""
    ratio = m / max(n, 2)
    if ratio <= 2.0:
        return 0
    exponent = math.log(ratio, max(n, 2)) / f
    if exponent <= 1.0:
        return 0
    return math.ceil(math.log2(exponent))


def boruvka_step_budget(n: int, f: float, step: int) -> int:
    """Per-vertex edge quota ``q_i = n^{2^i * f}`` (= ``2^{2^i}`` when the
    large machine is near-linear)."""
    return max(2, int(round(n ** (min(2**step * f, 1.0)))))


def heterogeneous_mst(
    graph: Graph,
    config: ModelConfig | None = None,
    rng: random.Random | None = None,
    max_attempts: int = 24,
) -> MSTResult:
    """Compute the exact minimum spanning forest of *graph* in the
    Heterogeneous MPC model.

    Args:
        graph: weighted input graph (unique positive integer weights).
        config: deployment; defaults to the paper's model (one near-linear
            machine, ``m / sqrt(n)`` small machines).
        rng: randomness for edge sampling (reproducible runs).
        max_attempts: retry budget for the KKT sampling phase; the paper
            runs ``O(log n)`` instances in parallel.
    """
    if not graph.weighted:
        raise ValueError("MST needs a weighted graph")
    rng = rng if rng is not None else random.Random(0)
    config = (
        config
        if config is not None
        else ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))
    )
    cluster = Cluster(config, rng=random.Random(rng.random()))

    n, m = graph.n, max(graph.m, 1)
    f = config.f
    # No list of the input tuples outlives the placement: once the first
    # Borůvka step reads the store as blocks, the tuples are garbage.
    store = EdgeStore.create(
        cluster, [(e[0], e[1], e[2], e[0], e[1]) for e in graph.edges], name="mst-edges"
    )

    mst_edges: list[tuple[int, int, int]] = []
    contraction = UnionFind(range(n))
    current_vertices = n
    steps = planned_boruvka_steps(n, m, f)

    with cluster.ledger.section("boruvka"):
        for step in range(steps):
            quota = boruvka_step_budget(n, f, step)
            merged = _boruvka_step(cluster, store, quota, contraction, mst_edges)
            current_vertices -= merged
            if len(store) == 0:
                break

    with cluster.ledger.section("kkt-sampling"):
        attempts = _kkt_sampling_phase(
            cluster, store, rng, n, f, steps, mst_edges, max_attempts
        )

    return MSTResult(
        edges=sorted(mst_edges),
        rounds=cluster.ledger.rounds,
        boruvka_steps=steps,
        sampling_attempts=attempts,
        cluster=cluster,
    )


# ----------------------------------------------------------------------
# Part 1: doubly-exponential Borůvka
# ----------------------------------------------------------------------
def _boruvka_step(
    cluster: Cluster,
    store: EdgeStore,
    quota: int,
    contraction: UnionFind,
    mst_edges: list[tuple[int, int, int]],
) -> int:
    """One contraction step; returns the number of vertices eliminated."""
    # Arrange directed copies sorted by (source, weight) — Claims 1 and 4.
    arrangement = arrange_directed(
        cluster,
        store.name,
        directed_name=f"{store.name}.directed",
        secondary_key=2,
        note="arrange",
    )

    # Section 3's query step: the large machine asks each machine for its
    # share of every vertex's min(quota, deg) lightest edges; the answers
    # are the contracted edge records, tagged with the submitting vertex
    # (needed for the saturation rule below).
    submitted_quota = {
        v: min(quota, degree) for v, degree in arrangement.out_degrees.items()
    }
    collected = query_first_records(
        cluster,
        arrangement,
        submitted_quota,
        fields=(2, 3, 4, 5, 6),
        notes=("boruvka/queries", "boruvka/lightest"),
    )

    # Large machine contracts along the collected edges, lightest first,
    # using the saturation rule of Lotker et al. [45]: each vertex submitted
    # only its quota lightest edges, so once every submitted edge of some
    # vertex in a component has become internal, that component may "hide"
    # lighter unsubmitted outgoing edges and is marked dirty; an external
    # edge is added only if at least one side is clean, which certifies it
    # as the true minimum outgoing edge of that side (cut property).  Edges
    # skipped because both sides are dirty simply remain in the contracted
    # graph for later steps.  (The paper's Algorithm 3 pseudocode elides
    # this check; correctness is inherited from [45] — see "Substitutions"
    # in docs/THEOREM_MAP.md.)
    submitters: dict[tuple, set[int]] = {}
    for src, *edge in collected:
        submitters.setdefault(tuple(edge), set()).add(src)
    credit: dict[int, int] = {}
    dirty: dict[int, bool] = {}
    local_union = UnionFind()

    def mark_internal(vertex: int) -> None:
        credit[vertex] = credit.get(vertex, 0) + 1
        if credit[vertex] >= submitted_quota.get(vertex, 0):
            dirty[local_union.find(vertex)] = True

    merged = 0
    for edge in sorted(submitters, key=lambda e: e[2]):
        cu, cv, w, ou, ov = edge
        ru, rv = local_union.find(cu), local_union.find(cv)
        if ru == rv:
            for vertex in submitters[edge]:
                mark_internal(vertex)
            continue
        if dirty.get(ru, False) and dirty.get(rv, False):
            continue  # unsafe: both sides may hide lighter outgoing edges
        was_dirty = dirty.get(ru, False) or dirty.get(rv, False)
        local_union.union(cu, cv)
        root = local_union.find(cu)
        if was_dirty:
            dirty[root] = True
        mst_edges.append((min(ou, ov), max(ou, ov), w))
        contraction.union(cu, cv)
        merged += 1
        for vertex in submitters[edge]:
            mark_internal(vertex)

    # Every current vertex gets its new name (itself unless it merged), so
    # the renamed endpoints fit one int column.
    rename = {vertex: vertex for vertex in arrangement.out_degrees}
    for root, members in local_union.groups().items():
        target = min(members)
        for member in members:
            rename[member] = target

    # Disseminate the rename map; small machines relabel and drop internal
    # edges (Claim 3 + sort-join), then parallel edges are deduplicated
    # keeping the lightest (Claim 1 + one boundary round).
    annotated = store.annotate(rename, note="boruvka/rename")
    _rename(cluster, annotated.name, store.name)
    dedup_lightest(cluster, store.name, key=(0, 1), weight=2, note="boruvka/dedup")
    return merged


def _rename(cluster: Cluster, name: str, out_name: str) -> None:
    """Store the contracted edges after the rename as *out_name*, and
    drop dataset *name*: its rows ``(cu, cv, w, ou, ov, new_u, new_v)``
    become ``(min, max, w, ou, ov)`` of the new endpoints, internal edges
    dropped — as column operations over all machines."""
    columns, counts = columnar.sharded(cluster, name, scalars=True)
    cluster.pop(name)
    if not columns:
        cluster.store(out_name, EdgeBlock([]), counts)
        return
    _, _, weight, ou, ov, new_u, new_v = columns
    keep = new_u != new_v
    machine = np.repeat(np.arange(len(counts)), counts)[keep]
    cluster.store(
        out_name,
        EdgeBlock([
            np.minimum(new_u, new_v)[keep],
            np.maximum(new_u, new_v)[keep],
            weight[keep],
            ou[keep],
            ov[keep],
        ]),
        np.bincount(machine, minlength=len(counts)),
    )


# ----------------------------------------------------------------------
# Part 2: KKT sampling + F-light filtering
# ----------------------------------------------------------------------
def _kkt_sampling_phase(
    cluster: Cluster,
    store: EdgeStore,
    rng: random.Random,
    n: int,
    f: float,
    steps: int,
    mst_edges: list[tuple[int, int, int]],
    max_attempts: int,
) -> int:
    remaining_vertices = {record[0] for record in store.items()} | {
        record[1] for record in store.items()
    }
    n_prime = max(len(remaining_vertices), 1)
    p = min(1.0, float(n) ** -(min(2.0**steps * f, 1.0) + f))
    expected_light = n_prime / p
    threshold = 4.0 * expected_light + 100.0

    attempts = 0
    final_edges: list | None = None
    sampled_graph_edges: list | None = None
    with cluster.ledger.parallel("kkt") as par:
        for attempt in range(max_attempts):
            attempts += 1
            with par.branch():
                sampled = store.sample(p, rng)
                sample_edges = sampled.gather_to_large(note="kkt/sample")
                sampled.drop()
                forest = kruskal_edges([(r[0], r[1], r[2]) for r in sample_edges])
                labels = build_flow_labels(remaining_vertices, forest)

                annotated = store.annotate(labels, note="kkt/labels")
                light_name = f"{store.name}.light"
                for machine in cluster.smalls:
                    light = [
                        row[:-2]
                        for row in machine.pop(annotated.name, [])
                        if row[-2] is None
                        or row[-1] is None
                        or row[2] <= decode_heaviest(row[-2], row[-1])
                    ]
                    machine.put(light_name, light)
                light_store = EdgeStore(cluster, light_name)
                count = light_store.count(note="kkt/count")
                if count <= threshold:
                    final_edges = light_store.gather_to_large(note="kkt/light")
                    sampled_graph_edges = sample_edges
                light_store.drop()
            if final_edges is not None:
                break
    if final_edges is None:
        raise AlgorithmFailure(
            f"KKT sampling failed {max_attempts} times (threshold {threshold:.0f})"
        )

    # The large machine finishes locally: MST over F-light + sampled edges,
    # then map the chosen contracted edges back to original edges.
    candidates = {tuple(record) for record in final_edges}
    candidates.update(tuple(record) for record in sampled_graph_edges)
    chosen = kruskal_edges([(r[0], r[1], r[2]) for r in candidates])
    weight_to_original = {record[2]: (record[3], record[4]) for record in candidates}
    for cu, cv, w in chosen:
        ou, ov = weight_to_original[w]
        mst_edges.append((min(ou, ov), max(ou, ov), w))
    return attempts
