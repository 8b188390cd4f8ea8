"""Section 3 — the heterogeneous MST algorithm."""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mst as mst_module
from repro.core.mst import (
    boruvka_step_budget,
    heterogeneous_mst,
    planned_boruvka_steps,
)
from repro.graph import Graph, generators
from repro.graph.validation import verify_mst
from repro.mpc import ModelConfig
from repro.primitives import columnar
from repro.primitives.columnar import EdgeBlock


@pytest.fixture
def rng():
    return random.Random(70)


def test_exact_mst_on_sparse_graph(rng):
    g = generators.random_connected_graph(40, 60, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(1))
    assert verify_mst(g, result.edges)
    assert len(result.edges) == g.n - 1


def test_exact_mst_on_dense_graph(rng):
    g = generators.random_connected_graph(60, 900, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(2))
    assert verify_mst(g, result.edges)


def test_mst_on_tree_is_the_tree(rng):
    g = generators.random_tree(30, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(3))
    assert sorted(result.edges) == sorted(g.edges)


def test_minimum_spanning_forest_on_disconnected_graph(rng):
    g = generators.planted_components_graph(40, 4, 50, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(4))
    assert verify_mst(g, result.edges)
    assert len(result.edges) == g.n - 4


def test_total_weight_property(rng):
    from repro.local.mst import kruskal

    g = generators.random_connected_graph(35, 200, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(5))
    assert result.total_weight == sum(e[2] for e in kruskal(g))


def test_unweighted_graph_rejected(rng):
    g = generators.random_connected_graph(10, 15, rng)
    with pytest.raises(ValueError):
        heterogeneous_mst(g)


def test_planned_steps_grow_doubly_logarithmically():
    n = 1024
    # m/n = 2 -> 0 steps; growing density adds steps very slowly.
    assert planned_boruvka_steps(n, 2 * n, f=1 / 10) == 0
    s8 = planned_boruvka_steps(n, 8 * n, f=1 / 10)
    s64 = planned_boruvka_steps(n, 64 * n, f=1 / 10)
    s512 = planned_boruvka_steps(n, 512 * n, f=1 / 10)
    assert s8 <= s64 <= s512
    assert s512 <= math.ceil(math.log2(math.log2(512))) + 1


def test_planned_steps_shrink_with_f():
    n, m = 1024, 1024 * 64
    steps = [planned_boruvka_steps(n, m, f) for f in (1 / 10, 0.3, 0.6, 1.0)]
    assert steps == sorted(steps, reverse=True)
    assert steps[-1] == 0  # superlinear memory: no Borůvka needed


def test_step_budget_is_doubly_exponential_for_near_linear():
    n = 1024
    f = 1 / math.log2(n)
    assert boruvka_step_budget(n, f, 0) == 2**1
    assert boruvka_step_budget(n, f, 1) == 2**2
    assert boruvka_step_budget(n, f, 2) == 2**4
    assert boruvka_step_budget(n, f, 3) == 2**8


def test_rounds_grow_with_density_like_loglog(rng):
    """The measured round counts across a density sweep must grow, but only
    by the (constant) per-step cost times a log log factor."""
    n = 72
    rounds = []
    for ratio in (2, 16, 64):
        m = min(n * (n - 1) // 2, n * ratio)
        g = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)
        result = heterogeneous_mst(g, rng=random.Random(ratio))
        assert verify_mst(g, result.edges)
        rounds.append(result.rounds)
    assert rounds[0] < rounds[1] <= rounds[2] + 10
    # Doubling the exponent of density adds at most ~one Borůvka step.
    assert rounds[2] - rounds[1] <= rounds[1] - rounds[0] + 25


def test_superlinear_machine_reduces_steps(rng):
    n, m = 80, 2400
    g = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)
    steps = []
    for f in (0.25, 1.0):
        config = ModelConfig.heterogeneous_superlinear(n=n, m=m, f=f)
        result = heterogeneous_mst(g, config=config, rng=random.Random(6))
        assert verify_mst(g, result.edges)
        steps.append(result.boruvka_steps)
    assert steps[0] >= steps[1]


def test_sampling_attempt_counter(rng):
    g = generators.random_connected_graph(30, 90, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(7))
    assert result.sampling_attempts >= 1


def test_result_reports_ledger_rounds(rng):
    g = generators.random_connected_graph(30, 90, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(8))
    assert result.rounds == result.cluster.ledger.rounds > 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_mst_property_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(12, 36)
    m = rng.randrange(n - 1, min(4 * n, n * (n - 1) // 2))
    g = generators.random_connected_graph(n, m, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(seed + 1))
    assert verify_mst(g, result.edges)


def _watched_mst(graph, rng):
    """Run the MST, recording after every Borůvka step which non-empty
    small machines hold the contracted edges as an EdgeBlock, and the
    tuple rows ingested inside the dedup."""
    shapes: list[list[bool]] = []
    dedup_ingests: list[int] = []
    in_dedup: list[bool] = []
    step, dedup, ingest = mst_module._boruvka_step, mst_module.dedup_lightest, columnar.ingest_rows

    def checked_step(cluster, store, *args):
        merged = step(cluster, store, *args)
        shapes.append([
            isinstance(data, EdgeBlock)
            for machine in cluster.smalls
            if len(data := machine.get(store.name, []))
        ])
        return merged

    def watched_dedup(*args, **kwargs):
        in_dedup.append(True)
        try:
            return dedup(*args, **kwargs)
        finally:
            in_dedup.pop()

    def counted_ingest(rows):
        if in_dedup and not isinstance(rows, EdgeBlock):
            dedup_ingests.append(len(rows))
        return ingest(rows)

    with mock.patch.object(mst_module, "_boruvka_step", checked_step), \
            mock.patch.object(mst_module, "dedup_lightest", watched_dedup), \
            mock.patch.object(columnar, "ingest_rows", counted_ingest):
        result = heterogeneous_mst(graph, rng=rng)
    return result, shapes, dedup_ingests


def test_boruvka_steps_stay_in_columns():
    """Perf shape of Section 3's Borůvka phase at the end-to-end quick size
    (n=300, m=2400): after every step the contracted edges are an
    EdgeBlock on every non-empty small machine, and the dedup sorts get
    blocks, so they ingest no tuple rows.  Weights past int64 (every
    weight raised by 2**70) ride an object column: the steps still stay
    in blocks, and the ledger is the plain weights' ledger."""
    rng = random.Random(0)
    g = generators.random_connected_graph(300, 2400, rng).with_unique_weights(rng)
    result, shapes, dedup_ingests = _watched_mst(g, random.Random(rng.getrandbits(64)))
    assert verify_mst(g, result.edges)
    assert shapes and shapes[0] and all(all(step_shapes) for step_shapes in shapes)
    assert dedup_ingests == []

    g = generators.random_connected_graph(60, 300, random.Random(1))
    g = g.with_unique_weights(random.Random(2))
    big = Graph(g.n, [(u, v, w + 2**70) for u, v, w in g.edges])
    plain = heterogeneous_mst(g, rng=random.Random(3))
    result, shapes, _ = _watched_mst(big, random.Random(3))
    assert shapes and shapes[0] and all(all(step_shapes) for step_shapes in shapes)
    assert [(u, v, w - 2**70) for u, v, w in result.edges] == plain.edges
    ledger = [
        [(r.note, r.total_words, r.max_sent, r.max_received, r.items)
         for r in outcome.cluster.ledger.records]
        for outcome in (plain, result)
    ]
    assert ledger[0] == ledger[1]
    assert (result.rounds, result.cluster.ledger.total_words) == (61, 84349)
