"""Section 5 — maximal matching (Theorem 5.1) and filtering (Theorem 5.5)."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.matching as matching_module
from repro.core.matching import (
    filtering_matching,
    heterogeneous_matching,
    low_degree_phase_rounds,
)
from repro.graph import generators
from repro.graph.validation import is_matching, is_maximal_matching
from repro.mpc import ModelConfig
from repro.primitives.columnar import EdgeBlock


@pytest.fixture
def rng():
    return random.Random(91)


def test_phase2_ranks_past_int64_stay_in_blocks():
    """At n >= 6,209 phase 2's ranks (randrange(n**5)) pass int64: the
    arrangement keeps them in an object column of EdgeBlocks, and the run
    keeps its ledger (40 rounds, 1,916,160 words)."""
    graph = generators.random_connected_graph(6300, 25200, random.Random(11))
    arranged: list[list] = []
    query = matching_module.query_first_records

    def watched_query(cluster, arrangement, *args, **kwargs):
        arranged.append([
            data for m in cluster.smalls if len(data := m.get(arrangement.name, []))
        ])
        return query(cluster, arrangement, *args, **kwargs)

    with mock.patch.object(matching_module, "query_first_records", watched_query):
        result = heterogeneous_matching(graph, rng=random.Random(12))
    assert (result.rounds, result.cluster.ledger.total_words) == (40, 1916160)
    assert arranged and all(
        data and all(isinstance(block, EdgeBlock) for block in data) for data in arranged
    )
    assert any(col.dtype == object for col in arranged[0][0].columns)
    assert is_maximal_matching(graph, result.matching)


def test_maximal_on_sparse_graph(rng):
    g = generators.random_connected_graph(40, 80, rng)
    result = heterogeneous_matching(g, rng=random.Random(1))
    assert is_maximal_matching(g, result.matching)


def test_maximal_on_dense_graph(rng):
    g = generators.random_connected_graph(60, 900, rng)
    result = heterogeneous_matching(g, rng=random.Random(2))
    assert is_maximal_matching(g, result.matching)


def test_maximal_on_skewed_degrees(rng):
    """Preferential attachment: exercises the low/high degree split."""
    g = generators.preferential_attachment_graph(90, 3, rng)
    result = heterogeneous_matching(g, rng=random.Random(3))
    assert is_maximal_matching(g, result.matching)


def test_maximal_on_star(rng):
    """A star has one high-degree hub; matching size must be exactly 1."""
    from repro.graph import Graph

    g = Graph(20, [(0, v) for v in range(1, 20)])
    result = heterogeneous_matching(g, rng=random.Random(4))
    assert is_maximal_matching(g, result.matching)
    assert result.size == 1


def test_maximal_on_disconnected(rng):
    g = generators.planted_components_graph(40, 4, 40, rng)
    result = heterogeneous_matching(g, rng=random.Random(5))
    assert is_maximal_matching(g, result.matching)


def test_matching_is_valid_not_just_maximal(rng):
    g = generators.random_connected_graph(50, 400, rng)
    result = heterogeneous_matching(g, rng=random.Random(6))
    assert is_matching(g, result.matching)


def test_phase1_iteration_count_reported(rng):
    g = generators.random_connected_graph(40, 200, rng)
    result = heterogeneous_matching(g, rng=random.Random(7))
    assert result.phase1_iterations >= 1


def test_theory_charge_function():
    assert low_degree_phase_rounds(2) >= 1.0
    assert low_degree_phase_rounds(2**16) > low_degree_phase_rounds(2**4)


def test_bipartite_graph(rng):
    g = generators.random_bipartite_graph(20, 20, 100, rng)
    result = heterogeneous_matching(g, rng=random.Random(8))
    assert is_maximal_matching(g, result.matching)


# ----------------------------------------------------------------------
# Theorem 5.5 — filtering
# ----------------------------------------------------------------------
def test_filtering_matching_is_maximal(rng):
    g = generators.random_connected_graph(50, 600, rng)
    result = filtering_matching(g, rng=random.Random(9))
    assert is_maximal_matching(g, result.matching)


def test_filtering_levels_shrink_with_f(rng):
    g = generators.random_connected_graph(50, 900, rng)
    levels = []
    for f in (0.3, 1.0):
        config = ModelConfig.heterogeneous_superlinear(n=g.n, m=g.m, f=f)
        result = filtering_matching(g, config=config, rng=random.Random(10))
        assert is_maximal_matching(g, result.matching)
        levels.append(result.levels)
    assert levels[0] >= levels[1]


def test_filtering_rounds_track_levels(rng):
    g = generators.random_connected_graph(40, 500, rng)
    config = ModelConfig.heterogeneous_superlinear(n=g.n, m=g.m, f=0.4)
    result = filtering_matching(g, config=config, rng=random.Random(11))
    assert result.rounds >= result.levels  # at least one round per level


def test_filtering_on_tiny_graph_single_level(rng):
    g = generators.random_connected_graph(20, 25, rng)
    config = ModelConfig.heterogeneous_superlinear(n=g.n, m=g.m, f=1.0)
    result = filtering_matching(g, config=config, rng=random.Random(12))
    assert result.levels == 1
    assert is_maximal_matching(g, result.matching)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_matching_property_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(12, 40)
    m = rng.randrange(n - 1, min(5 * n, n * (n - 1) // 2))
    g = generators.random_connected_graph(n, m, rng)
    result = heterogeneous_matching(g, rng=random.Random(seed + 1))
    assert is_maximal_matching(g, result.matching)
