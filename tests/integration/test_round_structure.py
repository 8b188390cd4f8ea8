"""Round-structure introspection: the ledger's section labels expose each
algorithm's phase anatomy, which the benchmarks rely on."""

import random

import pytest

from repro.core import heterogeneous_matching, heterogeneous_mst
from repro.core.spanner import heterogeneous_spanner
from repro.graph import generators


@pytest.fixture
def rng():
    return random.Random(191)


def test_mst_ledger_has_both_phases(rng):
    g = generators.random_connected_graph(48, 480, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(1))
    notes = [record.note for record in result.cluster.ledger.records]
    assert any("boruvka" in note for note in notes)
    assert any("kkt" in note for note in notes)


def test_mst_sparse_graph_skips_boruvka(rng):
    g = generators.random_connected_graph(40, 50, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(2))
    assert result.boruvka_steps == 0
    notes = [record.note for record in result.cluster.ledger.records]
    assert not any("boruvka" in note for note in notes)
    assert any("kkt" in note for note in notes)


def test_matching_ledger_has_three_phases(rng):
    g = generators.random_connected_graph(40, 300, rng)
    result = heterogeneous_matching(g, rng=random.Random(3))
    notes = " ".join(record.note for record in result.cluster.ledger.records)
    assert "phase1" in notes and "phase2" in notes and "phase3" in notes


def test_spanner_ledger_has_clustering_and_levels(rng):
    g = generators.random_connected_graph(40, 250, rng)
    result = heterogeneous_spanner(g, k=2, rng=random.Random(4))
    notes = " ".join(record.note for record in result.cluster.ledger.records)
    assert "clustering-graphs" in notes
    assert "level-spanners" in notes


def test_per_phase_round_counts_are_bounded(rng):
    """Each Borůvka step costs a bounded constant number of rounds — the
    whole point of the O(log log) claim."""
    g = generators.random_connected_graph(64, 1536, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(5))
    boruvka_rounds = sum(
        "boruvka" in record.note for record in result.cluster.ledger.records
    )
    assert result.boruvka_steps >= 2
    per_step = boruvka_rounds / result.boruvka_steps
    assert per_step <= 40  # constant per step at any density


def test_total_words_positive_and_finite(rng):
    g = generators.random_connected_graph(30, 120, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(6))
    assert 0 < result.cluster.ledger.total_words < 10**9
