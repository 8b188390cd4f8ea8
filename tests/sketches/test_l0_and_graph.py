"""ℓ₀-samplers and AGM graph sketches, on the bank: edge ids, one
sampler's success rate, and components found in sketch space."""

import random

from repro.graph import generators
from repro.graph.traversal import component_labels
from repro.sketches import (
    GraphSketchSpec,
    SketchBank,
    bank_boruvka,
    edge_from_id,
    edge_id,
)


def single_sampler_bank(seed=0):
    """A bank of one sampler over about 1000 coordinates: vertex 0's
    vector holds the edge ``(0, v)`` at coordinate ``v``."""
    return SketchBank(
        GraphSketchSpec.generate(1000, random.Random(seed), phases=1, copies=1)
    )


def test_samples_one_of_the_nonzero_coordinates():
    bank = single_sampler_bank()
    support = (10, 20, 30)
    bank.update_edges((0, v) for v in support)
    sampled = bank.sample_outgoing(0, phase=0)
    assert sampled is not None and sampled[0] == 0 and sampled[1] in support


def test_success_rate_over_seeds():
    """A single sampler succeeds with constant probability; over many seeds
    the success rate should be high for moderate support sizes."""
    successes = 0
    for seed in range(40):
        support = random.Random(seed + 1).sample(range(1, 1000), 25)
        bank = single_sampler_bank(seed)
        bank.update_edges((0, v) for v in support)
        sampled = bank.sample_outgoing(0, phase=0)
        if sampled is not None and sampled[1] in support:
            successes += 1
    assert successes >= 30


def test_edge_id_roundtrip():
    n = 50
    for u, v in [(0, 1), (3, 40), (48, 49)]:
        assert edge_from_id(n, edge_id(n, u, v)) == (u, v)
        assert edge_id(n, v, u) == edge_id(n, u, v)


def test_components_match_truth_on_planted_graph():
    g = generators.planted_components_graph(40, 4, 30, random.Random(10))
    bank = SketchBank(GraphSketchSpec.generate(g.n, random.Random(11)), range(g.n))
    bank.update_edges(g.edges)
    uf, _ = bank_boruvka(bank)
    assert uf.labels(range(g.n)) == component_labels(g)
