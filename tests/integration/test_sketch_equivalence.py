"""Sketch equivalence: the vectorized bank substrate must reproduce the
seed per-object sketch implementation bit for bit.

Mirrors the ledger-equivalence policy of the round-engine migration: the
golden hashes below were captured by running the seed (pre-SketchBank)
implementation — per-vertex sketch objects over ℓ₀-sampler and
one-sparse sketch objects — on the exact inputs constructed here.  They
pin raw counter state, the sample traces, Borůvka's forest, component
labels, and the end-to-end connectivity ledger, so any bank or backend
change that shifts sketch semantics fails loudly.

``_seed_build`` is a frozen transplant of the seed update math (kept
independent of ``repro.sketches`` internals), used to cross-check the
golden state hash live; the bank itself must reproduce every hash.
"""

import hashlib
import random

from repro.core.connectivity import heterogeneous_connectivity
from repro.graph import generators
from repro.sketches import PRIME, GraphSketchSpec, SketchBank, bank_boruvka
from sketch_oracle import bank_row, sample_outgoing

# Captured at the pre-bank revision (commit fed6cb7), with the exact
# inputs constructed below.
GOLDEN = {
    "state_hash": "485b29e2003b4724",
    "sample_hash": "7a4b12651891231a",
    "labels_hash": "0f0f8d8029277272",
    "forest_hash": "ed03311bc011f4fc",
    "conn_labels_hash": "808981135252dcd2",
    "conn_rounds": 4,
    "conn_total_words": 486744,
    "conn_num_components": 4,
}


def _hash(parts):
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def _fixture_graph():
    return generators.random_connected_graph(40, 160, random.Random(31))


def _fixture_spec(n):
    return GraphSketchSpec.generate(n, random.Random(97), copies=3)


def _seed_build(spec, edges):
    """Frozen transplant of the seed per-object update math: one Horner
    hash per (endpoint, sampler), one ``pow`` per touched level, applied
    per endpoint — exactly what the seed object stack executed."""
    n = spec.n
    flat_seeds = [seeds for phase in spec.seeds for seeds in phase]
    levels = flat_seeds[0].num_levels
    state = {}
    for u, v in edges:
        lo, hi = (u, v) if u < v else (v, u)
        identifier = lo * n + hi
        x = (identifier + 1) % PRIME
        for endpoint in (u, v):
            rows = state.get(endpoint)
            if rows is None:
                rows = state[endpoint] = [
                    [0, 0, 0] for _ in range(len(flat_seeds) * levels)
                ]
            sign = 1 if endpoint == lo else -1
            for j, seeds in enumerate(flat_seeds):
                acc = 0
                for coefficient in seeds.level_hash.coefficients:
                    acc = (acc * x + coefficient) % PRIME
                depth = (acc & -acc).bit_length() - 1 if acc else 61
                top = min(depth, levels - 1)
                for level in range(top + 1):
                    cell = rows[j * levels + level]
                    cell[0] += sign
                    cell[1] += identifier * sign
                    cell[2] = (
                        cell[2]
                        + sign * pow(seeds.z_points[level], identifier, PRIME)
                    ) % PRIME
    return state


def _state_lines(vertex, s0, s1, s2):
    return [f"{vertex},{a},{b},{c}" for a, b, c in zip(s0, s1, s2)]


def test_seed_transplant_still_produces_the_golden_state():
    g = _fixture_graph()
    spec = _fixture_spec(g.n)
    state = _seed_build(spec, [(e[0], e[1]) for e in g.edges])
    lines = []
    for vertex in sorted(state):
        lines.extend(
            f"{vertex},{cell[0]},{cell[1]},{cell[2]}" for cell in state[vertex]
        )
    assert _hash(lines) == GOLDEN["state_hash"]


def test_bank_state_matches_seed_bit_for_bit():
    g = _fixture_graph()
    spec = _fixture_spec(g.n)
    edges = [(e[0], e[1]) for e in g.edges]
    bank = SketchBank(spec)
    bank.update_edges(edges)
    seed_state = _seed_build(spec, edges)
    assert sorted(bank.vertices) == sorted(seed_state)
    lines = []
    for vertex in sorted(bank.vertices):
        row = bank_row(bank, vertex)
        assert [list(cell) for cell in zip(*row)] == seed_state[vertex]
        lines.extend(_state_lines(vertex, *row))
    assert _hash(lines) == GOLDEN["state_hash"]


def _fixture_bank():
    """The fixture graph's bank: rows in endpoint-encounter order, the
    order the seed created its per-vertex sketches in."""
    g = _fixture_graph()
    bank = SketchBank(_fixture_spec(g.n))
    bank.update_edges(g.edges)
    return bank


def test_sample_trace_matches_seed():
    bank = _fixture_bank()
    trace = [
        f"{vertex}:{phase}:{sample_outgoing(bank, vertex, phase)}"
        for vertex in sorted(bank.vertices)
        for phase in range(bank.spec.phases)
    ]
    assert _hash(trace) == GOLDEN["sample_hash"]


def test_boruvka_forest_and_labels_match_seed():
    bank = _fixture_bank()
    uf, forest = bank_boruvka(bank)
    assert _hash([",".join(f"{u}-{v}" for u, v in forest)]) == GOLDEN["forest_hash"]
    labels = uf.labels(sorted(bank.vertices))
    assert _hash([",".join(map(str, labels))]) == GOLDEN["labels_hash"]


def test_end_to_end_connectivity_matches_seed_labels_and_ledger():
    g = generators.planted_components_graph(48, 4, 36, random.Random(77))
    result = heterogeneous_connectivity(g, rng=random.Random(13))
    assert _hash([",".join(map(str, result.labels))]) == GOLDEN["conn_labels_hash"]
    assert result.num_components == GOLDEN["conn_num_components"]
    assert result.rounds == GOLDEN["conn_rounds"]
    assert result.cluster.ledger.total_words == GOLDEN["conn_total_words"]
