"""Array-backed sketch banks: bulk construction, merging, sampling."""

import random

import numpy as np
import pytest

from repro.graph import Graph, generators
from repro.graph.traversal import component_labels
from repro.sketches import (
    GraphSketchSpec,
    SketchBank,
    SketchRow,
    VertexSketch,
    bank_boruvka,
)


def make_spec(n=8, seed=0, phases=3, copies=2):
    return GraphSketchSpec.generate(n, random.Random(seed), phases=phases, copies=copies)


def object_rows(spec, edges):
    """Reference rows built through the per-object wrapper API."""
    sketches = {}
    for u, v in edges:
        for endpoint in (u, v):
            if endpoint not in sketches:
                sketches[endpoint] = VertexSketch(spec, endpoint)
            sketches[endpoint].add_edge(u, v)
    return {v: s.bank.row(v) for v, s in sketches.items()}


def rows_equal(a: SketchRow, b: SketchRow) -> bool:
    return (
        np.array_equal(a.s0, b.s0)
        and np.array_equal(a.s1, b.s1)
        and np.array_equal(a.s2, b.s2)
    )


EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (1, 5), (6, 2), (5, 0)]


def test_update_edges_matches_object_api():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    for vertex, reference in object_rows(spec, EDGES).items():
        assert rows_equal(bank.row(vertex), reference)


def test_bulk_equals_incremental():
    spec = make_spec()
    bulk = SketchBank(spec)
    bulk.update_edges(EDGES)
    incremental = SketchBank(spec)
    for edge in EDGES:
        incremental.update_edges([edge])
    for vertex in bulk.vertices:
        assert rows_equal(bulk.row(vertex), incremental.row(vertex))


def test_update_accepts_weighted_tuples():
    spec = make_spec()
    a, b = SketchBank(spec), SketchBank(spec)
    a.update_edges([(0, 1, 7), (1, 2, 9)])
    b.update_edges([(0, 1), (1, 2)])
    for vertex in (0, 1, 2):
        assert rows_equal(a.row(vertex), b.row(vertex))


def test_self_loop_matches_object_semantics():
    """A self-loop contributes +1 per endpoint visit — twice to one row,
    exactly as the per-endpoint object construction does."""
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(3, 3)])
    reference = VertexSketch(spec, 3)
    reference.add_edge(3, 3)
    reference.add_edge(3, 3)
    assert rows_equal(bank.row(3), reference.bank.row(3))


def test_vertex_rows_auto_created_in_endpoint_order():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(4, 2), (0, 2)])
    assert bank.vertices == [4, 2, 0]
    assert 4 in bank and 7 not in bank
    assert len(bank) == 3


def test_internal_edge_cancels_on_merge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    assert not bank.is_zero_vertex(0)
    bank.merge_vertices(0, 1)
    assert bank.is_zero_vertex(0)
    assert bank.sample_outgoing(0, phase=0) is None


def test_merged_rows_sample_the_cut_edge():
    spec = make_spec(n=4, seed=6, phases=2, copies=3)
    bank = SketchBank(spec)
    bank.update_edges([(0, 1), (1, 2)])
    bank.merge_vertices(0, 1)
    # The cut ({0,1}, {2}) has exactly edge (1,2).
    assert bank.sample_outgoing(0, phase=0) == (1, 2)


def test_insert_row_and_row_items_roundtrip():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    rebuilt = SketchBank(spec)
    for vertex, row in bank.row_items():
        rebuilt.insert_row(vertex, row)
    for vertex in bank.vertices:
        assert rows_equal(bank.row(vertex), rebuilt.row(vertex))


def test_row_merge_is_linear():
    spec = make_spec()
    left = SketchBank(spec)
    left.update_edges([(0, 1), (1, 2)])
    right = SketchBank(spec)
    right.update_edges([(0, 3), (2, 4)])
    combined = SketchBank(spec)
    combined.update_edges([(0, 1), (1, 2), (0, 3), (2, 4)])
    merged = left.row(0).merge(right.row(0))
    assert rows_equal(merged, combined.row(0))


def test_absorb_accumulates_other_bank():
    spec = make_spec()
    a = SketchBank(spec)
    a.update_edges([(0, 1)])
    b = SketchBank(spec)
    b.update_edges([(1, 2)])
    a.absorb(b)
    reference = SketchBank(spec)
    reference.update_edges([(0, 1), (1, 2)])
    for vertex in (0, 1, 2):
        assert rows_equal(a.row(vertex), reference.row(vertex))


def test_copy_is_independent():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    before = bank.row(1)
    clone = bank.copy()
    clone.update_edges([(1, 2)])
    assert rows_equal(bank.row(1), before)  # original intact
    assert not rows_equal(bank.row(1), clone.row(1))
    assert 2 not in bank


def test_merge_different_seeds_rejected():
    bank = SketchBank(make_spec(seed=1))
    other = SketchBank(make_spec(seed=2), vertices=(0,))
    with pytest.raises(ValueError):
        bank.merge_row_from(other, 0)
    with pytest.raises(ValueError):
        bank.absorb(other)


def test_wrapper_merge_different_seeds_rejected():
    a = VertexSketch(make_spec(seed=1), 0)
    b = VertexSketch(make_spec(seed=2), 0)
    with pytest.raises(ValueError):
        a.merge(b)


def test_add_incident_requires_incidence():
    bank = SketchBank(make_spec())
    with pytest.raises(ValueError):
        bank.add_incident(0, 1, 2)


def test_word_size_matches_legacy_charge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    legacy = VertexSketch(spec, 0).word_size()
    assert bank.word_size() == len(bank) * legacy
    assert bank.row(0).word_size() == legacy


def test_decode_slot_recovers_single_edge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    identifier = 0 * spec.n + 1
    decoded = bank.decode_slot(0, phase=0, copy=0, level=0)
    assert decoded == (identifier, 1)
    assert bank.decode_slot(1, phase=0, copy=0, level=0) == (identifier, -1)


def test_bank_boruvka_matches_truth_on_random_graphs():
    for seed in range(4):
        rng = random.Random(seed)
        g = generators.random_connected_graph(18, 40, rng)
        spec = GraphSketchSpec.generate(g.n, random.Random(seed + 50), copies=3)
        bank = SketchBank(spec, vertices=range(g.n))
        bank.update_edges((e[0], e[1]) for e in g.edges)
        uf, forest = bank_boruvka(bank)
        assert uf.num_components == 1
        assert len(forest) == g.n - 1
        edge_set = g.edge_set()
        assert all((min(u, v), max(u, v)) in edge_set for u, v in forest)


def test_bank_boruvka_on_edgeless_bank():
    g = Graph(5, [])
    spec = GraphSketchSpec.generate(g.n, random.Random(3), copies=2)
    bank = SketchBank(spec, vertices=range(g.n))
    uf, forest = bank_boruvka(bank)
    assert uf.num_components == 5
    assert forest == []
    labels = component_labels(g)
    assert labels == list(range(5))


def test_nonuniform_level_counts_rejected():
    from repro.sketches import L0SamplerSeeds

    rng = random.Random(0)
    mixed = GraphSketchSpec(
        n=8,
        seeds=(
            (L0SamplerSeeds.generate(64, rng),),
            (L0SamplerSeeds.generate(100_000, rng),),
        ),
    )
    with pytest.raises(ValueError):
        SketchBank(mixed)


def test_wrapper_samplers_snapshot_matches_bank():
    spec = make_spec()
    sketch = VertexSketch(spec, 0)
    sketch.add_edge(0, 1)
    sketch.add_edge(0, 2)
    row = sketch.bank.row(0)
    flat_index = 0
    for phase in sketch.samplers:
        for sampler in phase:
            for level in sampler.levels:
                assert level.s0 == row.s0[flat_index]
                assert level.s1 == row.s1[flat_index]
                assert level.s2 == row.s2[flat_index]
                flat_index += 1


# --- builtin ints at the bank boundary ---------------------------------

def _all_builtin_ints(values) -> bool:
    return all(type(x) is int for x in values)


def test_bank_boundary_returns_builtin_ints():
    from repro.core.connectivity import heterogeneous_connectivity
    from repro.sketches import sketch_boruvka

    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    assert _all_builtin_ints(bank.vertices)
    sampled = [
        bank.sample_outgoing(v, phase)
        for v in bank.vertices
        for phase in range(spec.phases)
    ]
    sampled = [edge for edge in sampled if edge is not None]
    assert sampled and all(_all_builtin_ints(edge) for edge in sampled)
    decoded = bank.decode_slot(3, phase=0, copy=0, level=0)
    assert decoded is not None and _all_builtin_ints(decoded)

    _, forest = bank_boruvka(bank)
    sketches = {v: VertexSketch(spec, v) for v in range(spec.n)}
    for u, v in EDGES:
        sketches[u].add_edge(u, v)
        sketches[v].add_edge(u, v)
    _, object_forest = sketch_boruvka(spec, sketches)
    assert forest and object_forest
    assert all(_all_builtin_ints(edge) for edge in forest + object_forest)

    counters = [
        value
        for phase in sketches[0].samplers
        for sampler in phase
        for level in sampler.levels
        for value in (level.s0, level.s1, level.s2)
    ]
    assert any(counters) and _all_builtin_ints(counters)

    graph = generators.planted_components_graph(24, 3, 12, random.Random(4))
    labels = heterogeneous_connectivity(graph, rng=random.Random(5)).labels
    assert labels == component_labels(graph)
    assert _all_builtin_ints(labels)


# --- exact s2 scatter ----------------------------------------------------

def test_s2_scatter_is_exact_when_many_residues_hit_one_slot():
    """A star applied in one batch: the centre's level-0 slots each take
    one residue per leaf (~2^60 on average, so 64 of them pass 2^64),
    as ``+z^id`` from leaves above the centre and ``p - z^id`` from
    leaves below it.  Every slot must equal the pure-Python oracle."""
    from sketch_oracle import ListBank

    n, centre = 160, 80
    spec = GraphSketchSpec.generate(n, random.Random(21), phases=2, copies=2)
    star = [(centre, leaf) for leaf in range(n) if leaf != centre]
    assert len(star) >= 64
    bank, oracle = SketchBank(spec), ListBank(spec)
    for batch, sign in ((star, 1), (star[::3], -1)):
        bank.update_edges(batch, sign=sign)
        oracle.update_edges(batch, sign=sign)
        for vertex in oracle.vertices:
            got, want = bank.row(vertex), oracle.row(vertex)
            assert got.s0.tolist() == want.s0
            assert got.s1.tolist() == want.s1
            assert got.s2.tolist() == want.s2


# --- int64 limits --------------------------------------------------------

#: ``n^2 - 1`` still fits in int64, but two edge ids near ``n^2`` do not.
BIG_N = 3_000_000_000


def big_spec(n=BIG_N):
    return GraphSketchSpec.generate(n, random.Random(8), phases=1, copies=1)


def test_bank_refuses_n_whose_ids_overflow_int64():
    with pytest.raises(OverflowError):
        SketchBank(big_spec(1 << 32))
    SketchBank(big_spec())  # n^2 - 1 < 2^63: accepted


def test_update_refused_before_s1_can_overflow():
    from repro.sketches import INT64_MAX
    from sketch_oracle import ListBank

    spec = big_spec()
    top = [(BIG_N - 2, BIG_N - 1), (BIG_N - 3, BIG_N - 1)]
    bank = SketchBank(spec)
    with pytest.raises(OverflowError):
        bank.update_edges(top)
    assert len(bank) == 0 and bank.s1_bound == 0  # nothing moved

    # One such edge fits, and its ~2^63 identity sums are exact.
    bank.update_edges(top[:1])
    oracle = ListBank(spec)
    oracle.update_edges(top[:1])
    for vertex in oracle.vertices:
        assert bank.row(vertex).s1.tolist() == oracle.row(vertex).s1
        assert bank.row(vertex).s2.tolist() == oracle.row(vertex).s2
    assert bank.s1_bound == (BIG_N - 2) * BIG_N + BIG_N - 1 <= INT64_MAX
    before = bank.s1.copy()
    with pytest.raises(OverflowError):
        bank.update_edges(top[1:])
    with pytest.raises(OverflowError):
        bank.insert_row(BIG_N - 1, bank.row(BIG_N - 2))
    with pytest.raises(OverflowError):
        bank.absorb(bank.copy())
    with pytest.raises(OverflowError):
        bank.add_incident(BIG_N - 1, BIG_N - 3, BIG_N - 1)
    assert np.array_equal(bank.s1, before)


def test_vertices_outside_the_universe_rejected():
    bank = SketchBank(make_spec(n=8))
    with pytest.raises(ValueError):
        bank.update_edges([(0, 8)])
    with pytest.raises(ValueError):
        bank.add_vertex(-1)
    assert len(bank) == 0


def test_rows_only_for_touched_vertices_and_capped_at_n():
    spec = make_spec(n=20)
    bank = SketchBank(spec)
    bank.update_edges([(3, 4), (4, 5)])
    assert bank.vertices == [3, 4, 5]
    assert bank.s0.shape == (3, bank.slots_per_row)
    bank.add_vertices(range(20))
    assert len(bank) == 20 and len(bank._s0) == 20


def test_chunked_updates_match_the_oracle(monkeypatch):
    """Batches larger than one vectorized chunk accumulate across chunks
    exactly; shrink the chunk so a small batch spans several."""
    import repro.sketches.bank as bank_module
    from sketch_oracle import ListBank

    monkeypatch.setattr(bank_module, "_CHUNK", 64)
    spec = make_spec(n=30, seed=5, phases=2, copies=2)
    rng = random.Random(9)
    edges = [(rng.randrange(30), rng.randrange(30)) for _ in range(400)]
    bank, oracle = SketchBank(spec), ListBank(spec)
    for batch, sign in ((edges, 1), (edges[::2], -1)):
        bank.update_edges(batch, sign=sign)
        oracle.update_edges(batch, sign=sign)
    assert bank.vertices == oracle.vertices
    for vertex in oracle.vertices:
        got, want = bank.row(vertex), oracle.row(vertex)
        assert (got.s0.tolist(), got.s1.tolist(), got.s2.tolist()) == (
            want.s0, want.s1, want.s2
        )
