"""Array-backed sketch banks: bulk construction, merging, sampling."""

import random

import numpy as np
import pytest

import repro.sketches.bank as bank_module
from repro.graph import Graph, generators
from repro.graph.traversal import component_labels
from repro.sketches import (
    GraphSketchSpec,
    SketchBank,
    bank_boruvka,
    build_sparse_blocks,
    combine_sparse_blocks,
)
from sketch_oracle import bank_row, decode_slot, sample_outgoing


def make_spec(n=8, seed=0, phases=3, copies=2):
    return GraphSketchSpec.generate(n, random.Random(seed), phases=phases, copies=copies)


EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (1, 5), (6, 2), (5, 0)]


def merged_sample(bank, members, phase=0):
    """Sum the rows of *members* into one supernode, as Borůvka sums them
    (every other vertex alone), and sample an edge leaving it; returns
    the sample and the supernode's phase counters."""
    group = np.array([0 if v in members else 1 + i for i, v in enumerate(bank.vertices)])
    sums = bank_module._supernode_sums(
        [bank], None, group, int(group.max()) + 1, bank._phase_slots(phase)
    )
    return bank._sample_block(*(c[:1] for c in sums), phase)[0], [c[0] for c in sums]


def test_bulk_equals_incremental():
    spec = make_spec()
    bulk = SketchBank(spec)
    bulk.update_edges(EDGES)
    incremental = SketchBank(spec)
    for edge in EDGES:
        incremental.update_edges([edge])
    for vertex in bulk.vertices:
        assert bank_row(bulk, vertex) == bank_row(incremental, vertex)


def test_update_accepts_weighted_tuples():
    spec = make_spec()
    a, b = SketchBank(spec), SketchBank(spec)
    a.update_edges([(0, 1, 7), (1, 2, 9)])
    b.update_edges([(0, 1), (1, 2)])
    for vertex in (0, 1, 2):
        assert bank_row(a, vertex) == bank_row(b, vertex)


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
    assert any(any(c) for c in bank_row(bank, 0))
    sample, counters = merged_sample(bank, {0, 1})
    assert not any(c.any() for c in counters)
    assert sample is None


def test_merged_rows_sample_the_cut_edge():
    spec = make_spec(n=4, seed=6, phases=2, copies=3)
    bank = SketchBank(spec)
    bank.update_edges([(0, 1), (1, 2)])
    # The cut ({0,1}, {2}) has exactly edge (1,2).
    assert merged_sample(bank, {0, 1})[0] == (1, 2)


def test_insert_block_roundtrip():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    (block,) = build_sparse_blocks(spec, [EDGES])
    rebuilt = SketchBank(spec)
    rebuilt.insert_block(block)
    assert rebuilt.vertices == bank.vertices
    assert rebuilt.s1_bound >= max(np.abs(bank.s1).max(axis=1))
    for vertex in bank.vertices:
        assert bank_row(bank, vertex) == bank_row(rebuilt, vertex)


def test_combine_row_blocks_is_linear():
    spec = make_spec()
    left, right = build_sparse_blocks(spec, [[(0, 1), (1, 2)], [(0, 3), (2, 4)]])
    combined = SketchBank(spec)
    combined.update_edges([(0, 1), (1, 2), (0, 3), (2, 4)])
    merged = SketchBank(spec)
    merged.insert_block(combine_sparse_blocks([left, right]))
    assert merged.vertices == [0, 1, 2, 3, 4]
    for vertex in combined.vertices:
        assert bank_row(merged, vertex) == bank_row(combined, vertex)


def test_insert_block_sums_repeated_vertices():
    """A block that names a vertex twice adds both rows into it, and
    creates rows in first-encounter order."""
    from sketch_oracle import concat_blocks

    spec = make_spec()
    left, right = build_sparse_blocks(spec, [[(2, 1), (1, 0)], [(1, 3)]])
    bank = SketchBank(spec)
    bank.insert_block(concat_blocks([left, right]))
    reference = SketchBank(spec)
    reference.update_edges([(2, 1), (1, 0), (1, 3)])
    assert bank.vertices == [2, 1, 0, 3]
    for vertex in reference.vertices:
        assert bank_row(bank, vertex) == bank_row(reference, vertex)


def test_boruvka_over_banks_sums_their_rows():
    """Borůvka over two banks decides as over one bank holding both
    banks' edges, and changes neither bank."""
    spec = make_spec(phases=4)
    a = SketchBank(spec)
    a.update_edges([(0, 1), (3, 4)])
    b = SketchBank(spec)
    b.update_edges([(1, 2), (4, 0)])
    rows = {vertex: bank_row(a, vertex) for vertex in a.vertices}
    reference = SketchBank(spec)
    reference.update_edges([(0, 1), (3, 4), (1, 2), (4, 0)])
    assert reference.vertices == [0, 1, 3, 4, 2]  # a's rows, then b's new one
    uf, forest = bank_boruvka(a, b)
    expected_uf, expected_forest = bank_boruvka(reference)
    assert uf.labels(range(5)) == expected_uf.labels(range(5)) == [0] * 5
    assert forest == expected_forest and len(forest) == 4
    assert a.vertices == [0, 1, 3, 4]
    for vertex, row in rows.items():
        assert bank_row(a, vertex) == row


def test_equal_seed_specs_are_equal_and_their_banks_sum():
    a = GraphSketchSpec.generate(16, random.Random(1))
    b = GraphSketchSpec.generate(16, random.Random(1))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.seeds[0][0].level_hash == b.seeds[0][0].level_hash
    left, right, whole = SketchBank(a), SketchBank(b), SketchBank(a)
    left.update_edges([(0, 1), (2, 3)])
    right.update_edges([(1, 2)])
    whole.update_edges([(0, 1), (2, 3), (1, 2)])
    uf, forest = bank_boruvka(left, right, vertices=range(16))
    expected_uf, expected_forest = bank_boruvka(whole, vertices=range(16))
    assert uf.labels(range(16)) == expected_uf.labels(range(16))
    assert forest == expected_forest and len(forest) == 3


def test_merge_different_seeds_rejected():
    bank = SketchBank(make_spec(seed=1))
    other = SketchBank(make_spec(seed=2), vertices=(0,))
    with pytest.raises(ValueError, match="different seeds"):
        bank_boruvka(bank, other)


def test_word_size_matches_legacy_charge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    legacy = 1 + 3 * bank.slots_per_row  # an identity word, three counters a slot
    assert bank.word_size() == len(bank) * legacy


def test_decode_slot_recovers_single_edge():
    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges([(0, 1)])
    identifier = 0 * spec.n + 1
    decoded = decode_slot(bank, 0, phase=0, copy=0, level=0)
    assert decoded == (identifier, 1)
    assert decode_slot(bank, 1, phase=0, copy=0, level=0) == (identifier, -1)


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


# --- builtin ints at the bank boundary ---------------------------------

def _all_builtin_ints(values) -> bool:
    return all(type(x) is int for x in values)


def test_bank_boundary_returns_builtin_ints():
    from repro.core.connectivity import heterogeneous_connectivity

    spec = make_spec()
    bank = SketchBank(spec)
    bank.update_edges(EDGES)
    assert _all_builtin_ints(bank.vertices)
    sampled = [
        sample_outgoing(bank, v, phase)
        for v in bank.vertices
        for phase in range(spec.phases)
    ]
    sampled = [edge for edge in sampled if edge is not None]
    assert sampled and all(_all_builtin_ints(edge) for edge in sampled)
    decoded = decode_slot(bank, 3, phase=0, copy=0, level=0)
    assert decoded is not None and _all_builtin_ints(decoded)

    _, forest = bank_boruvka(bank)
    assert forest and all(_all_builtin_ints(edge) for edge in forest)

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
            want = oracle.row(vertex)
            assert bank_row(bank, vertex) == (want.s0, want.s1, want.s2)


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
        want = oracle.row(vertex)
        assert bank_row(bank, vertex)[1:] == (want.s1, want.s2)
    assert bank.s1_bound == (BIG_N - 2) * BIG_N + BIG_N - 1 <= INT64_MAX
    before = bank.s1.copy()
    with pytest.raises(OverflowError):
        bank.update_edges(top[1:])
    (block,) = build_sparse_blocks(spec, [top[:1]])
    with pytest.raises(OverflowError):
        bank.insert_block(block)
    with pytest.raises(OverflowError):
        bank_boruvka(bank, bank)
    assert np.array_equal(bank.s1, before)


def test_vertices_outside_the_universe_rejected():
    bank = SketchBank(make_spec(n=8))
    with pytest.raises(ValueError):
        bank.update_edges([(0, 8)])
    with pytest.raises(ValueError):
        bank.add_vertices([-1])
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
        want = oracle.row(vertex)
        assert bank_row(bank, vertex) == (want.s0, want.s1, want.s2)
