"""Sparse row blocks: the cluster-wide partial build, the per-vertex
combine, the destination insert and the engine's charge.

:func:`build_sparse_blocks` must give every machine exactly the rows a
fresh :class:`SketchBank` of that machine's edges holds after
``update_edges`` — compared after densifying, row for row in
endpoint-encounter order — and refuse bad input with the per-machine
checks before any block exists.  :func:`combine_sparse_blocks` must
equal per-row merges into a dict — the list oracle of
``tests/sketch_oracle.py`` — after densifying, in first-encounter
order.  :meth:`SketchBank.insert_block` must add exactly the densified
rows, or refuse before anything moves.  A block must charge what its
dense rows charge, wherever the engine sizes it.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mpc import Cluster, ModelConfig, RoundPlan
from repro.mpc.machine import SMALL, Machine
from repro.sketches import (
    INT64_MAX,
    GraphSketchSpec,
    SketchBank,
    SparseRowBlock,
    build_sparse_blocks,
    combine_sparse_blocks,
)
from plan_tally import tally
from repro.sketches.field import PRIME
from sketch_oracle import ListBank, bank_row, concat_blocks, densify, list_combine_blocks

N = 12
SPEC = GraphSketchSpec.generate(N, random.Random(11), copies=2)
SLOTS = SketchBank(SPEC).slots_per_row
WIDTH = 2 + 3 * SLOTS


def bank_block(spec, edges) -> np.ndarray:
    """One machine's partial rows through ``SketchBank.update_edges``, laid
    out as dense rows (vertex, identity word, s0, s1, s2)."""
    bank = SketchBank(spec)
    bank.update_edges(edges)
    vertices = np.array(bank.vertices, dtype=np.int64)
    return np.column_stack(
        [vertices, vertices, bank.s0, bank.s1, bank.s2.view(np.int64)]
    ).reshape(len(vertices), 2 + 3 * bank.slots_per_row)


def assert_well_formed(block: SparseRowBlock, slots: int = SLOTS) -> None:
    assert isinstance(block, SparseRowBlock) and block.slots == slots
    assert block.shape == (len(block.vertices), 2 + 3 * slots)
    assert block.size == block.word_size() == len(block) * (2 + 3 * slots)
    for column in (block.vertices, block.row, block.slot, block.s0, block.s1):
        assert column.dtype == np.int64
    assert block.s2.dtype == np.uint64 and (block.s2 < PRIME).all()
    assert len({len(c) for c in (block.row, block.slot, block.s0, block.s1, block.s2)}) == 1
    assert (np.diff(block.row) >= 0).all()  # sorted by row: slicing works
    assert ((block.row >= 0) & (block.row < len(block))).all()
    assert ((block.slot >= 0) & (block.slot < slots)).all()


vertices = st.integers(0, N - 1)
records = st.one_of(
    st.tuples(vertices, vertices),
    st.tuples(vertices, vertices, st.integers(1, 50)),  # weighted
)
machines = st.lists(st.lists(records, max_size=12), max_size=6)


@settings(max_examples=40, deadline=None)
@given(edge_lists=machines)
@example(edge_lists=[])
@example(edge_lists=[[], [], []])  # every machine empty
@example(edge_lists=[[(3, 3)], [(3, 3), (3, 4)], []])  # self-loops
@example(edge_lists=[[(1, 2), (2, 1), (1, 2, 7)], [(1, 2)]])  # parallel edges
@example(edge_lists=[[(5, v)] for v in range(N) if v != 5])  # one vertex, many machines
def test_build_matches_per_machine_update_edges(edge_lists):
    blocks = build_sparse_blocks(SPEC, edge_lists)
    assert len(blocks) == len(edge_lists)
    for edges, block in zip(edge_lists, blocks):
        assert_well_formed(block)
        assert np.array_equal(densify(block), bank_block(SPEC, edges))


def test_build_gives_a_loop_only_vertex_a_row_without_coordinates():
    (loops, mixed) = build_sparse_blocks(SPEC, [[(3, 3), (3, 3)], [(4, 4), (4, 5)]])
    assert loops.vertices.tolist() == [3] and len(loops.row) == 0
    assert densify(loops).tolist() == [[3, 3] + [0] * (3 * SLOTS)]
    assert mixed.vertices.tolist() == [4, 5] and len(mixed.row)


def test_build_sums_many_contributions_into_one_slot():
    """A star on one machine: the centre's slots take one residue per leaf."""
    n, centre = 160, 80
    spec = GraphSketchSpec.generate(n, random.Random(21), phases=2, copies=2)
    star = [(centre, leaf) for leaf in range(n) if leaf != centre]
    edge_lists = [star, star[::3], []]
    for edges, block in zip(edge_lists, build_sparse_blocks(spec, edge_lists)):
        assert np.array_equal(densify(block), bank_block(spec, edges))


@pytest.mark.parametrize("chunk", [1, 64])
def test_build_in_hashing_chunks(monkeypatch, chunk):
    """Hashing chunks smaller than one machine's edges, down to one
    edge per chunk, give the same blocks."""
    import repro.sketches.bank as bank_module

    monkeypatch.setattr(bank_module, "_CHUNK", chunk)
    rng = random.Random(4)
    edge_lists = [
        [(rng.randrange(N), rng.randrange(N)) for _ in range(rng.randrange(0, 20))]
        for _ in range(9)
    ]
    for edges, block in zip(edge_lists, build_sparse_blocks(SPEC, edge_lists)):
        assert_well_formed(block)
        assert np.array_equal(densify(block), bank_block(SPEC, edges))


def test_build_rejects_a_vertex_outside_the_universe():
    with pytest.raises(ValueError, match=f"vertex {N} outside"):
        build_sparse_blocks(SPEC, [[(0, 1)], [(2, N)], [(3, 4)]])
    with pytest.raises(ValueError, match="vertex -1 outside"):
        build_sparse_blocks(SPEC, [[(-1, 1)]])


#: ``n^2 - 1`` still fits in int64, but two edge ids near ``n^2`` do not.
BIG_N = 3_000_000_000
TOP = [(BIG_N - 2, BIG_N - 1), (BIG_N - 3, BIG_N - 1)]


def test_build_refuses_a_machine_whose_ids_pass_int64():
    spec = GraphSketchSpec.generate(BIG_N, random.Random(8), phases=1, copies=1)
    with pytest.raises(OverflowError):
        build_sparse_blocks(spec, [[(0, 1)], TOP])
    # One such edge per machine fits: the check is per machine.
    edge_lists = [TOP[:1], TOP[1:]]
    blocks = build_sparse_blocks(spec, edge_lists)
    for edges, block in zip(edge_lists, blocks):
        assert np.array_equal(densify(block), bank_block(spec, edges))
        assert np.abs(block.s1).max() <= INT64_MAX
    # Machine by machine, as a per-machine loop would check: the first
    # failing machine decides, and a bad vertex comes before its sums.
    with pytest.raises(OverflowError):
        build_sparse_blocks(spec, [TOP, [(0, BIG_N)]])
    with pytest.raises(ValueError):
        build_sparse_blocks(spec, [[(0, BIG_N)], TOP])
    with pytest.raises(ValueError):
        build_sparse_blocks(spec, [TOP + [(0, BIG_N)]])


# --- combine -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(edge_lists=machines, split=st.integers(0, 6))
def test_combine_matches_per_row_merges(edge_lists, split):
    blocks = build_sparse_blocks(SPEC, edge_lists)
    combined = combine_sparse_blocks(blocks)
    assert_well_formed(combined, SLOTS if blocks else 0)
    assert np.array_equal(densify(combined), densify(list_combine_blocks(blocks)))
    # Each coordinate once, sorted by (row, slot).
    assert (np.diff(combined.row * SLOTS + combined.slot) > 0).all()
    # One block that holds a vertex several times (a destination's case).
    if blocks:
        joined = [concat_blocks(blocks[:split] or blocks[:1]), *blocks[split:]]
        assert np.array_equal(
            densify(combine_sparse_blocks(joined)),
            densify(list_combine_blocks(joined)),
        )


def test_combine_keeps_first_encounter_order():
    blocks = build_sparse_blocks(SPEC, [[(4, 2)], [(7, 2), (4, 0)], [(0, 9)]])
    combined = combine_sparse_blocks(blocks)
    assert combined.vertices.tolist() == [4, 2, 7, 0, 9]
    assert densify(combined)[:, 1].tolist() == [4, 2, 7, 0, 9]


def block_of(rows, slots=2) -> SparseRowBlock:
    """A block from ``(vertex, [(slot, s0, s1, s2), ...])`` rows."""
    coordinates = [
        (r, *coordinate)
        for r, (_, counters) in enumerate(rows)
        for coordinate in counters
    ]
    table = np.array(coordinates, dtype=np.int64).reshape(-1, 5)
    return SparseRowBlock(
        np.array([vertex for vertex, _ in rows], dtype=np.int64),
        *(table[:, k].copy() for k in range(4)),
        table[:, 4].astype(np.uint64),
        slots,
    )


def test_combine_adds_residues_mod_p():
    """``(p - 1) + (p - 1)`` wraps to ``p - 2``; ``1 + (p - 1)`` to 0."""
    top = PRIME - 1

    def row(vertex, s2):
        return vertex, [(0, 1, vertex, s2[0]), (1, -1, -vertex, s2[1])]

    blocks = [
        block_of([row(3, [top, 1]), row(5, [top, top])]),
        block_of([row(5, [top, 1]), row(3, [top, top])]),
    ]
    combined = combine_sparse_blocks(blocks)
    assert np.array_equal(densify(combined), densify(list_combine_blocks(blocks)))
    assert densify(combined).tolist() == [
        [3, 3, 2, -2, 6, -6, PRIME - 2, 0],
        [5, 5, 2, -2, 10, -10, PRIME - 2, 0],
    ]
    # The same rows as one block, each vertex twice.
    assert np.array_equal(densify(combine_sparse_blocks([concat_blocks(blocks)])),
                          densify(combined))


def test_combine_sums_duplicates_inside_one_block():
    """Repeated ``(row, slot)`` coordinates of one row add up, exactly,
    however many residues near ``p`` they carry."""
    top = PRIME - 1
    block = block_of([(6, [(1, 1, 6, top)] * 40 + [(0, 2, 9, 5), (0, -1, 3, top)])])
    combined = combine_sparse_blocks([block])
    assert combined.vertices.tolist() == [6]
    assert combined.row.tolist() == [0, 0] and combined.slot.tolist() == [0, 1]
    assert combined.s0.tolist() == [1, 40] and combined.s1.tolist() == [12, 240]
    assert combined.s2.tolist() == [4, 40 * top % PRIME]
    assert np.array_equal(densify(combined), densify(block))


def test_combine_of_nothing():
    nothing = combine_sparse_blocks([])
    assert nothing.shape == list_combine_blocks([]).shape == (0, 2)
    empty = build_sparse_blocks(SPEC, [[]])[0]
    both = combine_sparse_blocks([empty, empty])
    assert both.shape == (0, WIDTH) and len(both.row) == 0
    assert both.shape == list_combine_blocks([empty, empty]).shape


def test_combine_refuses_an_s1_sum_past_int64():
    """Two machines each hold the top edge: each block fits, but the
    vertex's summed ``s1`` (twice the id) does not, so the combine
    refuses, as ``update_edges`` does on the same edges, instead of
    wrapping."""
    spec = GraphSketchSpec.generate(BIG_N, random.Random(8), phases=1, copies=1)
    blocks = build_sparse_blocks(spec, [TOP[:1], TOP[:1]])
    with pytest.raises(OverflowError, match=str(2 * (BIG_N * (BIG_N - 1) - 1))):
        combine_sparse_blocks(blocks)
    with pytest.raises(OverflowError):
        combine_sparse_blocks([concat_blocks(blocks)])
    with pytest.raises(OverflowError):
        SketchBank(spec).update_edges(TOP[:1] * 2)


def test_combine_of_large_ids_that_fit_matches_per_row_merges():
    """Ids near ``n^2`` whose per-vertex sums still fit: past the cheap
    screen, the exact check passes and the sums are the same."""
    spec = GraphSketchSpec.generate(BIG_N, random.Random(8), phases=1, copies=1)
    edge_lists = [TOP[:1], [(0, BIG_N - 1)], [(0, 1), (BIG_N - 3, BIG_N - 2)]]
    blocks = build_sparse_blocks(spec, edge_lists)
    s1 = np.concatenate([block.s1 for block in blocks])
    assert len(s1) * int(np.abs(s1).max()) > INT64_MAX
    combined = combine_sparse_blocks(blocks)
    assert np.array_equal(densify(combined), densify(list_combine_blocks(blocks)))


# --- slicing and the engine's charge -------------------------------------

def test_row_slices_concatenate_back_and_own_their_data():
    rng = random.Random(6)
    edges = [(rng.randrange(N), rng.randrange(N)) for _ in range(30)]
    (block,) = build_sparse_blocks(SPEC, [edges])
    cuts = [0, 1, 4, 4, len(block)]
    pieces = [block[a:b] for a, b in zip(cuts, cuts[1:])]
    for piece in pieces:
        assert_well_formed(piece)
        assert all(column.base is None for column in (
            piece.vertices, piece.row, piece.slot, piece.s0, piece.s1, piece.s2
        ))
    assert [len(piece) for piece in pieces] == [1, 3, 0, len(block) - 4]
    assert np.array_equal(densify(concat_blocks(pieces)), densify(block))
    assert np.array_equal(densify(block[2:]), densify(block)[2:])
    with pytest.raises(TypeError):
        block[0]


def test_a_sent_block_charges_its_dense_rows():
    rng = random.Random(7)
    edge_lists = [[(rng.randrange(N), rng.randrange(N)) for _ in range(20)]
                  for _ in range(2)]
    sparse = build_sparse_blocks(SPEC, edge_lists)
    config = ModelConfig.heterogeneous(n=64, m=256)
    tallies, inboxes = [], []
    for payloads in (sparse, [densify(block) for block in sparse]):
        cluster = Cluster(config, rng=random.Random(0))
        plan = RoundPlan(note="sum")
        plan.send_batch(0, 2, payloads[0])
        plan.send_batch(1, 2, payloads[1])
        tallies.append((tally(plan), plan.run_meta()))
        inboxes.append(cluster.execute(plan)[2])
        record = cluster.ledger.records[-1]
        tallies.append((record.total_words, record.items, record.max_received))
    assert tallies[0] == tallies[2] and tallies[1] == tallies[3]
    (_, _, words, items), _ = tallies[0]
    assert items == sum(len(block) for block in sparse)
    assert words == items * WIDTH
    # Delivered whole: the blocks themselves, in send order.
    assert inboxes[0] == sparse


def test_machine_put_charges_blocks_and_lists_of_blocks():
    blocks = build_sparse_blocks(SPEC, [[(0, 1), (1, 2)], [(3, 4)], []])
    machine = Machine(0, SMALL, capacity=10**6)
    machine.put("one", blocks[0])
    assert machine.usage == 3 * WIDTH
    machine.put("list", blocks)
    assert machine.usage == 3 * WIDTH + 5 * WIDTH


# --- insert --------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(edge_lists=machines)
def test_insert_adds_the_densified_rows(edge_lists):
    blocks = build_sparse_blocks(SPEC, edge_lists)
    for block in [*blocks, combine_sparse_blocks(blocks)] if blocks else []:
        bank = SketchBank(SPEC, [7])
        bank.update_edges([(7, 1)])
        reference = ListBank(SPEC, [7])
        reference.update_edges([(7, 1)])
        bank.insert_block(block)
        reference.insert_block(block)
        assert bank.vertices == reference.vertices
        for vertex in bank.vertices:
            expected = reference.row(vertex)
            assert bank_row(bank, vertex) == (expected.s0, expected.s1, expected.s2)


def test_insert_refused_past_the_s1_bound_leaves_the_bank_unchanged():
    spec = GraphSketchSpec.generate(BIG_N, random.Random(8), phases=1, copies=1)
    bank = SketchBank(spec)
    bank.update_edges(TOP[:1])
    state = (list(bank.vertices), bank.s1_bound, bank.s0.copy(), bank.s1.copy(),
             bank.s2.copy())
    blocks = build_sparse_blocks(spec, [[(0, 1), (5, 6)], TOP[1:]])
    with pytest.raises(OverflowError):
        bank.insert_block(blocks[1])
    with pytest.raises(OverflowError):  # rows 0, 1, 5, 6 come first
        bank.insert_block(combine_sparse_blocks(blocks))
    assert bank.vertices == state[0] and bank.s1_bound == state[1]
    for now, before in zip((bank.s0, bank.s1, bank.s2), state[2:]):
        assert np.array_equal(now, before)


def test_insert_grows_the_s1_bound_by_each_rows_largest_s1():
    blocks = build_sparse_blocks(SPEC, [[(0, 1), (1, 2), (2, 3)], [(1, 2)]])
    bank = SketchBank(SPEC)
    bank.insert_block(blocks[0])
    s1 = densify(blocks[0])[:, 2 + SLOTS:2 + 2 * SLOTS]
    assert bank.s1_bound == sum(np.abs(s1).max(axis=1).tolist()) > 0
    # A block that repeats a coordinate is summed first: the bound sees
    # each summed row once.
    again = SketchBank(SPEC)
    again.insert_block(concat_blocks(blocks))
    merged = densify(combine_sparse_blocks(blocks))[:, 2 + SLOTS:2 + 2 * SLOTS]
    assert again.s1_bound == sum(np.abs(merged).max(axis=1).tolist())
