"""Row blocks: the cluster-wide partial build and the per-vertex combine.

:func:`build_partial_blocks` must give every machine exactly the rows a
fresh :class:`SketchBank` of that machine's edges holds after
``update_edges``, row for row in endpoint-encounter order, and refuse bad
input with the per-machine checks before any block exists.
:func:`combine_row_blocks` must equal per-row merges into a dict — the
list oracle of ``tests/sketch_oracle.py`` — row for row, in
first-encounter order.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketches import (
    INT64_MAX,
    GraphSketchSpec,
    SketchBank,
    build_partial_blocks,
    combine_row_blocks,
)
from repro.sketches.field import PRIME
from sketch_oracle import list_combine_blocks

N = 12
SPEC = GraphSketchSpec.generate(N, random.Random(11), copies=2)
WIDTH = 2 + 3 * SketchBank(SPEC).slots_per_row


def bank_block(spec, edges) -> np.ndarray:
    """One machine's partial rows through ``SketchBank.update_edges``, laid
    out as a row block (vertex, identity word, s0, s1, s2)."""
    bank = SketchBank(spec)
    bank.update_edges(edges)
    vertices = np.array(bank.vertices, dtype=np.int64)
    return np.column_stack(
        [vertices, vertices, bank.s0, bank.s1, bank.s2.view(np.int64)]
    ).reshape(len(vertices), 2 + 3 * bank.slots_per_row)


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
    blocks = build_partial_blocks(SPEC, edge_lists)
    assert len(blocks) == len(edge_lists)
    for edges, block in zip(edge_lists, blocks):
        assert block.dtype == np.int64 and block.shape[1] == WIDTH
        assert np.array_equal(block, bank_block(SPEC, edges))


def test_build_sums_many_contributions_into_one_slot():
    """A star on one machine: the centre's slots take one residue per leaf."""
    n, centre = 160, 80
    spec = GraphSketchSpec.generate(n, random.Random(21), phases=2, copies=2)
    star = [(centre, leaf) for leaf in range(n) if leaf != centre]
    edge_lists = [star, star[::3], []]
    for edges, block in zip(edge_lists, build_partial_blocks(spec, edge_lists)):
        assert np.array_equal(block, bank_block(spec, edges))


@pytest.mark.parametrize("scatter_slots, chunk", [(1, 1 << 16), (700, 64)])
def test_build_in_runs_of_machines_and_chunks(monkeypatch, scatter_slots, chunk):
    """Scatter runs of one machine each (or a few), and hashing chunks
    smaller than one machine's edges, give the same blocks."""
    import repro.sketches.bank as bank_module

    monkeypatch.setattr(bank_module, "_SCATTER_SLOTS", scatter_slots)
    monkeypatch.setattr(bank_module, "_CHUNK", chunk)
    rng = random.Random(4)
    edge_lists = [
        [(rng.randrange(N), rng.randrange(N)) for _ in range(rng.randrange(0, 20))]
        for _ in range(9)
    ]
    for edges, block in zip(edge_lists, build_partial_blocks(SPEC, edge_lists)):
        assert np.array_equal(block, bank_block(SPEC, edges))


def test_build_rejects_a_vertex_outside_the_universe():
    with pytest.raises(ValueError, match=f"vertex {N} outside"):
        build_partial_blocks(SPEC, [[(0, 1)], [(2, N)], [(3, 4)]])
    with pytest.raises(ValueError, match="vertex -1 outside"):
        build_partial_blocks(SPEC, [[(-1, 1)]])


#: ``n^2 - 1`` still fits in int64, but two edge ids near ``n^2`` do not.
BIG_N = 3_000_000_000
TOP = [(BIG_N - 2, BIG_N - 1), (BIG_N - 3, BIG_N - 1)]


def test_build_refuses_a_machine_whose_ids_pass_int64():
    spec = GraphSketchSpec.generate(BIG_N, random.Random(8), phases=1, copies=1)
    with pytest.raises(OverflowError):
        build_partial_blocks(spec, [[(0, 1)], TOP])
    # One such edge per machine fits: the check is per machine.
    edge_lists = [TOP[:1], TOP[1:]]
    blocks = build_partial_blocks(spec, edge_lists)
    for edges, block in zip(edge_lists, blocks):
        assert np.array_equal(block, bank_block(spec, edges))
        assert np.abs(block[:, 2:]).max() <= INT64_MAX
    # Machine by machine, as a per-machine loop would check: the first
    # failing machine decides, and a bad vertex comes before its sums.
    with pytest.raises(OverflowError):
        build_partial_blocks(spec, [TOP, [(0, BIG_N)]])
    with pytest.raises(ValueError):
        build_partial_blocks(spec, [[(0, BIG_N)], TOP])
    with pytest.raises(ValueError):
        build_partial_blocks(spec, [TOP + [(0, BIG_N)]])


# --- combine -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(edge_lists=machines, split=st.integers(0, 6))
def test_combine_matches_per_row_merges(edge_lists, split):
    blocks = build_partial_blocks(SPEC, edge_lists)
    combined = combine_row_blocks(blocks)
    assert np.array_equal(combined, list_combine_blocks(blocks))
    # One block that holds a vertex several times (a destination's case).
    if blocks:
        joined = [np.concatenate(blocks[:split] or blocks[:1]), *blocks[split:]]
        assert np.array_equal(combine_row_blocks(joined), list_combine_blocks(joined))


def test_combine_keeps_first_encounter_order():
    blocks = build_partial_blocks(SPEC, [[(4, 2)], [(7, 2), (4, 0)], [(0, 9)]])
    combined = combine_row_blocks(blocks)
    assert combined[:, 0].tolist() == [4, 2, 7, 0, 9]
    assert np.array_equal(combined[:, 0], combined[:, 1])


def test_combine_adds_residues_mod_p():
    """``(p - 1) + (p - 1)`` wraps to ``p - 2``; ``1 + (p - 1)`` to 0."""
    slots = 2

    def row(vertex, s2):
        return [vertex, vertex, 1, -1, vertex, -vertex, *s2]

    top = PRIME - 1
    blocks = [
        np.array([row(3, [top, 1]), row(5, [top, top])], dtype=np.int64),
        np.array([row(5, [top, 1]), row(3, [top, top])], dtype=np.int64),
    ]
    assert blocks[0].shape[1] == 2 + 3 * slots
    combined = combine_row_blocks(blocks)
    assert np.array_equal(combined, list_combine_blocks(blocks))
    assert combined.tolist() == [
        [3, 3, 2, -2, 6, -6, PRIME - 2, 0],
        [5, 5, 2, -2, 10, -10, PRIME - 2, 0],
    ]
    # The same rows as one block, each vertex twice.
    joined = [np.concatenate(blocks)]
    assert np.array_equal(combine_row_blocks(joined), combined)


def test_combine_of_nothing():
    assert combine_row_blocks([]).shape == list_combine_blocks([]).shape == (0, 0)
    empty = np.zeros((0, WIDTH), dtype=np.int64)
    assert combine_row_blocks([empty, empty]).shape == (0, WIDTH)
    assert np.array_equal(
        combine_row_blocks([empty, empty]), list_combine_blocks([empty, empty])
    )
