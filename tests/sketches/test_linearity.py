"""Signed sketch updates: linearity properties and self-loop semantics.

The AGM sketches are linear maps of the edge multiset, which is what the
dynamic-graph service (:mod:`repro.serve`) builds on: a delete is the
insert applied with ``sign=-1``.  These tests pin the algebra —
insert-then-delete returns a bank to all-zero counters, interleaved
signed updates land on exactly the insert-only bank of the surviving
multiset — on the array-native bank (``numpy``) and on the pure-Python
list oracle it must match (``pure``, ``tests/sketch_oracle.py``), plus the
self-loop no-op fix (loops used to double-apply one endpoint's ``+1``).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sketches.bank as bank_module
from repro.sketches import GraphSketchSpec, SketchBank
from sketch_oracle import ListBank

N = 16
SPEC = GraphSketchSpec.generate(N, random.Random(7), copies=2)
BANKS = {"pure": ListBank, "numpy": SketchBank}


def all_zero(bank) -> bool:
    return not (np.any(bank.s0) or np.any(bank.s1) or np.any(bank.s2))

vertices = st.integers(0, N - 1)
edges = st.tuples(vertices, vertices)
edge_lists = st.lists(edges, max_size=30)


def rows_of(bank: SketchBank) -> dict[int, tuple]:
    """Per-vertex counter rows for every vertex of the universe
    (row-order independent)."""
    for v in range(N):
        bank.add_vertex(v)
    return {
        v: tuple(np.asarray(c).tolist() for c in (row.s0, row.s1, row.s2))
        for v in range(N)
        for row in [bank.row(v)]
    }


@pytest.mark.parametrize("backend", BANKS)
@settings(max_examples=25, deadline=None)
@given(batch=edge_lists, order_seed=st.integers(0, 2**16))
def test_insert_then_delete_returns_to_zero(backend, batch, order_seed):
    bank = BANKS[backend](SPEC)
    bank.update_edges(batch)
    deletions = list(batch)
    random.Random(order_seed).shuffle(deletions)
    bank.update_edges(deletions, sign=-1)
    assert all_zero(bank)
    for v in bank.vertices:
        assert bank.is_zero_vertex(v)


@pytest.mark.parametrize("backend", BANKS)
@settings(max_examples=25, deadline=None)
@given(
    batch=edge_lists,
    delete_mask=st.lists(st.booleans(), max_size=30),
    order_seed=st.integers(0, 2**16),
    chunk=st.integers(1, 7),
)
def test_interleaved_signed_updates_match_surviving_insert_only(
    backend, batch, delete_mask, order_seed, chunk
):
    """Apply inserts and deletes interleaved in chunks of arbitrary sign
    order; the bank must equal a fresh insert-only bank of the surviving
    edge multiset, counter for counter."""
    deletions = [e for e, kill in zip(batch, delete_mask) if kill]
    surviving = list(batch)
    for e in deletions:
        surviving.remove(e)

    ops = [(e, 1) for e in batch] + [(e, -1) for e in deletions]
    random.Random(order_seed).shuffle(ops)

    streamed = BANKS[backend](SPEC)
    for start in range(0, len(ops), chunk):
        for sign in (1, -1):
            group = [e for e, s in ops[start : start + chunk] if s == sign]
            if group:
                streamed.update_edges(group, sign=sign)

    fresh = BANKS[backend](SPEC)
    fresh.update_edges(surviving)
    assert rows_of(streamed) == rows_of(fresh)


@pytest.mark.parametrize("backend", BANKS)
@settings(max_examples=25, deadline=None)
@given(inserts=edge_lists, deletes=edge_lists)
def test_per_edge_signs_match_one_call_per_sign(backend, inserts, deletes):
    """One call with per-edge signs (inserts first) leaves the rows, their
    order, every counter and the s1 bound exactly as an insert call then
    a delete call do."""
    one = BANKS[backend](SPEC)
    one.update_edges(inserts + deletes, sign=[1] * len(inserts) + [-1] * len(deletes))
    two = BANKS[backend](SPEC)
    two.update_edges(inserts)
    two.update_edges(deletes, sign=-1)
    assert one.vertices == two.vertices
    for counter in ("s0", "s1", "s2"):
        assert np.array_equal(getattr(one, counter), getattr(two, counter))
    assert getattr(one, "s1_bound", None) == getattr(two, "s1_bound", None)


@pytest.mark.parametrize("backend", BANKS)
def test_backends_agree_on_signed_updates(backend):
    reference = ListBank(SPEC)
    other = BANKS[backend](SPEC)
    for bank in (reference, other):
        bank.update_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        bank.update_edges([(1, 2), (0, 3)], sign=-1)
    assert rows_of(reference) == rows_of(other)


# --- self-loop semantics (regression: loops used to double-apply) -------

def test_update_edges_short_circuits_self_loops():
    bank = SketchBank(SPEC)
    bank.update_edges([(5, 5)])
    # The vertex gets a row, but no counter moves: the loop's +1 (as the
    # smaller endpoint) and -1 (as the larger) cancel on the same row.
    assert 5 in bank
    assert bank.is_zero_vertex(5)
    assert all_zero(bank)


def test_loops_in_a_batch_do_not_change_the_bank():
    with_loops = SketchBank(SPEC)
    with_loops.update_edges([(0, 1), (3, 3), (1, 2), (7, 7)])
    without = SketchBank(SPEC)
    without.update_edges([(0, 1), (1, 2)])
    assert rows_of(with_loops) == rows_of(without)
    # ... and the loop vertices still exist (zero rows).
    assert 3 in with_loops and 7 in with_loops


def test_loop_hash_evaluations_are_skipped(monkeypatch):
    bank = SketchBank(SPEC)
    calls = []
    original = bank_module.poly_eval_many

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bank_module, "poly_eval_many", counting)
    bank.update_edges([(4, 4), (9, 9)])
    assert calls == []  # loop-only batches never reach the hash kernels


def test_update_edges_rejects_bad_sign():
    bank = SketchBank(SPEC)
    with pytest.raises(ValueError):
        bank.update_edges([(0, 1)], sign=0)
    with pytest.raises(ValueError):
        bank.update_edges([(0, 1), (1, 2)], sign=[1, 0])
    with pytest.raises(ValueError):
        bank.update_edges([(0, 1), (1, 2)], sign=[1])
    assert len(bank) == 0
