"""One-sparse recovery of a bank slot: exactness and rejection.

Level 0 of every sampler keeps every coordinate, so slot ``(phase 0,
copy 0, level 0)`` of a vertex's row is a one-sparse sketch of its whole
vector: edge ``{u, v}`` is coordinate ``u * n + v``, with value ``+1`` at
the smaller endpoint and ``-1`` at the larger, and a vertex-0 edge
``(0, i)`` is coordinate ``i``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import GraphSketchSpec, SketchBank

N = 1000


def fresh(seed=0):
    return SketchBank(GraphSketchSpec.generate(N, random.Random(seed), phases=1, copies=1))


def update(bank, index, delta):
    """Add *delta* to coordinate *index* of vertex 0's vector."""
    bank.update_edges([(0, index)] * abs(delta), sign=1 if delta > 0 else -1)


def decode(bank, vertex=0):
    return bank.decode_slot(vertex, phase=0, copy=0, level=0)


def test_recovers_single_update():
    bank = fresh()
    update(bank, 17, 3)
    assert decode(bank) == (17, 3)


def test_recovers_after_cancellation():
    bank = fresh()
    update(bank, 5, 1)
    update(bank, 9, 1)
    update(bank, 9, -1)
    assert decode(bank) == (5, 1)


def test_zero_vector_decodes_none():
    bank = fresh()
    bank.add_vertex(0)
    assert bank.is_zero_vertex(0)
    assert decode(bank) is None
    update(bank, 3, 4)
    update(bank, 3, -4)
    assert bank.is_zero_vertex(0)


def test_two_sparse_rejected():
    """Coordinates 1 and 3 leave ``s1 / s0 = 2``: only the fingerprint
    tells the slot is not one-sparse."""
    rejections = 0
    for seed in range(30):
        bank = fresh(seed)
        update(bank, 1, 1)
        update(bank, 3, 1)
        if decode(bank) is None:
            rejections += 1
    assert rejections == 30  # Schwartz–Zippel failure is ~2^-60


def test_negative_value_recovery():
    bank = fresh()
    update(bank, 7, -2)
    assert decode(bank) == (7, -2)


@settings(max_examples=25, deadline=None)
@given(
    edge=st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)).filter(
        lambda e: e[0] != e[1]
    ),
    value=st.integers(min_value=-100, max_value=100).filter(lambda v: v != 0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_one_sparse_recovery_property(edge, value, seed):
    bank = fresh(seed)
    bank.update_edges([edge] * abs(value), sign=1 if value > 0 else -1)
    lo, hi = sorted(edge)
    assert decode(bank, lo) == (lo * N + hi, value)
    assert decode(bank, hi) == (lo * N + hi, -value)
