"""Word-size accounting."""

import random
from collections import namedtuple
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc.words import word_size, word_size_many
from repro.sketches.bank import SketchRow
from word_size_oracle import reference_word_size


def test_scalars_cost_one_word():
    assert word_size(0) == 1
    assert word_size(10**18) == 1
    assert word_size(-5) == 1
    assert word_size(3.14) == 1
    assert word_size(True) == 1
    assert word_size(None) == 1


def test_edge_tuple_costs_three_words():
    assert word_size((1, 2, 97)) == 3


def test_unweighted_edge_costs_two_words():
    assert word_size((4, 7)) == 2


def test_containers_sum_their_elements():
    assert word_size([(1, 2), (3, 4)]) == 4
    assert word_size({1: 2, 3: 4}) == 4
    assert word_size({1, 2, 3}) == 3
    assert word_size(()) == 0


def test_nested_containers():
    assert word_size([(1, (2, 3)), [4]]) == 4


def test_custom_word_size_protocol():
    class Sized:
        def word_size(self) -> int:
            return 42

    assert word_size(Sized()) == 42
    assert word_size([Sized(), Sized()]) == 84


def test_strings_are_charged_per_eight_chars():
    assert word_size("") == 1
    assert word_size("a" * 8) == 2
    assert word_size("a" * 17) == 3


def test_bytes_are_charged_per_eight_bytes():
    """Regression: bytes/bytearray payloads used to raise TypeError."""
    assert word_size(b"") == 1
    assert word_size(b"a" * 8) == 2
    assert word_size(b"a" * 17) == 3  # non-multiple-of-8 length
    assert word_size(bytearray()) == 1
    assert word_size(bytearray(b"a" * 11)) == 2
    assert word_size([b"ab", bytearray(b"c")]) == 2


def test_unknown_types_raise():
    with pytest.raises(TypeError):
        word_size(object())


def test_flow_label_word_size_matches_protocol():
    from repro.labeling import FlowLabel

    label = FlowLabel(entries=((1, 5.0), (2, 3.0)))
    assert word_size(label) == 1 + 2 * 2


def test_word_size_nested_dicts():
    assert word_size({1: {2: 3}, "key": [4, 5]}) == 1 + 1 + 1 + 1 + 2
    assert word_size({}) == 0


def test_word_size_empty_containers():
    assert word_size([]) == 0
    assert word_size(set()) == 0
    assert word_size(frozenset()) == 0
    assert word_size({"a": []}) == 1


# ----------------------------------------------------------------------
# The bulk sizer
# ----------------------------------------------------------------------
class Sized:
    def word_size(self) -> int:
        return 7


def test_word_size_many_empty():
    assert word_size_many([]) == 0
    assert word_size_many(()) == 0
    assert word_size_many(iter([])) == 0


def test_word_size_many_scalar_fast_path():
    assert word_size_many([1, 2.5, True, None]) == 4
    assert word_size_many(range(100)) == 100


def test_word_size_many_edge_list_fast_path():
    edges = [(1, 2, 97), (3, 4, 12)]
    assert word_size_many(edges) == 6
    assert word_size_many([(1, 2), (3, 4, 5)]) == 5  # ragged is fine


def test_word_size_many_mixed_batches():
    assert word_size_many([1, (2, 3)]) == 3
    assert word_size_many([(1, (2, 3)), (4,)]) == 4  # nested tuples
    assert word_size_many(["abcdefgh", 1]) == 3


def test_word_size_many_dicts_and_objects():
    assert word_size_many([{1: 2}, {3: (4, 5)}]) == 2 + 3
    assert word_size_many([Sized(), Sized()]) == 14
    assert word_size_many([(1, Sized())]) == 8


def test_word_size_many_strings_per_eight_chars():
    assert word_size_many(["", "a" * 8, "a" * 17]) == 1 + 2 + 3


def test_word_size_many_bytes_fast_path():
    assert word_size_many([b"", bytearray()]) == 2
    assert word_size_many([b"a" * 8, bytearray(b"b" * 17)]) == 2 + 3
    assert word_size_many([b"abc"]) == word_size(b"abc")
    # Mixed with non-bytes items: falls back to the per-item sizer.
    assert word_size_many([b"a" * 9, 1]) == 2 + 1
    assert word_size_many([(b"ab", 1)]) == 2


def test_word_size_many_namedtuple_with_custom_sizer_skips_fast_path():
    class SizedPair(namedtuple("SizedPair", "a b")):
        def word_size(self) -> int:
            return 99

    batch = [SizedPair(1, 2), SizedPair(3, 4)]
    assert word_size(batch[0]) == 99
    assert word_size_many(batch) == 198


def test_word_size_many_plain_namedtuple_agrees():
    Pair = namedtuple("Pair", "a b")
    batch = [Pair(1, 2), Pair(3, 4)]
    assert word_size_many(batch) == sum(word_size(item) for item in batch)


def test_word_size_many_scalar_subclasses_agree():
    class MyInt(int):
        pass

    batch = [MyInt(1), 2, MyInt(3)]
    assert word_size_many(batch) == 3


def test_word_size_many_unknown_types_raise():
    with pytest.raises(TypeError):
        word_size_many([object()])
    with pytest.raises(TypeError):
        word_size_many([(1, object())])


def test_word_size_many_interned_scalars():
    """CPython interns small ints and caches True/None singletons; the
    scalar fast path must count occurrences, not identities."""
    batch = [1] * 50 + [True] * 10 + [None] * 10 + [-5] * 5
    assert word_size_many(batch) == 75
    # bool is a subclass of int; both exact types ride the fast path.
    assert word_size_many([True, 1, False, 0]) == 4


def test_word_size_many_interned_strings_and_empty_bytes():
    one_char = ["a"] * 20          # interned 1-char strings
    assert word_size_many(one_char) == 20
    assert word_size_many([b""] * 8) == 8


def test_word_size_many_mixed_bytes_and_bytearray_after_mutation():
    blob = bytearray(b"z" * 4)
    batch = [bytes(blob), blob]
    before = word_size_many(batch)
    assert before == 2
    blob.extend(b"w" * 12)         # 16 bytes = 3 words; re-sizing sees it
    assert word_size_many(batch) == before + 2


def test_numeric_numpy_blocks_charge_one_word_per_element():
    block = np.arange(12, dtype=np.int64).reshape(4, 3)
    assert word_size(block) == 12
    assert word_size_many(block) == 12
    assert word_size(np.zeros(5, dtype=np.float64)) == 5
    assert word_size(np.int64(7)) == 1
    # Exactly what the equivalent tuples cost.
    assert word_size_many(block) == word_size_many(
        [tuple(row) for row in block.tolist()]
    )


def test_non_numeric_numpy_dtypes_raise():
    with pytest.raises(TypeError):
        word_size(np.array(["a", "b"]))
    with pytest.raises(TypeError):
        word_size_many(np.array([object()], dtype=object))


def test_object_arrays_of_python_scalars_charge_one_word_per_element():
    """The columns that hold ints past int64 or mixed scalar types: one
    word per element, like the tuples they stand for; an element that is
    not a Python int, float or bool (a tuple, None) raises."""
    block = np.array([[2**70, 1.5], [True, -(2**64)], [3, 0.0]], dtype=object)
    assert word_size(block) == word_size_many(block) == 6
    assert word_size(block) == word_size_many([tuple(row) for row in block.tolist()])
    assert word_size(block[:, 0]) == 3
    for bad in ((1, 2), None):
        array = np.empty(2, dtype=object)
        array[:] = [1, bad]
        with pytest.raises(TypeError):
            word_size(array)
        with pytest.raises(TypeError):
            word_size_many(array)


def _random_payload(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice([rng.randrange(1000), rng.random(), True, None])
    if roll < 0.7:
        return tuple(_random_payload(rng, depth + 1) for _ in range(rng.randrange(4)))
    if roll < 0.8:
        return [_random_payload(rng, depth + 1) for _ in range(rng.randrange(3))]
    if roll < 0.9:
        return "x" * rng.randrange(20)
    return {rng.randrange(10): _random_payload(rng, depth + 1) for _ in range(rng.randrange(3))}


def test_word_size_many_agrees_with_per_item_sizer_on_random_payloads():
    rng = random.Random(1234)
    for _ in range(50):
        batch = [_random_payload(rng) for _ in range(rng.randrange(30))]
        assert word_size_many(batch) == sum(word_size(item) for item in batch)


# ----------------------------------------------------------------------
# Level-wise sizing against the recursive oracle
# ----------------------------------------------------------------------
class Color(IntEnum):
    RED = 1
    BLUE = 2


class SizedPair(namedtuple("SizedPair", "a b")):
    def word_size(self) -> int:
        return 5


Pair = namedtuple("Pair", "a b")


def _sketch_row(slots: int) -> SketchRow:
    counters = np.arange(slots, dtype=np.int64)
    return SketchRow(counters, counters.copy(), counters.astype(np.uint64))


_hashable_leaves = st.one_of(
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.sampled_from(list(Color)),
    st.builds(SizedPair, st.integers(), st.integers()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, st.floats()),
    st.builds(np.bool_, st.booleans()),
)
_leaves = st.one_of(
    _hashable_leaves,
    st.builds(bytearray, st.binary(max_size=20)),
    st.builds(
        lambda rows, cols: np.arange(rows * cols).reshape(rows, cols),
        st.integers(0, 4), st.integers(0, 4),
    ),
    st.builds(_sketch_row, st.integers(0, 6)),
)
payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.builds(Pair, children, children),
        st.dictionaries(_hashable_leaves, children, max_size=4),
        st.sets(_hashable_leaves, max_size=4),
        st.frozensets(_hashable_leaves, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(payload=payloads)
def test_word_size_matches_recursive_oracle(payload):
    assert word_size(payload) == reference_word_size(payload)


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(payloads, max_size=8))
def test_word_size_many_matches_recursive_oracle(batch):
    expected = sum(reference_word_size(item) for item in batch)
    assert word_size_many(batch) == expected
    assert word_size_many(tuple(batch)) == expected
    assert word_size_many(iter(batch)) == expected


def test_deep_nesting_is_sized_without_recursion():
    """Nesting the recursive oracle cannot size within the recursion limit."""
    payload = 7
    for depth in range(900):
        payload = [payload, 1] if depth % 2 else (payload,)
    assert word_size(payload) == 1 + 450


def test_self_containing_payload_raises_instead_of_hanging():
    loop = []
    loop.append(loop)
    with pytest.raises(RecursionError):
        word_size(loop)
    with pytest.raises(RecursionError):
        word_size_many([(1, loop)])
