"""How the engine groups a scatter, on both row forms ``send_indexed``
takes: pure-Python items (bucketed by destination) and numpy blocks
(grouped with one stable argsort and stored whole)."""

import random

import numpy as np
import pytest

from repro.mpc import RoundPlan


def runs_as_rows(plan: RoundPlan) -> list:
    """The plan's runs, numpy blocks turned back into row tuples."""
    return [
        (src, dst, [tuple(row) for row in block.tolist()])
        if isinstance(block, np.ndarray)
        else (src, dst, block)
        for src, dst, block in plan.runs()
    ]


# ----------------------------------------------------------------------
# Pure-Python items
# ----------------------------------------------------------------------
def test_pure_grouping_is_stable_and_dst_sorted():
    plan = RoundPlan().send_indexed(0, [3, 1, 3, 1, 2], ["a", "b", "c", "d", "e"])
    assert list(plan.runs()) == [(0, 1, ["b", "d"]), (0, 2, ["e"]), (0, 3, ["a", "c"])]


def test_pure_grouping_handles_empty_scatter():
    plan = RoundPlan().send_indexed(0, [], [])
    assert list(plan.runs()) == []
    assert list(plan.deliveries()) == []
    assert plan.is_empty


# ----------------------------------------------------------------------
# Numpy index columns and blocks
# ----------------------------------------------------------------------
def test_numpy_grouping_matches_pure_on_lists():
    """Object items take the pure grouping whether the destinations come
    as a list or as an int array."""
    rng = random.Random(3)
    dsts = [rng.randrange(6) for _ in range(200)]
    items = [("x", i) for i in range(200)]
    as_array = RoundPlan().send_indexed(0, np.asarray(dsts, dtype=np.int64), items)
    assert list(as_array.runs()) == list(RoundPlan().send_indexed(0, dsts, items).runs())


def test_numpy_grouping_of_arrays_matches_pure_partition():
    """A numeric block groups exactly like the list scatter of its rows:
    ascending destination, stable within each run."""
    rng = random.Random(5)
    dsts = [rng.randrange(4) for _ in range(300)]
    rows = [(i, i * i) for i in range(300)]
    as_list = RoundPlan().send_indexed(0, dsts, rows)
    as_array = RoundPlan().send_indexed(
        0, np.asarray(dsts, dtype=np.int64), np.asarray(rows, dtype=np.int64)
    )
    assert runs_as_rows(as_array) == list(as_list.runs())
    assert [dst for dst, _ in as_array.deliveries()] == [
        dst for dst, _ in as_list.deliveries()
    ]


def test_numpy_grouping_rejects_mismatched_columns():
    with pytest.raises(ValueError):
        RoundPlan().send_indexed(
            0, np.asarray([0, 1], dtype=np.int64), np.zeros((3, 2), dtype=np.int64)
        )
    with pytest.raises(ValueError):
        RoundPlan().send_indexed([0, 1, 2], [0, 1], np.zeros((2, 2), dtype=np.int64))
    # A column of sources needs a numeric block.
    with pytest.raises(TypeError):
        RoundPlan().send_indexed([0, 1], [0, 1], ["a", "b"])


def test_numpy_blocks_are_views_of_the_scatter():
    """Rows that already arrive grouped are not copied item by item: each
    delivered block is a view of the scattered array."""
    rows = np.arange(40, dtype=np.int64).reshape(10, 4)
    plan = RoundPlan().send_indexed(2, np.asarray([1] * 4 + [3] * 6), rows)
    (first_dst, (first,)), (second_dst, (second,)) = plan.deliveries()
    assert (first_dst, second_dst) == (1, 3)
    assert first.shape == (4, 4) and second.shape == (6, 4)
    assert np.shares_memory(first, rows) and np.shares_memory(second, rows)
