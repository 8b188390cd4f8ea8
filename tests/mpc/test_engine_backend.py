"""How ``send_indexed`` groups a scatter of an ``object`` array, what an
empty scatter queues, and which scatters it refuses."""

import numpy as np
import pytest

from repro.mpc import RoundPlan


def objects(values) -> np.ndarray:
    """*values* as a 1-D ``object`` array, one element per value."""
    return np.fromiter(values, dtype=object, count=len(values))


def runs_as_rows(plan: RoundPlan) -> list:
    """The plan's runs, blocks turned back into Python rows."""
    return [
        (src, dst, [tuple(row) if block.ndim == 2 else row for row in block.tolist()])
        for src, dst, block in plan.runs()
    ]


def test_pure_grouping_is_stable_and_dst_sorted():
    plan = RoundPlan().send_indexed(
        0, [3, 1, 3, 1, 2], objects(["a", "b", "c", "d", "e"])
    )
    assert runs_as_rows(plan) == [
        (0, 1, ["b", "d"]), (0, 2, ["e"]), (0, 3, ["a", "c"])
    ]
    assert {dst: block.tolist() for dst, (block,) in plan.deliveries()} == {
        1: ["b", "d"], 2: ["e"], 3: ["a", "c"]
    }


def test_pure_grouping_handles_empty_scatter():
    """An empty scatter opens no run, of an object array and of a numeric
    block from a column of sources alike."""
    for plan in (
        RoundPlan().send_indexed(0, [], objects([])),
        RoundPlan().send_indexed(
            np.empty(0, dtype=np.int64), [], np.empty((0, 3), dtype=np.int64)
        ),
    ):
        assert list(plan.runs()) == []
        assert list(plan.deliveries()) == []
        assert plan.is_empty


def test_numpy_grouping_rejects_mismatched_columns():
    """Destinations, sources and rows of different lengths raise
    ValueError, and rows that are not a numpy array TypeError; a refused
    scatter queues nothing."""
    plan = RoundPlan()
    with pytest.raises(ValueError):
        plan.send_indexed(
            0, np.asarray([0, 1], dtype=np.int64), np.zeros((3, 2), dtype=np.int64)
        )
    with pytest.raises(ValueError):
        plan.send_indexed([0, 1, 2], [0, 1], np.zeros((2, 2), dtype=np.int64))
    for src in (0, [0, 1]):
        with pytest.raises(TypeError, match="numpy array"):
            plan.send_indexed(src, [0, 1], ["a", "b"])
    assert plan.is_empty

