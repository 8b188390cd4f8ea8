"""Machine dataset management and usage tracking."""

import pytest

from repro.mpc import LARGE, SMALL, Machine, MemoryLimitExceeded


def test_put_get_roundtrip():
    machine = Machine(0, SMALL, capacity=100)
    machine.put("edges", [(1, 2), (3, 4)])
    assert machine.get("edges") == [(1, 2), (3, 4)]
    assert machine.get("missing") is None
    assert machine.get("missing", 7) == 7


def test_usage_tracks_word_size():
    machine = Machine(0, SMALL, capacity=100)
    machine.put("a", [(1, 2, 3)])
    machine.put("b", [5])
    assert machine.usage == 4


def test_pop_releases_usage():
    machine = Machine(0, SMALL, capacity=100)
    machine.put("a", [1, 2, 3])
    assert machine.pop("a") == [1, 2, 3]
    assert machine.usage == 0
    assert machine.pop("a", "gone") == "gone"


def test_put_overwrites_and_usage_updates():
    machine = Machine(0, SMALL, capacity=100)
    machine.put("a", [1] * 10)
    machine.put("a", [1])
    assert machine.usage == 1


def test_contains_and_datasets():
    machine = Machine(0, SMALL, capacity=100)
    machine.put("x", [])
    assert "x" in machine
    assert "y" not in machine
    assert list(machine.datasets()) == ["x"]


def test_strict_put_raises_memory_limit():
    machine = Machine(0, SMALL, capacity=3, strict=True)
    machine.put("a", [1, 2, 3])  # exactly at capacity is fine
    with pytest.raises(MemoryLimitExceeded):
        machine.put("b", [4])
    assert "b" not in machine  # the hoard was rejected, not stored
    # Replacing a dataset within budget still works.
    machine.put("a", [1])
    machine.put("b", [2, 3])


def test_nonstrict_machine_stores_past_capacity():
    machine = Machine(0, SMALL, capacity=2)
    machine.put("a", [1, 2, 3])  # recording mode: allowed, flagged
    assert machine.usage == 3 > machine.capacity


def test_kind_flags():
    small = Machine(0, SMALL, capacity=10)
    large = Machine(1, LARGE, capacity=1000)
    assert not small.is_large
    assert large.is_large
