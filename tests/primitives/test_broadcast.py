"""Tree broadcast and converge-cast."""

import math
import random
import re

import numpy as np
import pytest

from repro.mpc import Cluster, ModelConfig
from repro.primitives.broadcast import broadcast, converge_cast
from repro.primitives.columnar import Reducer


def make_cluster(n=64, m=512, gamma=0.5) -> Cluster:
    return Cluster(ModelConfig.heterogeneous(n=n, m=m, gamma=gamma), rng=random.Random(0))


def test_broadcast_reaches_everyone_in_log_fanout_rounds():
    cluster = make_cluster()
    rounds = broadcast(cluster, cluster.large.machine_id, "seed", cluster.small_ids)
    k = len(cluster.smalls)
    fanout = cluster.config.tree_fanout
    assert rounds <= math.ceil(math.log(k + 1, fanout)) + 1
    assert cluster.ledger.rounds == rounds


def test_broadcast_to_empty_list_is_free():
    cluster = make_cluster()
    assert broadcast(cluster, cluster.large.machine_id, "x", []) == 0
    assert cluster.ledger.rounds == 0


def test_broadcast_excludes_source():
    cluster = make_cluster()
    rounds = broadcast(cluster, 0, "v", [0])
    assert rounds == 0


def test_broadcast_depth_grows_with_smaller_fanout():
    wide = make_cluster(n=256, m=4096, gamma=0.7)
    narrow = make_cluster(n=256, m=4096, gamma=0.2)
    rounds_wide = broadcast(wide, wide.large.machine_id, "v", wide.small_ids)
    rounds_narrow = broadcast(narrow, narrow.large.machine_id, "v", narrow.small_ids)
    assert rounds_narrow >= rounds_wide


def test_converge_cast_collects_all_items():
    cluster = make_cluster()
    items = {mid: [mid] for mid in cluster.small_ids}
    result = converge_cast(cluster, items, cluster.large.machine_id)
    assert sorted(result) == sorted(cluster.small_ids)


def test_converge_cast_applies_combine_at_levels():
    cluster = make_cluster()
    items = {mid: [1, 1] for mid in cluster.small_ids}

    def summed(buffer):
        return [sum(buffer)]

    result = converge_cast(
        cluster, items, cluster.large.machine_id, combine=summed
    )
    assert result == [2 * len(cluster.smalls)]


def test_converge_cast_empty_input():
    cluster = make_cluster()
    assert converge_cast(cluster, {}, cluster.large.machine_id) == []
    assert cluster.ledger.rounds == 0


def test_converge_cast_items_already_at_destination():
    cluster = make_cluster()
    dst = cluster.large.machine_id
    result = converge_cast(cluster, {dst: ["keep"], 0: ["move"]}, dst)
    assert sorted(result) == ["keep", "move"]


def test_converge_cast_charges_buffers_to_machines():
    """Memory honesty: in-flight cast buffers count as machine memory, so
    the ledger's high-water marks see the tree's intermediate state."""
    cluster = make_cluster()
    items = {mid: [(mid, mid)] for mid in cluster.small_ids}
    before = dict(cluster.ledger.memory_high_water)
    converge_cast(cluster, items, cluster.large.machine_id, note="mem")
    high_water = cluster.ledger.memory_high_water
    assert high_water.get(cluster.large.machine_id, 0) >= 2 * len(cluster.smalls)
    assert high_water != before
    # The scratch is freed on completion: no machine keeps a cast buffer.
    for machine in cluster.machines.values():
        assert not any("#cast-buffer" in name for name in machine.datasets())


def test_converge_cast_abort_leaves_no_scratch_charged():
    """Regression: an exception mid-cast (strict-mode limit, failing
    combine) must not leave `#cast-buffer` scratch datasets behind."""
    cluster = make_cluster()
    items = {mid: [1, 1] for mid in cluster.small_ids}

    def exploding(buffer):
        raise RuntimeError("combine failed")

    with pytest.raises(RuntimeError):
        converge_cast(
            cluster, items, cluster.large.machine_id, combine=exploding
        )
    for machine in cluster.machines.values():
        assert not any("#cast-buffer" in name for name in machine.datasets())


# ----------------------------------------------------------------------
# Array casts: numeric blocks ride the tree like the equivalent tuples
# ----------------------------------------------------------------------
def _cast_fingerprint(cluster, result):
    records = [
        (r.note, r.total_words, r.max_sent, r.max_received, r.items, r.violations)
        for r in cluster.ledger.records
    ]
    return records, cluster.ledger.memory_high_water, result


def _owned_rows(items_by_machine):
    """The ``(owners, rows)`` pair of an array cast of the machines'
    ``(key, value)`` tuples, machines ascending."""
    mids = sorted(items_by_machine)
    rows = [row for mid in mids for row in items_by_machine[mid]]
    return (
        np.repeat(np.array(mids, dtype=np.int64), [len(items_by_machine[m]) for m in mids]),
        np.array(rows, dtype=np.int64).reshape(len(rows), 2),
    )


def _cast_both_ways(make, items_by_machine, dst):
    """Run one cast on lists of tuples and one on (rows, width) arrays;
    return both fingerprints with the array result as tuples."""
    as_lists = make()
    listed = converge_cast(
        as_lists, {mid: list(rows) for mid, rows in items_by_machine.items()}, dst
    )
    as_arrays = make()
    block = converge_cast(as_arrays, _owned_rows(items_by_machine), dst)
    rows = [tuple(row) for row in block.tolist()] if len(block) else []
    return _cast_fingerprint(as_lists, listed), _cast_fingerprint(as_arrays, rows)


@pytest.mark.parametrize("narrow", [False, True])
def test_converge_cast_array_buffers_match_tuple_lists(narrow):
    """Same rows in the same order (held rows first, then each level's
    blocks), same rounds, words, items and per-machine high-water."""
    def make():
        gamma = 0.2 if narrow else 0.5  # a narrow tree has several levels
        return make_cluster(n=256, m=4096, gamma=gamma)

    rng = random.Random(3)
    cluster = make()
    items = {
        machine.machine_id: [(rng.randrange(100), rng.randrange(100))
                             for _ in range(rng.randrange(0, 6))]
        for machine in cluster.smalls
    }
    dst = cluster.large.machine_id
    listed, arrayed = _cast_both_ways(make, items, dst)
    assert arrayed == listed
    assert sorted(arrayed[2]) == sorted(row for rows in items.values() for row in rows)
    # A small destination holds its own rows first.
    listed, arrayed = _cast_both_ways(make, items, cluster.small_ids[0])
    assert arrayed == listed


def test_converge_cast_array_with_nothing_sampled():
    """No rows: no round, no charge, an empty result."""
    cluster = make_cluster()
    empty = (np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64))
    result = converge_cast(cluster, empty, cluster.large.machine_id)
    assert len(result) == 0 and result.shape == (0, 2)
    assert cluster.ledger.rounds == 0
    assert cluster.ledger.memory_high_water == {}


def test_converge_cast_array_on_one_machine():
    """k = 1 and no large machine: the only machine is the destination,
    so its rows stay put — no round, the same high-water as the tuples."""
    def make():
        config = ModelConfig.sublinear(n=64, m=64, num_small=1)
        return Cluster(config, rng=random.Random(0))

    only = make().small_ids[0]
    listed, arrayed = _cast_both_ways(make, {only: [(1, 2), (3, 4)]}, only)
    assert arrayed == listed
    assert arrayed[0] == [] and arrayed[2] == [(1, 2), (3, 4)]


# ----------------------------------------------------------------------
# Array casts with a named reducer: one grouped reduce per level
# ----------------------------------------------------------------------
def _sum_pairs(pairs):
    """Per-key sums in first-encounter order (the list cast's combine)."""
    sums = {}
    for key, value in pairs:
        sums[key] = sums.get(key, 0) + value
    return list(sums.items())


_SUM = Reducer("sum", 1, (np.dtype(np.int64), np.dtype(np.int64)))


def _cast_with_combine(make, items_by_machine, dst):
    """One cast on lists of tuples with a list combine, one on ``(n, 2)``
    rows with the named reducer; both fingerprints."""
    as_lists = make()
    listed = converge_cast(
        as_lists,
        {mid: list(rows) for mid, rows in items_by_machine.items()},
        dst,
        combine=_sum_pairs,
    )
    as_arrays = make()
    block = converge_cast(as_arrays, _owned_rows(items_by_machine), dst, combine=_SUM)
    rows = [tuple(row) for row in block.tolist()]
    return _cast_fingerprint(as_lists, listed), _cast_fingerprint(as_arrays, rows)


@pytest.mark.parametrize("narrow", [False, True])
def test_converge_cast_combine_on_block_lists_matches_concatenation(narrow):
    """A named reducer over array rows gives the rows, in the same order,
    rounds, words, items and per-machine high-water marks of the list
    cast that concatenates each holder's buffer and combines it."""
    def make():
        gamma = 0.2 if narrow else 0.5
        return make_cluster(n=256, m=4096, gamma=gamma)

    rng = random.Random(5)
    cluster = make()
    items = {
        machine.machine_id: [(rng.randrange(12), rng.randrange(100))
                             for _ in range(rng.randrange(0, 6))]
        for machine in cluster.smalls
    }
    for dst in (cluster.large.machine_id, cluster.small_ids[0]):
        # A small destination starts with rows of its own.
        assert dst == cluster.large.machine_id or items[dst]
        listed, arrayed = _cast_with_combine(make, items, dst)
        assert arrayed == listed


def test_converge_cast_combine_on_one_machine():
    """k = 1: the only machine is the destination; its rows are combined
    once, with no round."""
    def make():
        config = ModelConfig.sublinear(n=64, m=64, num_small=1)
        return Cluster(config, rng=random.Random(0))

    only = make().small_ids[0]
    listed, arrayed = _cast_with_combine(make, {only: [(1, 2), (3, 4), (1, 5)]}, only)
    assert arrayed == listed
    assert arrayed[0] == [] and arrayed[2] == [(1, 7), (3, 4)]


def test_converge_cast_combine_with_nothing_to_cast():
    """No rows: no round, no charge, an empty result of the cast's
    width."""
    listed, arrayed = _cast_with_combine(
        make_cluster, {mid: [] for mid in make_cluster().small_ids},
        make_cluster().large.machine_id,
    )
    assert arrayed == listed
    assert arrayed[0] == [] and arrayed[2] == []
    cluster = make_cluster()
    empty = (np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64))
    result = converge_cast(cluster, empty, cluster.large.machine_id, combine=_SUM)
    assert result.shape == (0, 2)


def test_converge_cast_array_forms_are_checked_before_any_round():
    """An array cast takes one (owners, rows) pair, owners ascending, and
    a named reducer or no combine; a named reducer takes only that."""
    cluster = make_cluster()
    rows = np.array([[1, 2], [3, 4]], dtype=np.int64)
    dst = cluster.large.machine_id
    cases = [
        (lambda: converge_cast(cluster, {0: rows}, dst), TypeError, "(owners, rows) pair"),
        (lambda: converge_cast(cluster, (np.array([1, 0]), rows), dst), ValueError, "ascend"),
        (lambda: converge_cast(cluster, (np.array([0, 1]), rows), dst, combine=np.concatenate),
         TypeError, "named reducer or no combine"),
        (lambda: converge_cast(cluster, {0: [(1, 2)]}, dst, combine=_SUM),
         TypeError, "named reducer combines"),
    ]
    for cast, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            cast()
    assert cluster.ledger.rounds == 0
    assert not cluster.usage.any()


# ----------------------------------------------------------------------
# Casts of blocks that are not arrays
# ----------------------------------------------------------------------
def test_converge_cast_of_block_objects_matches_arrays():
    """A :class:`~repro.mpc.plan.Block` cast with a combine charges and
    delivers exactly what the array cast of the same rows with the named
    reducer does; the combine sees lists of blocks, and a machine that
    has sent its rows holds a fresh empty block."""
    from toy_block import PairBlock

    def make():
        return make_cluster(n=256, m=4096, gamma=0.2)

    handed = []

    def combine_pairs(blocks):
        handed.append(blocks)
        return PairBlock(_sum_pairs([row for block in blocks for row in block.rows]))

    rng = random.Random(8)
    cluster = make()
    items = {
        machine.machine_id: [(rng.randrange(12), rng.randrange(100))
                             for _ in range(rng.randrange(0, 6))]
        for machine in cluster.smalls
    }
    dst = cluster.large.machine_id
    _, arrayed = _cast_with_combine(make, items, dst)
    block = converge_cast(
        cluster, {mid: PairBlock(rows) for mid, rows in items.items()}, dst,
        combine=combine_pairs,
    )
    assert isinstance(block, PairBlock)
    assert _cast_fingerprint(cluster, block.rows) == arrayed
    assert handed and all(
        type(blocks) is list and all(isinstance(b, PairBlock) for b in blocks)
        for blocks in handed
    )
    assert any(len(b) == 0 for blocks in handed for b in blocks)


def test_converge_cast_of_block_objects_needs_a_combine():
    """Only arrays concatenate: a block-object cast without a combine
    is refused before any round."""
    from toy_block import PairBlock

    cluster = make_cluster()
    items = {mid: PairBlock([(mid, 1)]) for mid in cluster.small_ids}
    with pytest.raises(TypeError, match="needs a combine"):
        converge_cast(cluster, items, cluster.large.machine_id)
    assert cluster.ledger.rounds == 0
