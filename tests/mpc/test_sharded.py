"""Differential test of the sharded store.

Every dataset is stored two ways: machine by machine, each small machine
putting its slice with ``Machine.put``, and as one sharded dataset
(``Cluster.store``, then ``Cluster.rebound`` to bounds that skip rows).
The two must agree on ``Cluster.usage`` after every store and pop, on
every machine's ``get``, and on a store over values the machines put
themselves; in strict mode, on the ``MemoryLimitExceeded`` raised — its
type, message and violations.  Datasets hold typed int, float and bool
columns and ``object`` columns of ints past int64, tuples and ``None``,
with empty machines.  Only the cluster replaces or drops a sharded
dataset: a machine's own ``put`` or ``pop`` of its name is refused.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import Cluster, MemoryLimitExceeded, ModelConfig, ProtocolError
from repro.primitives import columnar
from repro.primitives.columnar import EdgeBlock, object_column

K = 5

#: The values of each column kind.
VALUES = {
    "int": st.integers(-100, 100),
    "float": st.floats(-1e3, 1e3, allow_nan=False),
    "bool": st.booleans(),
    "object": st.one_of(
        st.integers(2**63, 2**80),
        st.lists(st.integers(0, 9), max_size=3).map(tuple),
        st.none(),
        st.integers(-9, 9),
    ),
}
DTYPES = {"int": np.int64, "float": np.float64, "bool": np.bool_}


def make(strict: bool = False) -> Cluster:
    config = ModelConfig(n=16, m=64, num_small=K, constant=1.0, strict=strict)
    return Cluster(config, rng=random.Random(0))


@st.composite
def datasets(draw):
    """``(block, counts, starts, stops)``: a block of every machine's
    rows, each machine's row count, and new bounds anywhere in the block
    (skipping rows, overlapping, growing)."""
    kinds = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=4))
    counts = draw(st.lists(st.integers(0, 5), min_size=K, max_size=K))
    rows = sum(counts)
    columns = []
    for kind in kinds:
        values = draw(st.lists(VALUES[kind], min_size=rows, max_size=rows))
        columns.append(
            object_column(values) if kind == "object"
            else np.array(values, dtype=DTYPES[kind])
        )
    lo = [draw(st.integers(0, rows)) for _ in range(K)]
    hi = [draw(st.integers(a, rows)) for a in lo]
    return EdgeBlock(columns, rows), counts, np.array(lo), np.array(hi)


def piece(block, lo, hi):
    """A machine's slice as the per-machine side puts it."""
    return block[lo:hi] if hi > lo else []


def agree(puts: Cluster, shards: Cluster, name: str = "d") -> None:
    assert puts.usage.tolist() == shards.usage.tolist()
    for a, b in zip(puts.smalls, shards.smalls):
        assert list(a.get(name, [])) == list(b.get(name, []))
        assert (name in a) == (name in b)


def raised(step):
    """What *step* raises — type, message, violations — or ``None``."""
    try:
        step()
    except MemoryLimitExceeded as error:
        return type(error), str(error), [str(v) for v in error.violations]
    return None


def store_both(puts, shards, block, counts):
    stops = np.cumsum(counts)
    return (
        raised(lambda: [
            machine.put("d", piece(block, lo, hi))
            for machine, lo, hi in zip(puts.smalls, stops - counts, stops)
        ]),
        raised(lambda: shards.store("d", block, counts)),
    )


def rebound_both(puts, shards, block, counts, starts, stops):
    """Per machine, each machine whose bounds change puts its new slice,
    in machine order."""
    ends = np.cumsum(counts)
    changed = [
        i for i in range(K) if (starts[i], stops[i]) != (ends[i] - counts[i], ends[i])
    ]
    return (
        raised(lambda: [
            puts.smalls[i].put("d", piece(block, starts[i], stops[i])) for i in changed
        ]),
        raised(lambda: shards.rebound("d", starts, stops)),
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sharded_store_charges_and_reads_as_per_machine_puts(data):
    block, counts, starts, stops = data.draw(datasets())
    puts, shards = make(), make()
    assert store_both(puts, shards, block, counts) == (None, None)
    agree(puts, shards)

    assert rebound_both(puts, shards, block, counts, starts, stops) == (None, None)
    agree(puts, shards)
    # The sharded read gathers the bounds into machine order.
    columns, read = columnar.sharded(shards, "d")
    assert read.tolist() == (stops - starts).tolist()
    assert list(zip(*(col.tolist() for col in columns))) == [
        row for machine in puts.smalls for row in machine.get("d")
    ]

    # A machine's own pop and put of the sharded name are refused.
    machine = shards.smalls[data.draw(st.integers(0, K - 1))]
    for step in (lambda: machine.pop("d"), lambda: machine.put("d", [])):
        with pytest.raises(ProtocolError, match="'d' is sharded"):
            step()
    agree(puts, shards)

    # Dropping it everywhere, then storing over a machine that holds the
    # name itself.
    for side in (puts, shards):
        drop_everywhere(side)
    agree(puts, shards)
    own = data.draw(st.integers(0, K - 1))
    rows = [(1, (2, 3)), (2**70, None)]
    puts.smalls[own].put("d", rows)
    shards.smalls[own].put("d", rows)
    agree(puts, shards)
    assert store_both(puts, shards, block, counts) == (None, None)
    agree(puts, shards)
    for side in (puts, shards):
        drop_everywhere(side)
    agree(puts, shards)
    assert not shards.usage.any() and shards.shard("d") is None


def drop_everywhere(cluster):
    """Drop ``d`` machine by machine, or cluster-wide when sharded."""
    if cluster.shard("d") is None:
        for machine in cluster.smalls:
            machine.pop("d")
    else:
        cluster.pop("d")


def test_a_machine_cannot_put_or_pop_a_sharded_name():
    cluster = make()
    cluster.store("d", EdgeBlock([np.arange(6)]), [2, 0, 4, 0, 0])
    machine = cluster.smalls[2]
    assert list(machine.get("d")) == [(2,), (3,), (4,), (5,)]
    with pytest.raises(ProtocolError, match="'d' is sharded"):
        machine.put("d", [(7,)])
    with pytest.raises(ProtocolError, match="'d' is sharded"):
        machine.pop("d")
    assert cluster.usage.tolist()[:K] == [2, 0, 4, 0, 0]
    assert list(machine.get("d")) == [(2,), (3,), (4,), (5,)]
    cluster.pop("d")
    machine.put("d", [(7,)])  # a name the cluster dropped is free again
    assert cluster.usage.tolist()[:K] == [0, 0, 1, 0, 0]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_strict_sharded_store_raises_as_per_machine_puts(data):
    block, counts, starts, stops = data.draw(datasets())
    puts, shards = make(strict=True), make(strict=True)
    capacity = puts.config.small_capacity
    fill = data.draw(st.lists(st.integers(0, capacity), min_size=K, max_size=K))
    for side in (puts, shards):
        for machine, words in zip(side.smalls, fill):
            machine.put("fill", [0] * words)
    first, second = store_both(puts, shards, block, counts)
    assert first == second
    if first is not None:
        return
    agree(puts, shards)
    first, second = rebound_both(puts, shards, block, counts, starts, stops)
    assert first == second
    if first is None:
        agree(puts, shards)
