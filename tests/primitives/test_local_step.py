"""Differential test of the small machines' local step.

``EdgeStore.local`` is checked against the loop it replaces: each small
machine in turn reads (or pops) its rows of the source, runs the step and
puts each output.  The loop runs on a cluster holding every dataset as
per-machine values, the local step on one holding the source and the
target as sharded datasets.  They must agree on ``Cluster.usage``, on
every machine's rows of every dataset and on the step's RNG state
afterwards; in strict mode, on the ``MemoryLimitExceeded`` raised — its
type, message and violations.  The steps filter, grow (so strict mode
raises), and put two targets, one of them a sharded dataset: the
survivors of the annotated edges, as MIS puts them, and a subset of the
machine's own rows of the source, which the second target is.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import Cluster, MemoryLimitExceeded, ModelConfig
from repro.primitives.columnar import EdgeBlock
from repro.primitives.edgestore import EdgeStore

K = 5
NAMES = ("a", "s", "out", "pairs")


def make(strict: bool) -> Cluster:
    config = ModelConfig(n=16, m=64, num_small=K, constant=1.0, strict=strict)
    return Cluster(config, rng=random.Random(0))


def filtered(rng):
    return lambda rows: [row for row in rows if rng.random() < 0.5]


def grown(rng):
    return lambda rows: [row[:2] for row in rows for _ in range(rng.randrange(9))]


def blocked_and_survivors(rng):
    """MIS's notify step: a pair per flagged edge, the others survive."""
    def step(rows):
        pairs, survivors = [], []
        for row in rows:
            if row[2]:
                pairs.append((row[1], True))
            elif row[3]:
                pairs.append((row[0], True))
            else:
                survivors.append(row[:2])
        return pairs, survivors
    return step


def pairs_and_subset(rng):
    """Any number of pairs, then a subset of the rows they came from."""
    def step(rows):
        pairs = [(row[0], True) for row in rows for _ in range(rng.randrange(4))]
        return pairs, [row for row in rows if rng.random() < 0.5]
    return step


#: ``(step, source, targets, consume)``.
STEPS = {
    "filter": (filtered, "a", ("out",), False),
    "grow": (grown, "a", ("out",), True),
    "mis": (blocked_and_survivors, "a", ("pairs", "s"), True),
    "subset": (pairs_and_subset, "s", ("pairs", "s"), False),
}


@st.composite
def blocks(draw, kinds):
    """``(block, counts)``: rows of one column per kind, spread over the
    machines, some of them empty."""
    counts = draw(st.lists(st.integers(0, 6), min_size=K, max_size=K))
    rows = sum(counts)
    columns = [
        np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype=dtype)
        for values, dtype in kinds
    ]
    return EdgeBlock(columns, rows), np.array(counts)


EDGES = [(st.integers(0, 15), np.int64)] * 2
FLAGS = [(st.booleans(), np.bool_)] * 2


def raised(step):
    """What *step* raises — type, message, violations — or ``None``."""
    try:
        step()
    except MemoryLimitExceeded as error:
        return type(error), str(error), [str(v) for v in error.violations]
    return None


def place(loop, sharded, name, block, counts):
    """Dataset *name*: per machine on *loop*, one sharded dataset on
    *sharded*."""
    stops = np.cumsum(counts)
    return (
        raised(lambda: [
            machine.put(name, block[lo:hi] if hi > lo else [])
            for machine, lo, hi in zip(loop.smalls, stops - counts, stops)
        ]),
        raised(lambda: sharded.store(name, block, counts)),
    )


def hand_loop(cluster, step, source, targets, consume):
    """The loop :meth:`EdgeStore.local` replaces."""
    for machine in cluster.smalls:
        rows = machine.pop(source, []) if consume else machine.get(source, [])
        outputs = step(rows)
        if len(targets) == 1:
            outputs = (outputs,)
        for target, output in zip(targets, outputs):
            machine.put(target, output)


def agree(loop: Cluster, sharded: Cluster) -> None:
    assert loop.usage.tolist() == sharded.usage.tolist()
    for a, b in zip(loop.smalls, sharded.smalls):
        for name in NAMES:
            assert list(a.get(name, [])) == list(b.get(name, [])), name
            assert (name in a) == (name in b), name


@pytest.mark.parametrize("kind", sorted(STEPS))
@pytest.mark.parametrize("strict", [False, True])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_local_step_matches_the_hand_written_loop(kind, strict, data):
    make_step, source, targets, consume = STEPS[kind]
    loop, sharded = make(strict), make(strict)
    fill = data.draw(st.lists(st.integers(0, 40), min_size=K, max_size=K))
    for side in (loop, sharded):
        for machine, words in zip(side.smalls, fill):
            machine.put("fill", [0] * words)
    for name, kinds in (("a", EDGES + FLAGS), ("s", EDGES)):
        first, second = place(loop, sharded, name, *data.draw(blocks(kinds)))
        assert first == second
        if first is not None:
            return
    agree(loop, sharded)

    seed = data.draw(st.integers(0, 2**32))
    rngs = random.Random(seed), random.Random(seed)
    first = raised(lambda: hand_loop(
        loop, make_step(rngs[0]), source, targets, consume
    ))
    second = raised(lambda: EdgeStore(sharded, source).local(
        make_step(rngs[1]), *targets, consume=consume
    ))
    assert first == second
    if first is None:
        agree(loop, sharded)
        assert rngs[0].getstate() == rngs[1].getstate()
        assert sharded.shard(source) is None or not consume
