"""Differential property test: the columnar engine vs per-message semantics.

This is the conformance gate for the columnar ``RoundPlan`` rewrite.  For
arbitrary message lists — interleaved senders, mixed payload types
(scalars, strings, ``bytes``, tuples), empty runs sprinkled in — a
reference per-message model (an independent reimplementation of the seed
``Cluster.exchange`` accounting) must agree with every way of feeding the
engine:

* ``Cluster.execute`` of a plan built with per-item ``send`` calls,
* ``Cluster.execute`` of a plan built with randomly-chunked
  ``send_batch`` calls,
* ``Cluster.execute`` of a plan built with per-source ``send_indexed``
  scatters of ``object`` arrays,
* ``Cluster.execute`` of plans holding multi-source array scatters
  (``send_indexed`` with a source column), stored whole and tallied with
  vectorized passes,

on **inboxes, round counts, word charges, per-round volumes, violation
lists, and memory ledger entries**.  The per-message suites run with
machine ids in both forms the engine is handed: pure-Python ints, and
numpy integers as primitives produce them after an array pass.  An
enforce-mode throttle must split an array scatter exactly like the
equivalent per-``(src, dst)`` ``send_batch`` plan.  A scatter of
``object`` rows (ints, ``None``, tuples, flow labels) must match the
per-route ``send_batch`` of its rows as Python tuples: runs, words per
run, items, inbox rows, an enforcing split and a strict-mode raise.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling.flow_labels import FlowLabel
from repro.mpc import (
    Cluster,
    CommunicationLimitExceeded,
    ModelConfig,
    RoundPlan,
    Violation,
    word_size,
)

NUM_SMALL = 6

#: Machine-id forms: Python ints, or numpy integers (index columns).
ID_FORMS = ("pure", "numpy")


def make_cluster(**kw) -> Cluster:
    config = ModelConfig.heterogeneous(n=64, m=256, num_small=NUM_SMALL, **kw)
    return Cluster(config, rng=random.Random(0))


# Payloads cover every accounting class: interned and large scalars,
# floats, bools, None, strings, bytes blobs, flat and nested tuples.
scalars = st.one_of(
    st.integers(min_value=-3, max_value=3),          # interned ints
    st.integers(min_value=10**6, max_value=10**7),   # non-interned ints
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
payloads = st.one_of(
    scalars,
    st.text(max_size=20),
    st.binary(max_size=24),
    st.tuples(st.integers(0, 100), st.integers(0, 100)),
    st.tuples(st.integers(0, 100), st.integers(0, 100), st.integers(0, 10**6)),
    st.tuples(st.tuples(st.integers(0, 9), st.integers(0, 9)), st.text(max_size=4)),
    st.tuples(),                                     # zero-word payload
)
messages_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_SMALL),  # src (incl. the large)
        st.integers(min_value=0, max_value=NUM_SMALL),  # dst
        payloads,
    ),
    max_size=80,
)


def reference_model(cluster: Cluster, messages) -> dict:
    """Seed-semantics per-message accounting, reimplemented independently."""
    inboxes: dict[int, list] = {}
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    total = 0
    for src, dst, payload in messages:
        words = word_size(payload)
        total += words
        sent[src] = sent.get(src, 0) + words
        received[dst] = received.get(dst, 0) + words
        inboxes.setdefault(dst, []).append(payload)
    return {
        "inboxes": inboxes,
        "total_words": total,
        "max_sent": max(sent.values(), default=0),
        "max_received": max(received.values(), default=0),
        "items": len(messages),
        "rounds": 0 if not messages else 1,
        # No machine stores datasets in these runs, so the high-water dict
        # stays empty (zero marks are never recorded).
        "memory": {},
    }


def assert_matches_reference(cluster: Cluster, inboxes, expected) -> None:
    assert inboxes == expected["inboxes"]
    assert cluster.ledger.rounds == expected["rounds"]
    if expected["rounds"]:
        record = cluster.ledger.records[-1]
        assert record.total_words == expected["total_words"]
        assert record.max_sent == expected["max_sent"]
        assert record.max_received == expected["max_received"]
        assert record.items == expected["items"]
        assert record.violations == ()
    else:
        assert cluster.ledger.records == []
    assert cluster.ledger.memory_high_water == expected["memory"]


def with_ids(messages, form: str) -> list:
    """The messages with their machine ids in *form*."""
    if form == "pure":
        return list(messages)
    return [(np.int64(src), np.int64(dst), payload) for src, dst, payload in messages]


def chunked_plan(messages, note: str, chunk_seed: int) -> RoundPlan:
    """Build the plan with randomly-sized send_batch chunks (grouping
    consecutive same-route messages arbitrarily), with empty batches
    sprinkled in — they must be invisible."""
    rng = random.Random(chunk_seed)
    plan = RoundPlan(note=note)
    index = 0
    while index < len(messages):
        src, dst, _ = messages[index]
        stop = index + 1
        while stop < len(messages) and messages[stop][:2] == (src, dst):
            stop += 1
        stop = min(stop, index + rng.randrange(1, 5))
        plan.send_batch(src, dst, [m[2] for m in messages[index:stop]])
        if rng.random() < 0.3:
            plan.send_batch(src, dst, [])
            plan.send(dst, src)
        index = stop
    return plan


def objects(values) -> np.ndarray:
    """*values* as a 1-D ``object`` array, one element per value."""
    return np.fromiter(values, dtype=object, count=len(values))


def indexed_plan(messages, note: str, form: str = "pure") -> RoundPlan:
    """Build the plan with one send_indexed scatter per source, its
    payloads an ``object`` array and its destinations a list
    (``"pure"``) or an int array (``"numpy"``).

    Scatters deliver per destination in ascending-dst grouped order, so
    only single-source traffic keeps exact per-message inbox order; the
    caller arranges for that.
    """
    plan = RoundPlan(note=note)
    by_src: dict[int, tuple[list, list]] = {}
    for src, dst, payload in messages:
        dsts, items = by_src.setdefault(src, ([], []))
        dsts.append(dst)
        items.append(payload)
    for src, (dsts, items) in by_src.items():
        if form == "numpy":
            src, dsts = np.int64(src), np.asarray(dsts, dtype=np.int64)
        plan.send_indexed(src, dsts, objects(items))
    return plan


@pytest.mark.parametrize("form", ID_FORMS)
@given(messages=messages_strategy)
@settings(max_examples=60, deadline=None)
def test_all_build_paths_match_the_reference_model(form, messages):
    expected = None
    sent = with_ids(messages, form)
    for build in ("send", "send_batch"):
        cluster = make_cluster()
        if expected is None:
            expected = reference_model(cluster, messages)
        if build == "send":
            plan = RoundPlan(note="d")
            for src, dst, payload in sent:
                plan.send(src, dst, payload)
            inboxes = cluster.execute(plan)
        else:
            inboxes = cluster.execute(chunked_plan(sent, "d", len(messages)))
        assert_matches_reference(cluster, inboxes, expected)


@pytest.mark.parametrize("form", ID_FORMS)
@given(messages=messages_strategy)
@settings(max_examples=40, deadline=None)
def test_send_indexed_matches_reference_accounting(form, messages):
    """Scatters regroup traffic (ascending dst per source), so inbox
    *ordering* may legitimately differ for interleaved sources — but all
    ledger accounting and per-destination inbox *contents* must match,
    whether the destinations come as a list or as an int array."""
    cluster = make_cluster()
    expected = reference_model(cluster, messages)
    inboxes = cluster.execute(indexed_plan(messages, "d", form))
    assert cluster.ledger.rounds == expected["rounds"]
    if expected["rounds"]:
        record = cluster.ledger.records[-1]
        assert record.total_words == expected["total_words"]
        assert record.max_sent == expected["max_sent"]
        assert record.max_received == expected["max_received"]
        assert record.items == expected["items"]
    assert cluster.ledger.memory_high_water == expected["memory"]
    assert set(inboxes) == set(expected["inboxes"])
    for dst, items in inboxes.items():
        assert sorted(map(repr, flatten(items))) == sorted(
            map(repr, expected["inboxes"][dst])
        )


def test_array_scatter_accounts_like_the_equivalent_tuples():
    """A numpy block scatter charges exactly what the equivalent tuple
    messages charge, and delivers the same rows (one block per
    destination)."""
    rng = random.Random(7)
    k = 500
    dsts = [rng.randrange(NUM_SMALL) for _ in range(k)]
    rows = [(rng.randrange(64), rng.randrange(64), rng.randrange(10**6))
            for _ in range(k)]

    via_tuples = make_cluster()
    expected = reference_model(via_tuples, [(0, d, r) for d, r in zip(dsts, rows)])

    via_arrays = make_cluster()
    plan = RoundPlan(note="arr")
    plan.send_indexed(0, np.asarray(dsts, dtype=np.int64),
                      np.asarray(rows, dtype=np.int64))
    inboxes = via_arrays.execute(plan)

    record = via_arrays.ledger.records[-1]
    assert record.total_words == expected["total_words"]
    assert record.max_sent == expected["max_sent"]
    assert record.max_received == expected["max_received"]
    assert record.items == expected["items"]
    for dst, blocks in inboxes.items():
        assert len(blocks) == 1
        delivered = [tuple(row) for block in blocks for row in block.tolist()]
        assert delivered == expected["inboxes"][dst]


# ----------------------------------------------------------------------
# Multi-source array scatters, stored whole
# ----------------------------------------------------------------------
def _scatter_segment(width):
    row = (
        st.integers(-(10**6), 10**6)
        if width is None
        else st.tuples(*[st.integers(-(10**6), 10**6)] * width)
    )
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=NUM_SMALL),
            st.integers(min_value=0, max_value=NUM_SMALL),
            row,
        ),
        max_size=40,
    ).map(lambda messages: ("scatter", width, messages))


#: One array scatter: 1-D rows (``None``) or rows of 1-3 words.
scatter_segments = st.sampled_from([None, 1, 2, 3]).flatmap(_scatter_segment)
#: A plan as segments in send-call order: object sends or array scatters.
segments_strategy = st.lists(
    st.one_of(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=NUM_SMALL),
                st.integers(min_value=0, max_value=NUM_SMALL),
                st.tuples(st.integers(0, 100), st.integers(0, 100)),
            ),
            max_size=10,
        ).map(lambda messages: ("send", None, messages)),
        scatter_segments,
    ),
    max_size=5,
)


def _rows(width, payloads):
    shape = (len(payloads),) if width is None else (len(payloads), width)
    return np.array(payloads, dtype=np.int64).reshape(shape)


def equivalent_messages(segments):
    """The per-message form: a scatter's rows grouped by (src, dst),
    ascending, stable — the send order send_indexed promises."""
    messages = []
    for kind, _, segment in segments:
        if kind == "scatter":
            segment = sorted(segment, key=lambda m: (m[0], m[1]))
        messages.extend(segment)
    return messages


def scatter_plan(segments, note):
    plan = RoundPlan(note=note)
    for kind, width, segment in segments:
        if kind == "send":
            for src, dst, payload in segment:
                plan.send(src, dst, payload)
            continue
        plan.send_indexed(
            np.array([m[0] for m in segment], dtype=np.int64),
            np.array([m[1] for m in segment], dtype=np.int64),
            _rows(width, [m[2] for m in segment]),
        )
    return plan


def batch_plan(segments, note):
    """The same scatters as per-(src, dst) send_batch array blocks."""
    plan = RoundPlan(note=note)
    for _, width, segment in segments:
        routes = {}
        for src, dst, payload in sorted(segment, key=lambda m: (m[0], m[1])):
            routes.setdefault((src, dst), []).append(payload)
        for (src, dst), payloads in routes.items():
            plan.send_batch(src, dst, _rows(width, payloads))
    return plan


def flatten(inbox):
    """Inbox entries back to per-item payloads (blocks to their rows)."""
    items = []
    for entry in inbox:
        if isinstance(entry, np.ndarray):
            rows = entry.tolist()
            items.extend(map(tuple, rows) if entry.ndim == 2 else rows)
        else:
            items.append(entry)
    return items


def reference_violations(cluster, messages, note):
    """Per-message bandwidth checks: senders, then receivers, each in
    first-appearance order (round 1 of a fresh cluster)."""
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    for src, dst, payload in messages:
        sent[src] = sent.get(src, 0) + word_size(payload)
        received[dst] = received.get(dst, 0) + word_size(payload)
    violations = []
    for kind, volumes in (("sent", sent), ("received", received)):
        for mid, words in volumes.items():
            capacity = cluster.machine(mid).capacity
            if words > capacity:
                violations.append(Violation(mid, kind, words, capacity, 1, note))
    return violations


@given(segments=segments_strategy, tiny=st.booleans())
@settings(max_examples=60, deadline=None)
def test_array_scatters_match_the_reference_model(segments, tiny):
    """Stored scatters account and deliver like their per-message form:
    inbox rows, their order and the inbox order, rounds, words, volumes,
    items, violation lists in order (tiny capacities force them) and
    memory entries — with one block per destination per scatter."""
    cluster = make_cluster(**({"constant": 0.01} if tiny else {}))
    messages = equivalent_messages(segments)
    expected = reference_model(cluster, messages)
    inboxes = cluster.execute(scatter_plan(segments, "s"))

    assert list(inboxes) == list(expected["inboxes"])
    assert {dst: flatten(items) for dst, items in inboxes.items()} == expected["inboxes"]
    for dst, items in inboxes.items():
        blocks = sum(isinstance(entry, np.ndarray) for entry in items)
        scatters = sum(
            any(m[1] == dst for m in segment)
            for kind, _, segment in segments
            if kind == "scatter"
        )
        assert blocks == scatters
    assert cluster.ledger.rounds == expected["rounds"]
    if expected["rounds"]:
        record = cluster.ledger.records[-1]
        assert record.total_words == expected["total_words"]
        assert record.max_sent == expected["max_sent"]
        assert record.max_received == expected["max_received"]
        assert record.items == expected["items"]
        want = reference_violations(cluster, messages, "s")
        assert [
            (v.machine_id, v.kind, v.amount, v.capacity, v.round, v.note)
            for v in record.violations
        ] == [
            (v.machine_id, v.kind, v.amount, v.capacity, v.round, v.note)
            for v in want
        ]
    assert cluster.ledger.memory_high_water == expected["memory"]


def test_array_scatter_violations_keep_first_appearance_order():
    """Every sender and receiver over a tiny budget: the violation list
    names them in per-message first-appearance order — an object send
    first, then the scatter's sources ascending and its destinations in
    the order its grouped runs first reach them."""
    cluster = make_cluster(constant=0.01)
    srcs = [3, 1, 0, 3, 1, 0, 5, 5]
    dsts = [4, 2, 6, 1, 4, 2, 0, 6]
    rows = [(i, i + 1, i + 2, i + 3, i + 4) for i in range(len(srcs))] * 2
    segments = [
        ("send", None, [(5, 2, (7, 7)), (5, 2, (8, 8))]),
        ("scatter", 5, list(zip(srcs * 2, dsts * 2, rows))),
    ]
    messages = equivalent_messages(segments)
    cluster.execute(scatter_plan(segments, "v"))
    got = cluster.ledger.records[-1].violations
    want = reference_violations(cluster, messages, "v")
    assert len(want) > 6
    assert [(v.machine_id, v.kind, v.amount) for v in got] == [
        (v.machine_id, v.kind, v.amount) for v in want
    ]


@given(segments=st.lists(scatter_segments, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_enforced_split_of_array_scatters_matches_send_batch(segments):
    """The throttle's splitter sees a stored scatter's per-(src, dst)
    runs: chunks, executed rounds and delivered rows equal those of the
    equivalent send_batch plan."""
    def run(build):
        config = ModelConfig.heterogeneous(
            n=64, m=256, num_small=NUM_SMALL, constant=0.01, throttle="enforce"
        )
        cluster = Cluster(config, rng=random.Random(0))
        chunks = [
            [(src, dst, block.tolist()) for src, dst, block in chunk.runs()]
            for chunk in cluster.throttle.split_plan(build())
        ]
        inboxes = cluster.execute(build())
        records = [
            (r.note, r.total_words, r.max_sent, r.max_received, r.items, r.violations)
            for r in cluster.ledger.records
        ]
        rows = {dst: flatten(items) for dst, items in inboxes.items()}
        return chunks, records, rows

    assert run(lambda: scatter_plan(segments, "t")) == run(
        lambda: batch_plan(segments, "t")
    )


# ----------------------------------------------------------------------
# Object rows: a scatter against the per-route send_batch of its rows
# ----------------------------------------------------------------------
#: The values a sort route carries beside its keys.
object_values = st.one_of(
    st.integers(-(2**70), 2**70),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.tuples(st.integers(0, 9), st.integers(0, 9))),
    st.lists(
        st.tuples(st.integers(0, 9), st.floats(0, 1)), max_size=3
    ).map(lambda entries: FlowLabel(tuple(entries))),
)


def object_scatter(width, messages):
    """``(srcs, dsts, rows)`` of an object scatter: 1-D rows of single
    values (*width* None) or rows of *width* values."""
    rows = objects([value for _, _, row in messages for value in row])
    if width is not None:
        rows = rows.reshape(len(messages), width)
    return (
        np.array([m[0] for m in messages], dtype=np.int64),
        np.array([m[1] for m in messages], dtype=np.int64),
        rows,
    )


def object_plans(width, messages, note):
    """The scatter plan and its per-route send_batch reference: rows as
    Python values (or tuples of them), routes ascending, stable."""
    scatter = RoundPlan(note=note).send_indexed(*object_scatter(width, messages))
    reference = RoundPlan(note=note)
    routes: dict = {}
    for src, dst, row in sorted(messages, key=lambda m: (m[0], m[1])):
        routes.setdefault((src, dst), []).append(row[0] if width is None else row)
    for (src, dst), rows in routes.items():
        reference.send_batch(src, dst, rows)
    return scatter, reference


def as_rows(items):
    """A run's or an inbox's items as Python rows (blocks to their rows)."""
    if isinstance(items, np.ndarray):
        return [tuple(row) if items.ndim == 2 else row for row in items.tolist()]
    return list(items)


def executed(plan, **config):
    """Execute *plan* on a fresh cluster: its records and delivered rows."""
    cluster = make_cluster(**config)
    inboxes = cluster.execute(plan)
    records = [
        (r.note, r.total_words, r.max_sent, r.max_received, r.items,
         tuple(map(str, r.violations)))
        for r in cluster.ledger.records
    ]
    rows = {
        dst: [row for entry in items for row in as_rows(
            entry if isinstance(entry, np.ndarray) else [entry]
        )]
        for dst, items in inboxes.items()
    }
    return cluster, records, rows


object_messages = st.sampled_from([None, 1, 2, 3]).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=NUM_SMALL),
                st.integers(min_value=0, max_value=NUM_SMALL),
                st.tuples(*[object_values] * (width or 1)),
            ),
            min_size=1,
            max_size=40,
        ),
    )
)


@given(case=object_messages, tiny=st.booleans())
@settings(max_examples=60, deadline=None)
def test_object_scatters_match_per_route_send_batch(case, tiny):
    """Runs, words per run, items, inbox rows, rounds and violations of
    an object scatter are those of the per-route send_batch of its rows."""
    width, messages = case
    scatter, reference = object_plans(width, messages, "o")
    assert [(src, dst, as_rows(items)) for src, dst, items in scatter.runs()] == [
        (src, dst, as_rows(items)) for src, dst, items in reference.runs()
    ]
    assert scatter.run_meta() == reference.run_meta()
    config = {"constant": 0.01} if tiny else {}
    assert executed(scatter, **config)[1:] == executed(reference, **config)[1:]


@given(case=object_messages)
@settings(max_examples=40, deadline=None)
def test_enforced_split_of_object_scatters_matches_send_batch(case):
    """An enforcing throttle cuts an object scatter's runs by the words
    of their rows, as it cuts the send_batch runs of the same rows."""
    width, messages = case
    config = {"constant": 0.01, "throttle": "enforce"}

    def run(plan):
        cluster = make_cluster(**config)
        chunks = [
            [(src, dst, as_rows(items), words)
             for (src, dst, items), words in zip(chunk.runs(), chunk.run_words())]
            for chunk in cluster.throttle.split_plan(plan)
        ]
        return chunks, executed(plan, **config)[1:]

    scatter, reference = object_plans(width, messages, "t")
    assert run(scatter) == run(reference)


def test_strict_object_scatter_raises_like_send_batch():
    """A strict cluster refuses an object scatter over its budgets with
    the message the send_batch of the same rows gets."""
    label = FlowLabel(tuple((i, 0.5) for i in range(20)))
    messages = [(src, 1 + src % 3, (src, label, (src, None))) for src in range(NUM_SMALL)]
    raised = []
    for plan in object_plans(3, messages, "strict"):
        cluster = make_cluster(strict=True, constant=0.01)
        with pytest.raises(CommunicationLimitExceeded) as error:
            cluster.execute(plan)
        raised.append((str(error.value), cluster.ledger.rounds))
    assert raised[0] == raised[1]
    assert "received" in raised[0][0]
