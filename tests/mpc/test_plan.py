"""RoundPlan builder and the batched execute path."""

import random
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpc import (
    Cluster,
    CommunicationLimitExceeded,
    ModelConfig,
    ProtocolError,
    RoundPlan,
)
from plan_tally import tally
from repro.labeling.flow_labels import FlowLabel
from repro.mpc.plan import is_block
from toy_block import PairBlock


def make_cluster(strict: bool = False, **kw) -> Cluster:
    config = ModelConfig.heterogeneous(n=64, m=256, strict=strict, **kw)
    return Cluster(config, rng=random.Random(0))


def objects(values) -> np.ndarray:
    """*values* as a 1-D ``object`` array, one element per value."""
    return np.fromiter(values, dtype=object, count=len(values))


def runs_as_rows(plan: RoundPlan) -> list:
    """The plan's runs, numpy blocks turned back into Python rows."""
    return [
        (src, dst, [tuple(row) if block.ndim == 2 else row for row in block.tolist()])
        for src, dst, block in plan.runs()
    ]


# ----------------------------------------------------------------------
# Builder semantics
# ----------------------------------------------------------------------
def test_send_groups_by_route():
    plan = RoundPlan()
    plan.send(0, 1, "a").send(0, 1, "b").send(0, 2, "c")
    assert list(plan.runs()) == [(0, 1, ["a", "b"]), (0, 2, ["c"])]
    assert tally(plan) == ({0: 3}, {1: 2, 2: 1}, 3, 3)


def test_send_batch_merges_with_send():
    plan = RoundPlan()
    plan.send(3, 4, 10)
    plan.send_batch(3, 4, [20, 30])
    assert list(plan.runs()) == [(3, 4, [10, 20, 30])]


def test_empty_sends_create_no_routes():
    plan = RoundPlan()
    plan.send(0, 1)
    plan.send_batch(0, 1, [])
    assert plan.is_empty
    assert list(plan.runs()) == []
    assert plan.run_meta() == ([], [], [], [])


def test_send_batch_copies_its_input():
    items = [1, 2]
    plan = RoundPlan()
    plan.send_batch(0, 1, items)
    items.append(3)
    assert list(plan.runs()) == [(0, 1, [1, 2])]


# ----------------------------------------------------------------------
# Blocks that are not arrays
# ----------------------------------------------------------------------
def test_is_block_is_the_one_block_predicate():
    assert is_block(np.zeros((3, 2), dtype=np.int64))
    assert is_block(PairBlock([(1, 2)]))
    assert not is_block([(1, 2)]) and not is_block((1, 2)) and not is_block(7)
    assert len(PairBlock([(1, 2)] * 3)) == 3
    assert PairBlock([(1, 2)] * 3).size == PairBlock([(1, 2)] * 3).word_size() == 6


def test_a_sent_block_is_one_run_charged_like_its_array():
    """Items are rows, words are ``size``, and the block arrives whole —
    the tally of the numeric array of the same shape."""
    rows = [(1, 2), (3, 4), (5, 6)]
    tallies = []
    for payload in (PairBlock(rows), np.array(rows, dtype=np.int64)):
        plan = RoundPlan(note="blocks")
        plan.send_batch(0, 1, payload).send_batch(2, 1, payload[1:])
        cluster = make_cluster()
        inboxes = cluster.execute(plan)
        assert inboxes[1][0] is payload and len(inboxes[1]) == 2
        record = cluster.ledger.records[-1]
        tallies.append((plan.run_meta(), tally(plan),
                        (record.total_words, record.items, record.max_sent)))
    assert tallies[0] == tallies[1]
    assert tallies[0][1] == ({0: 6, 2: 4}, {1: 10}, 10, 5)


def test_a_block_has_no_per_item_view():
    """Every view of a plan hands a :class:`Block` over whole, never as
    its rows: one run, one inbox entry, rows counted as items."""
    block = PairBlock([(1, 2), (3, 4)])
    plan = RoundPlan()
    plan.send_batch(0, 1, block)
    assert list(plan.runs()) == [(0, 1, block)]
    assert list(plan.deliveries()) == [(1, [block])]
    assert plan.run_meta() == ([0], [1], [2], [4])


def test_engine_and_primitives_never_import_the_sketch_layer():
    """Blocks keep the dependency one way: the sketch layer subclasses
    :class:`Block`; the engine and the primitives never name it."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    for package in ("mpc", "primitives"):
        for path in sorted((root / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                assert not any("sketches" in name for name in names), path


# ----------------------------------------------------------------------
# Execute semantics
# ----------------------------------------------------------------------
def test_execute_delivers_batches_and_counts_one_round():
    cluster = make_cluster()
    plan = RoundPlan(note="t")
    plan.send_batch(0, 1, [(1, 2), (3, 4)])
    plan.send(0, 2, "hello")
    inboxes = cluster.execute(plan)
    assert inboxes[1] == [(1, 2), (3, 4)]
    assert inboxes[2] == ["hello"]
    assert cluster.ledger.rounds == 1


def test_execute_charges_bulk_word_sizes():
    cluster = make_cluster()
    plan = RoundPlan(note="w")
    plan.send_batch(0, 1, [(1, 2, 3), (4, 5, 6)])  # 6 words
    plan.send(2, 1, (7, 8))  # 2 words
    cluster.execute(plan)
    record = cluster.ledger.records[-1]
    assert record.total_words == 8
    assert record.max_sent == 6
    assert record.max_received == 8
    assert record.items == 3


def test_object_blocks_of_python_scalars_charge_one_word_per_element():
    """An object array of Python ints (past int64 too), floats and bools
    is a block like a numeric one: a batch and a scatter of it charge one
    word per element.  One holding other values charges their words; an
    array that is neither numeric nor ``object`` is refused when
    queued."""
    cluster = make_cluster()
    rows = np.array([[1, 2**70], [2.5, True], [3, -(2**64)]], dtype=object)
    plan = RoundPlan(note="object-block")
    plan.send_batch(0, 1, rows[:2])
    plan.send_indexed(np.array([2, 2, 3]), np.array([1, 4, 4]), rows)
    inboxes = cluster.execute(plan)
    record = cluster.ledger.records[-1]
    assert (record.total_words, record.items) == (10, 5)
    assert [row for block in inboxes[4] for row in block.tolist()] == rows[1:].tolist()
    labelled = objects([(1, 2), None, FlowLabel(((3, 0.5),))])  # 2 + 1 + 3 words
    plan = RoundPlan(note="values").send_batch(0, 1, labelled)
    assert plan.run_words() == [6]
    strings = np.array(["a", "b"])
    for send in (
        lambda plan: plan.send_batch(0, 1, strings),
        lambda plan: plan.send_indexed(0, np.array([1, 2]), strings),
        lambda plan: plan.send_runs(np.array([0]), np.array([1]), [2], strings),
    ):
        with pytest.raises(TypeError, match="numeric or of dtype object"):
            send(RoundPlan())


def test_execute_unknown_machine_raises():
    cluster = make_cluster()
    plan = RoundPlan().send(0, 10**6, "x")
    with pytest.raises(ProtocolError):
        cluster.execute(plan)


def test_execute_strict_raises_before_recording():
    cluster = make_cluster(strict=True)
    capacity = cluster.smalls[1].capacity
    plan = RoundPlan(note="burst")
    plan.send_batch(0, 1, [0] * (capacity + 1))
    with pytest.raises(CommunicationLimitExceeded):
        cluster.execute(plan)
    assert cluster.ledger.rounds == 0


def test_empty_plan_is_a_noop():
    """Regression: a plan that moves no data must not burn a ledger round.

    (An all-empty-batches plan used to charge a 0-word round.)
    """
    cluster = make_cluster()
    assert cluster.execute(RoundPlan(note="sync")) == {}
    plan = RoundPlan(note="hollow")
    plan.send(0, 1)
    plan.send_batch(2, 3, [])
    assert cluster.execute(plan) == {}
    assert cluster.ledger.rounds == 0
    assert cluster.ledger.records == []
    # Explicitly charged synchronization rounds remain available.
    cluster.ledger.charge(1, note="sync")
    assert cluster.ledger.rounds == 1


def test_interleaved_sources_preserve_send_order():
    """Non-source-major traffic: inboxes arrive in exact send-call order,
    matching the historical per-message engine."""
    cluster = make_cluster()
    plan = RoundPlan(note="i")
    for src, dst, payload in [
        (0, 5, "a"), (1, 5, "b"), (0, 5, "c"), (2, 6, "d"), (0, 6, "e")
    ]:
        plan.send(src, dst, payload)
    inboxes = cluster.execute(plan)
    assert inboxes[5] == ["a", "b", "c"]
    assert inboxes[6] == ["d", "e"]


def test_send_and_send_batch_plans_match_accounting():
    """Both intakes charge identical rounds, words, volumes and
    violations for the same traffic: 500 per-message ``send`` calls
    against one ``send_batch`` per route."""
    rng = random.Random(9)
    traffic = [
        (rng.randrange(4), 4 + rng.randrange(4), (rng.randrange(100), rng.randrange(100)))
        for _ in range(500)
    ]
    per_message = RoundPlan(note="n")
    by_route: dict[tuple[int, int], list] = {}
    for src, dst, payload in traffic:
        per_message.send(src, dst, payload)
        by_route.setdefault((src, dst), []).append(payload)
    batched = RoundPlan(note="n")
    for (src, dst), payloads in by_route.items():
        batched.send_batch(src, dst, payloads)

    outcomes = []
    for plan in (per_message, batched):
        cluster = make_cluster()
        inboxes = cluster.execute(plan)
        (record,) = cluster.ledger.records
        outcomes.append((
            (record.total_words, record.max_sent, record.max_received, record.items),
            set(record.violations),
            {dst: sorted(items) for dst, items in inboxes.items()},
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][0] == 1000


@given(
    messages=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),   # src
            st.integers(min_value=0, max_value=5),   # dst
            st.integers(min_value=-100, max_value=100),
        ),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_send_and_send_batch_plans_match_per_message_inbox_order(messages):
    """Property: for arbitrary (non-source-major) message lists, a plan of
    per-message ``send`` calls and a plan that ``send_batch``es each
    maximal same-route stretch both deliver the exact per-message inbox
    ordering (payloads appended in message-list order) and charge the
    same words, volumes and items."""
    expected: dict[int, list] = {}
    for _, dst, payload in messages:
        expected.setdefault(dst, []).append(payload)

    per_message = RoundPlan(note="p")
    for src, dst, payload in messages:
        per_message.send(src, dst, payload)
    batched = RoundPlan(note="p")
    for (src, dst), stretch in groupby(messages, key=lambda m: m[:2]):
        batched.send_batch(src, dst, [m[2] for m in stretch])

    records = []
    for plan in (per_message, batched):
        cluster = make_cluster()
        assert cluster.execute(plan) == expected
        records.append([
            (r.total_words, r.max_sent, r.max_received, r.items)
            for r in cluster.ledger.records
        ])
    assert records[0] == records[1]
    assert tally(per_message) == tally(batched)


# ----------------------------------------------------------------------
# Columnar storage: run growth, slicing boundaries, the sizing cache
# ----------------------------------------------------------------------
def test_contiguous_sends_extend_the_open_run():
    plan = RoundPlan()
    plan.send(0, 1, "a")
    plan.send_batch(0, 1, ["b", "c"])
    plan.send(0, 1, "d", "e")
    assert list(plan.runs()) == [(0, 1, ["a", "b", "c", "d", "e"])]


def test_interleaved_routes_split_runs_but_aggregate_per_route():
    plan = RoundPlan()
    plan.send(0, 1, "a")
    plan.send(2, 5, "b")
    plan.send(0, 1, "c")
    # The flat store is no longer contiguous for route (0, 1): two runs.
    assert list(plan.runs()) == [(0, 1, ["a"]), (2, 5, ["b"]), (0, 1, ["c"])]
    # The accounting sums per machine across runs.
    assert tally(plan) == ({0: 2, 2: 1}, {1: 2, 5: 1}, 3, 3)
    # Delivery still sees exact send order.
    assert dict(plan.deliveries()) == {1: ["a", "c"], 5: ["b"]}


def test_run_slices_respect_boundaries():
    """Slicing must not bleed across neighbouring runs in the flat store."""
    plan = RoundPlan()
    for index in range(10):
        plan.send_batch(index % 3, 7, [index] * (index + 1))
    runs = list(plan.runs())
    flattened = [item for _, _, items in runs for item in items]
    assert flattened == [i for i in range(10) for _ in range(i + 1)]
    assert [len(items) for _, _, items in runs] == [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10
    ]
    assert tally(plan)[3] == 55


def test_run_words_cache_is_invalidated_by_later_sends():
    plan = RoundPlan()
    plan.send_batch(0, 1, [(1, 2, 3)])
    first = plan.run_words()
    assert first == [3]
    assert plan.run_words() is first  # cached
    plan.send(0, 1, (4, 5))
    assert plan.run_words() == [5]   # recomputed after growth
    plan.send(2, 3, "abcdefgh")
    assert plan.run_words() == [5, 2]


def _fan_out(payload_for) -> RoundPlan:
    """A broadcast-shaped round: one payload per route from two holders,
    plus one multi-item run carrying it twice."""
    plan = RoundPlan(note="fan")
    for dst in range(1, 6):
        plan.send(0, dst, payload_for())
    for dst in (6, 7):
        plan.send(1, dst, payload_for())
    plan.send_batch(2, 3, [payload_for(), payload_for()])
    return plan


def _charges(plan: RoundPlan):
    """Run *plan* on a cluster whose 8-word budgets every route breaks,
    so the violations spell out each machine's sent/received words."""
    cluster = Cluster(
        ModelConfig(n=64, m=256, num_small=8, constant=1e-6),
        rng=random.Random(0),
    )
    cluster.execute(plan)
    record = cluster.ledger.records[-1]
    per_machine = sorted(
        (v.machine_id, v.kind, v.amount)
        for v in record.violations
        if v.kind in ("sent", "received")
    )
    totals = (record.total_words, record.max_sent, record.max_received, record.items)
    return per_machine, totals


def test_shared_payload_is_charged_like_distinct_copies():
    shared = tuple((i, i + 1) for i in range(9))  # 18 words

    def copy():
        return tuple((i, i + 1) for i in range(9))

    same, copies = _fan_out(lambda: shared), _fan_out(copy)
    assert same.run_words() == copies.run_words() == [18] * 7 + [36]
    per_machine, totals = _charges(same)
    assert (per_machine, totals) == _charges(copies)
    assert ((0, "sent", 5 * 18)) in per_machine
    assert ((3, "received", 18 + 36)) in per_machine
    assert totals == (9 * 18, 5 * 18, 18 + 36, 9)
    # Other payloads in the same plan keep their own sizes.
    mixed = RoundPlan().send(0, 1, shared).send(0, 2, (1, 2, 3)).send(0, 3, shared)
    assert mixed.run_words() == [18, 3, 18]


def test_payload_mutated_after_send_is_charged_at_execute_time():
    payload = [(1, 2)]
    plan = RoundPlan(note="mutate")
    plan.send(0, 1, payload)
    payload.append((3, 4, 5))  # 5 words from here on
    plan.send(0, 2, payload)
    payload.append(6)  # 6 words by execute time
    cluster = make_cluster()
    cluster.execute(plan)
    assert plan.run_words() == [6, 6]
    assert cluster.ledger.records[-1].total_words == 12


def test_run_meta_parallel_arrays_are_consistent():
    plan = RoundPlan()
    plan.send_batch(0, 4, [1, 2, 3])
    plan.send_batch(1, 4, [(5, 6)])
    srcs, dsts, lens, words = plan.run_meta()
    assert srcs == [0, 1]
    assert dsts == [4, 4]
    assert lens == [3, 1]
    assert words == [3, 2]


def test_send_indexed_object_path_groups_stably():
    """An object array scatters like a numeric one: ascending destination,
    stable within each run, one block per destination."""
    plan = RoundPlan()
    plan.send_indexed(0, [5, 3, 5, 3, 5], objects(["a", "b", "c", "d", "e"]))
    assert runs_as_rows(plan) == [(0, 3, ["b", "d"]), (0, 5, ["a", "c", "e"])]
    assert tally(plan)[3] == 5
    assert {dst: block.tolist() for dst, (block,) in plan.deliveries()} == {
        3: ["b", "d"], 5: ["a", "c", "e"]
    }


def test_send_indexed_empty_and_mismatched():
    plan = RoundPlan()
    plan.send_indexed(0, [], objects([]))
    assert plan.is_empty
    with pytest.raises(ValueError):
        plan.send_indexed(0, [1, 2], objects(["only-one"]))


def test_send_indexed_executes_like_send_batch():
    via_indexed = make_cluster()
    plan = RoundPlan(note="x")
    plan.send_indexed(0, [1, 2, 1], objects([(1, 2), (3, 4), (5, 6)]))
    indexed_inboxes = via_indexed.execute(plan)

    via_batch = make_cluster()
    plan = RoundPlan(note="x")
    plan.send_batch(0, 1, [(1, 2), (5, 6)])
    plan.send_batch(0, 2, [(3, 4)])
    batch_inboxes = via_batch.execute(plan)

    a = via_indexed.ledger.records[-1]
    b = via_batch.ledger.records[-1]
    assert (a.total_words, a.max_sent, a.max_received, a.items) == (
        b.total_words, b.max_sent, b.max_received, b.items
    )
    assert {dst: block.tolist() for dst, (block,) in indexed_inboxes.items()} == (
        batch_inboxes
    )


def test_send_indexed_destinations_as_list_or_array():
    """Destinations given as a list or as an int array group a scatter
    alike."""
    rng = random.Random(3)
    dsts = [rng.randrange(6) for _ in range(200)]
    items = objects([("x", i) if i % 3 else None for i in range(200)])
    as_array = RoundPlan().send_indexed(0, np.asarray(dsts, dtype=np.int64), items)
    as_list = RoundPlan().send_indexed(0, dsts, items)
    assert runs_as_rows(as_array) == runs_as_rows(as_list)
    assert as_array.run_meta() == as_list.run_meta()


def test_numeric_scatter_matches_per_route_partition():
    """A numeric block groups into the per-route partition of its rows:
    ascending destination, stable within each run."""
    rng = random.Random(5)
    dsts = [rng.randrange(4) for _ in range(300)]
    rows = [(i, i * i) for i in range(300)]
    routes: dict = {}
    for dst, row in sorted(zip(dsts, rows), key=lambda pair: pair[0]):
        routes.setdefault(dst, []).append(row)
    plan = RoundPlan().send_indexed(
        0, np.asarray(dsts, dtype=np.int64), np.asarray(rows, dtype=np.int64)
    )
    assert runs_as_rows(plan) == [(0, dst, got) for dst, got in routes.items()]
    assert [dst for dst, _ in plan.deliveries()] == list(routes)


def test_numpy_blocks_are_views_of_the_scatter():
    """Rows that already arrive grouped are not copied item by item: each
    delivered block is a view of the scattered array."""
    rows = np.arange(40, dtype=np.int64).reshape(10, 4)
    plan = RoundPlan().send_indexed(2, np.asarray([1] * 4 + [3] * 6), rows)
    (first_dst, (first,)), (second_dst, (second,)) = plan.deliveries()
    assert (first_dst, second_dst) == (1, 3)
    assert first.shape == (4, 4) and second.shape == (6, 4)
    assert np.shares_memory(first, rows) and np.shares_memory(second, rows)


@pytest.mark.parametrize("machines", [40, 300])
def test_send_indexed_source_column_groups_by_source_then_destination(machines):
    """A multi-source scatter holds the runs of the equivalent per-source
    scatters — ascending (src, dst), stable — and delivers each
    destination one block of its rows in source order.  40 machines keep
    the route keys within the 16-bit radix sort, 300 go past it."""
    rng = random.Random(machines)
    messages = [
        (rng.randrange(machines), rng.randrange(machines), (i, rng.randrange(99)))
        for i in range(3000)
    ]
    plan = RoundPlan().send_indexed(
        np.asarray([m[0] for m in messages]),
        np.asarray([m[1] for m in messages]),
        np.asarray([m[2] for m in messages], dtype=np.int64),
    )
    ordered = sorted(messages, key=lambda m: (m[0], m[1]))
    routes: dict = {}
    for src, dst, row in ordered:
        routes.setdefault((src, dst), []).append(row)
    assert [
        (src, dst, [tuple(row) for row in block.tolist()])
        for src, dst, block in plan.runs()
    ] == [(src, dst, rows) for (src, dst), rows in routes.items()]
    inboxes: dict = {}
    for _, dst, row in ordered:
        inboxes.setdefault(dst, []).append(row)
    delivered = {
        dst: [tuple(row) for row in block.tolist()]
        for dst, (block,) in plan.deliveries()
    }
    assert list(delivered) == list(inboxes)
    assert delivered == inboxes


def test_execute_records_note_stats():
    cluster = make_cluster()
    plan = RoundPlan(note="hot")
    plan.send_batch(0, 1, [1, 2, 3])
    cluster.execute(plan)
    cluster.execute(RoundPlan(note="hot").send(2, 3, (1, 2)))
    stats = cluster.ledger.note_stats["hot"]
    assert stats.rounds == 2
    assert stats.total_words == 5
    assert stats.items == 4
    assert stats.elapsed >= 0.0
    assert cluster.ledger.hottest_notes()[0][0] == "hot"


def test_note_stats_respect_ledger_sections():
    cluster = make_cluster()
    with cluster.ledger.section("phase-a"):
        cluster.execute(RoundPlan(note="x").send(0, 1, 1))
    assert "phase-a / x" in cluster.ledger.note_stats


# ----------------------------------------------------------------------
# Multicasts and the volume vectors
# ----------------------------------------------------------------------
def test_multicast_is_one_entry_with_the_runs_of_per_route_sends():
    """One payload on many routes: the runs, per-run columns, tally,
    inboxes and charges of one ``send`` per route, as one entry whose
    payload is sized once."""
    payload = tuple((i, i + 1) for i in range(5))  # 10 words
    srcs, dsts = [4, 4, 0, 4, 0], [1, 2, 3, 5, 2]
    routed = RoundPlan()
    for src, dst in zip(srcs, dsts):
        routed.send(src, dst, payload)
    multicast = RoundPlan().send_multicast(np.array(srcs), np.array(dsts), payload)
    assert len(multicast._run_block) == 1
    assert list(multicast.runs()) == list(routed.runs())
    assert multicast.run_meta() == routed.run_meta()
    assert multicast.run_words() == [10] * 5
    assert tally(multicast) == tally(routed)
    assert list(multicast.deliveries()) == list(routed.deliveries())
    assert [c.tolist() for c in multicast.run_columns()] == [
        c.tolist() for c in routed.run_columns()
    ]
    assert _charges(multicast) == _charges(routed)
    # An empty multicast opens no entry; mismatched columns are refused.
    assert RoundPlan().send_multicast([], [], payload).is_empty
    with pytest.raises(ValueError):
        RoundPlan().send_multicast([0, 1], [2], payload)


@pytest.mark.parametrize("scatter", [False, True])
def test_volumes_are_sums_over_machine_ids(scatter):
    """Sent and received words per machine id, with or without an entry
    stored whole; an id outside the cluster, on either side, raises."""
    plan = RoundPlan()
    plan.send_batch(0, 1, [1, 2, 3])
    if scatter:
        plan.send_indexed(
            np.array([2, 2, 0]), np.array([1, 3, 3]), np.ones((3, 2), np.int64)
        )
    else:
        plan.send_batch(2, 1, np.ones((1, 2), np.int64))
        plan.send_batch(2, 3, np.ones((1, 2), np.int64)).send_batch(0, 3, [(5, 6)])
    volumes, total, items = plan.volumes(5)
    assert volumes.tolist() == [[3 + 2, 0, 4, 0, 0], [0, 3 + 2, 0, 4, 0]]
    assert (total, items) == (9, 6)
    with pytest.raises(ProtocolError, match=r"unknown machine\(s\) \[3\]"):
        plan.volumes(3)
    for src, dst, unknown in ((-1, 0, -1), (0, -2, -2), (4, 0, 4), (0, 4, 4)):
        with pytest.raises(ProtocolError, match=rf"\[{unknown}\]"):
            plan.send(src, dst, "x").volumes(4)
        plan = RoundPlan()


def test_volumes_stay_exact_past_float64():
    """Past 2**53 words a float64 sum would round; the volumes do not."""
    from repro.mpc.plan import Block

    class Huge(Block):
        __slots__ = ("shape",)

        def __init__(self, words):
            self.shape = (1, words)

    plan = RoundPlan().send_batch(0, 1, Huge(2**53)).send_batch(0, 2, Huge(1))
    volumes, total, _ = plan.volumes(3)
    assert volumes.tolist() == [[2**53 + 1, 0, 0], [0, 2**53, 1]]
    assert total == 2**53 + 1
