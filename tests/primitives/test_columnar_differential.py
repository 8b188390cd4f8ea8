"""Differential property suite: columnar primitives vs the object oracles.

The tentpole invariant of the array-native primitive layer: for every
primitive and every input, the columnar primitives (EdgeBlock record
batches, vectorized bucketing/group-by) and the object oracles (per-item
tuples) produce identical datasets AND identical ledgers — same round
records, same word charges and items, same memory high-water and
per-machine usage.  Speed is the only permitted difference.

Hypothesis drives randomized inputs through sort, aggregate and dedup;
join and arrange run a curated scenario matrix covering every internal
representation (typed and object columns, label, tuple and ``None``
values, mixed value types, sorted-mode and partial keys, empties).  The
object side runs under :func:`object_path`: every sort runs on the
object sort of ``tests/sort_oracle.py`` and every aggregation on the
object aggregate of ``tests/aggregate_oracle.py``; the other steps (the
join, arrange, the query step, the MST rename, the dedup's passes)
ingest the tuple lists the oracle leaves, so whole pipelines compare the
two sorts and the two aggregates.
Kernel-level unit tests pin the columnar helpers against their obvious
per-item references, and the zero-length regression block pins the
empty-batch fix: empty scatters must not open runs or burn rounds.
"""

import bisect
import importlib
import random
import re
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggregate_oracle
import repro.primitives.columnar as columnar
import sort_oracle
from repro.core.coloring import heterogeneous_coloring
from repro.core.mis import heterogeneous_mis
from repro.core.mst import heterogeneous_mst
from repro.core.spanner import heterogeneous_spanner
from repro.core.spanner.modified_bs import VertexLabel
from repro.graph import generators
from repro.labeling.flow_labels import FlowLabel
from repro.mpc import Cluster, ModelConfig, RoundPlan
from repro.mpc.errors import ProtocolError
from repro.mpc.machine import Machine
from repro.mpc.words import word_size, word_size_many
from repro.primitives.arrange import arrange_directed, query_first_records
from repro.primitives.columnar import (
    EdgeBlock,
    ingest_datasets,
    ingest_rows,
    pack_columns,
    pack_words,
    reduce_pairs,
    stable_order,
    value_column,
)
from repro.primitives.dedup import dedup_lightest
from repro.primitives.edgestore import EdgeStore
from repro.primitives.join import annotate_edges_with_vertex_values
import repro.primitives.sort as sort_module
from repro.primitives.sort import SortLayout

#: The module, not the ``aggregate`` function the package re-exports.
aggregate_module = importlib.import_module("repro.primitives.aggregate")
edgestore_module = importlib.import_module("repro.primitives.edgestore")
NUM_SMALL = 6


@contextmanager
def object_path():
    """Run every sort on the object oracle (``sort_oracle.installed``) and
    every aggregation on the object aggregate
    (``aggregate_oracle.installed``).  The other primitives then ingest
    the tuple rows the oracle leaves.  An array sort or typed aggregate
    that still runs fails the test, so a path that slips past the fake
    cannot turn a differential into columnar against columnar."""
    def no_columnar(*args, **kwargs):
        raise AssertionError("a columnar path ran under the object-path fake")

    with sort_oracle.installed(), aggregate_oracle.installed(), mock.patch.object(
        sort_module, "_bucket_rows", no_columnar
    ), mock.patch.object(
        aggregate_module, "_pair_columns", no_columnar
    ):
        yield


PATHS = {"object": object_path, "columnar": nullcontext}


def make_cluster(config: ModelConfig | None = None) -> Cluster:
    if config is None:
        config = ModelConfig(n=256, m=1024, num_small=NUM_SMALL)
    return Cluster(config, rng=random.Random(7))


def distribute(cluster: Cluster, name: str, rows) -> None:
    for i, machine in enumerate(cluster.smalls):
        machine.put(name, list(rows[i::NUM_SMALL]))


def snapshot(cluster: Cluster, names) -> tuple:
    datasets = {}
    for name in names:
        for machine in cluster.smalls:
            data = machine.get(name, [])
            rows = data.rows() if isinstance(data, EdgeBlock) else list(data)
            datasets[(name, machine.machine_id)] = rows
    ledger = [
        (r.index, r.note, r.total_words, r.max_sent, r.max_received, r.items)
        for r in cluster.ledger.records
    ]
    usage = [m.usage for m in cluster.smalls]
    return datasets, ledger, (cluster.ledger.memory_high_water, usage)


def run_everyway(build_and_run, names, config=None, sorted_names=()):
    """Run a primitive on every path and assert all snapshots are
    identical; returns the reference snapshot.  *sorted_names* are the
    datasets a sort leaves as its own output."""
    reference = None
    for path, context in PATHS.items():
        cluster = make_cluster(config)
        with context():
            extra = build_and_run(cluster)
        if path == "object":
            # The oracle sort leaves no rows in typed batches.
            assert not any(
                isinstance(data, EdgeBlock) and len(data)
                for name in sorted_names
                for data in (m.get(name, []) for m in cluster.smalls)
            )
        snap = snapshot(cluster, names) + (extra,)
        if reference is None:
            reference = snap
        else:
            assert snap[0] == reference[0], (path, "datasets")
            assert snap[1] == reference[1], (path, "ledger")
            assert snap[2] == reference[2], (path, "memory")
            assert snap[3] == reference[3], (path, "result")
    return reference


# ----------------------------------------------------------------------
# Randomized differentials: sort / aggregate / dedup
# ----------------------------------------------------------------------

edge_rows = st.lists(
    st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-(10**6), max_value=10**6),
    ),
    max_size=80,
)


@settings(max_examples=25, deadline=None)
@given(
    rows=edge_rows,
    key=st.sampled_from([(0, 1, 2), (2,), (1, 0), (2, 0, 1), (1, 1, 0)]),
)
def test_sample_sort_differential(rows, key):
    def go(cluster):
        distribute(cluster, "e", rows)
        return sort_module.sample_sort(cluster, "e", key=key).counts

    run_everyway(go, ["e"], sorted_names=["e"])


def _aggregate_everyway(pairs, reducer, holders=NUM_SMALL):
    """The pairs dealt over the first *holders* machines, aggregated on
    both paths (the result as a list, so that its order is compared)."""
    def go(cluster):
        per = {
            machine.machine_id: pairs[i::holders]
            for i, machine in enumerate(cluster.smalls[:holders])
        }
        return list(aggregate_module.aggregate(cluster, per, reducer).items())

    run_everyway(go, [])


@settings(max_examples=25, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 30), st.integers(-1000, 1000)), max_size=80
    ),
    reducer=st.sampled_from(["sum", "min", "max"]),
)
def test_aggregate_differential(pairs, reducer):
    _aggregate_everyway(pairs, reducer)


@settings(max_examples=15, deadline=None)
@given(
    flags=st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=60)
)
def test_aggregate_or_differential(flags):
    _aggregate_everyway(flags, "or")


#: Leaves of one field: each strategy gives values of one type.
_LEAVES = {
    "int": st.integers(-(2**40), 2**40),
    "small": st.integers(-3, 3),
    "float": st.floats(-4.0, 4.0, allow_nan=False).map(lambda x: round(x, 1)),
    "bool": st.booleans(),
}


@st.composite
def _pair_lists(draw):
    """Pairs whose key and value are scalars or flat tuples, one type per
    field, and a named reducer that reduces those values exactly."""
    reducer = draw(st.sampled_from(["sum", "min", "max", "or"]))
    allowed = {"sum": ["int", "small"], "or": ["int", "small", "bool"]}.get(
        reducer, list(_LEAVES)
    )
    key_types = draw(st.lists(st.sampled_from(["small", "bool", "float"]), min_size=1, max_size=3))
    value_types = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=4))

    def side(types):
        leaves = st.tuples(*(_LEAVES[t] for t in types))
        return leaves.map(lambda t: t[0]) if len(types) == 1 else leaves

    pairs = draw(st.lists(st.tuples(side(key_types), side(value_types)), max_size=60))
    return pairs, reducer


@settings(max_examples=60, deadline=None)
@given(case=_pair_lists(), holders=st.integers(1, NUM_SMALL))
def test_aggregate_of_several_columns_differential(case, holders):
    """Keys and values of one to four int, float or bool columns: the
    typed aggregate answers, charges and orders what the object aggregate
    does, ``"sum"`` and ``"or"`` element-wise and ``"min"``/``"max"`` on
    whole value tuples."""
    pairs, reducer = case
    _aggregate_everyway(pairs, reducer, holders)


#: One input per class the typed path refuses, with its error.
_REFUSED = {
    "callable": ([(1, 2)], lambda a, b: a + b, TypeError, "named reducer"),
    "float-sum": ([(1, 0.5)], "sum", TypeError, "'sum' over floats"),
    "bool-sum": ([(1, True)], "sum", TypeError, "'sum' over bools"),
    "float-or": ([(1, 0.5)], "or", TypeError, "'or' takes ints or bools"),
    "sum-past-guard": ([(1, 2**61), (2, -(2**61))], "sum", OverflowError, "could leave int64"),
    "int-past-int64": ([(2**63, 1)], "min", OverflowError, "outside int64"),
    "ragged": ([(1, (1, 2)), (2, (3,))], "min", TypeError, "flat tuples of one width"),
    "nested": ([(1, (1, (2, 3)))], "max", TypeError, "must be flat"),
    "non-scalar": ([(1, None)], "min", TypeError, "not NoneType"),
    "label": ([("a", 1)], "max", TypeError, "not str"),
    "mixed": ([(1, 1), (2, 2.5)], "min", TypeError, "mixes float, int"),
    "non-finite": ([(1, float("inf"))], "min", TypeError, "non-finite float"),
    "not-a-pair": ([(1, 2, 3)], "min", TypeError, "(key, value) tuples"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED))
def test_aggregate_refuses_what_its_columns_cannot_hold(case):
    """Each refused input raises before any round and leaves every
    machine's usage as it was."""
    pairs, reducer, error, message = _REFUSED[case]
    cluster = make_cluster()
    cluster.smalls[0].put("keep", [1, 2, 3])
    per = {
        machine.machine_id: pairs[i::NUM_SMALL]
        for i, machine in enumerate(cluster.smalls)
    }
    usage = cluster.usage.copy()
    with pytest.raises(error, match=re.escape(message)):
        aggregate_module.aggregate(cluster, per, reducer)
    assert cluster.ledger.rounds == 0 and not cluster.ledger.records
    assert np.array_equal(cluster.usage, usage)


@settings(max_examples=25, deadline=None)
@given(
    records=st.lists(
        st.tuples(st.integers(0, 25), st.integers(0, 10**6)), max_size=80
    ),
    shift=st.sampled_from([0, 2**70]),
)
def test_dedup_differential(records, shift):
    """Keys past int64 (*shift*) ride an object key column."""
    records = [(key + shift, weight) for key, weight in records]

    def go(cluster):
        distribute(cluster, "r", records)
        dedup_lightest(cluster, "r", key=(0,), weight=(1,))
        return None

    run_everyway(go, ["r"])


#: Sorted-mode keys: a float column never packs.  Few distinct values, so
#: rows equal splitters and splitters repeat; -0.0 and 0.0 tie.
_sorted_floats = st.sampled_from([-1.5, -0.0, 0.0, 0.5, 1e300])


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(-2, 2), _sorted_floats), max_size=70),
    key=st.sampled_from([(0, 1), (1, 0), (1,)]),
    holders=st.integers(1, NUM_SMALL),
    chunked=st.booleans(),
)
def test_sample_sort_sorted_mode_differential(rows, key, holders, chunked):
    """Sorted-mode bucketing (one lexsort of rows and splitters; a float
    key column never packs) against the oracle's per-item bisect: rows
    equal to splitters, duplicate splitters, mixed int/float key columns,
    a float key that leaves the int column out (ties between distinct
    rows), -0.0 vs 0.0 (compared by repr, which tells them apart), a
    machine whose rows all land in one bucket (chunked key ranges) and
    machines left empty."""
    if chunked:
        rows = sorted(rows)
        size = -(-len(rows) // holders) if rows else 1
        shares = [rows[i * size:(i + 1) * size] for i in range(holders)]
    else:
        shares = [rows[i::holders] for i in range(holders)]

    def fill(cluster):
        for machine, share in zip(cluster.smalls, shares + [[]] * NUM_SMALL):
            machine.put("e", list(share))

    def go(cluster):
        fill(cluster)
        layout = sort_module.sample_sort(cluster, "e", key=key)
        return layout.counts, repr([list(m.get("e", [])) for m in cluster.smalls])

    run_everyway(go, ["e"], sorted_names=["e"])


# ----------------------------------------------------------------------
# The columnar rank step: curated sorts into the one cluster-wide pass
# ----------------------------------------------------------------------

#: Capacities of 64 words under an enforcing throttle: a sort's route
#: no longer fits one round, so bucket machines receive several blocks.
_SPLIT_CONFIG = ModelConfig(
    n=16, m=64, num_small=NUM_SMALL, constant=1.0, throttle="enforce"
)
#: A key span that packs alone but not beside a machine index.
_WIDE = 2**62


def _triples(seed: int, count: int) -> list[tuple[int, int, int]]:
    rng = random.Random(seed)
    return [
        (rng.randrange(50), rng.randrange(40), rng.randrange(10**6))
        for _ in range(count)
    ]


_RANK_CASES = {
    # (a) the throttle splits the route across rounds
    "split-route": (_SPLIT_CONFIG, _triples(3, 120), (0, 1, 2)),
    # (b) one key value: every row lands in the last bucket
    "empty-buckets": (None, [(5, i, -i) for i in range(40)], (0,)),
    # (c) (machine, key) does not fit int64: the lexsort fallback
    "wide-composite": (
        None,
        [(0, 0), (_WIDE - 1, 1)]
        + [((i * 7919) % 97 * (_WIDE // 97), i) for i in range(2, 60)],
        (0,),
    ),
    # (d) a float column: every row rides the float64 transport
    "float-transport": (None, [(i % 5, i / 4, -i) for i in range(60)], (0,)),
    # (e) an int past 2**52 beside a float column: the object transport
    "object-transport": (
        None, [(i % 5, i / 4, 2**60 + i) for i in range(60)], (0,)),
    # (f) ints past int64: an object key column, bucketed in key order
    "object-column": (
        None, [(i % 5, 2**70 + (i * 37) % 61, -i) for i in range(60)], (1, 0, 2)),
    # (g) a float key that leaves two columns out, ties between distinct
    # rows, and the throttle splits the route: the sorted-mode buckets go
    # back to arrival order, so the split runs are the oracle's
    "partial-float-split": (
        _SPLIT_CONFIG, [((i * 7) % 5 / 2, i % 3, -i) for i in range(120)], (0,)),
    # (h) flow labels beside the key: one list scatter of row tuples per
    # machine, split by the throttle
    "label-transport": (
        _SPLIT_CONFIG,
        [(i % 7, i, FlowLabel(((i % 3, 0.5),) * (i % 4))) for i in range(120)],
        (0,),
    ),
}


@pytest.mark.parametrize("case", sorted(_RANK_CASES))
def test_sample_sort_rank_differential(case):
    config, rows, key = _RANK_CASES[case]
    route_inboxes: list[dict] = []

    def go(cluster):
        distribute(cluster, "e", rows)
        execute = cluster.execute

        def spy(plan):
            inboxes = execute(plan)
            if plan.note.endswith("/route"):
                route_inboxes.append({dst: len(got) for dst, got in inboxes.items()})
            return inboxes

        cluster.execute = spy
        return sort_module.sample_sort(cluster, "e", key=key).counts

    columns, _ = columnar.concat_columns(
        ingest_datasets(rows[i::NUM_SMALL] for i in range(NUM_SMALL))
    )
    packed = pack_columns([columns[f] for f in key]) is not None
    _, ledger, _, counts = run_everyway(go, ["e"], config, sorted_names=["e"])
    columnar_route = route_inboxes[-1]  # PATHS runs the columnar side last
    if config is _SPLIT_CONFIG:
        assert sum(entry[1].endswith("/route") for entry in ledger) > 1
    if case == "split-route":
        assert max(columnar_route.values()) > 1  # several blocks
    elif case == "empty-buckets":
        assert counts.count(0) == NUM_SMALL - 1
    elif case == "wide-composite":
        span = int(columns[0].max()) - int(columns[0].min()) + 1
        assert packed and 2 * span >= 2**63
        assert any(counts[1:])  # a machine index >= 1 receives rows
    elif case == "float-transport":
        assert columnar.transport_dtype(columns) is np.float64
    elif case in ("object-transport", "object-column"):
        assert columnar.transport_dtype(columns) is object
        if case == "object-column":
            assert not packed and columns[1].dtype == object
    elif case == "partial-float-split":
        assert not packed and len({row[0] for row in rows}) < len(rows)
    else:
        assert not columnar.scalar_column(columns[2])


def test_edgestore_sort_differential():
    """``EdgeStore.sort`` (the gamma ablation's ``key=2`` over a placed
    store) on both sorts."""
    rows = _triples(5, 90)

    def go(cluster):
        return EdgeStore.create(cluster, rows, name="e").sort(key=2).counts

    run_everyway(go, ["e"], sorted_names=["e"])


def test_sample_sort_rejects_what_it_cannot_sort():
    """Rows that are not tuples of one width and keys over a column of
    labels raise TypeError, and a key past the last column ValueError,
    before any round and leaving the dataset in place."""
    cases = [
        ([(1, 2), (3,)], 0, TypeError, "not tuples of one width"),
        ([[1, 2], [3, 4]], 0, TypeError, "not tuples of one width"),
        ([(1, FlowLabel(())), (2, FlowLabel(()))], (1,), TypeError, "finite ints"),
        ([(1, None), (2, 3)], (0, 1), TypeError, "finite ints"),
        ([(1, float("nan")), (2, 0.5)], 1, TypeError, "finite ints"),
        ([(1, 2), (3, 4)], (0, 2), ValueError, "outside the 2 columns"),
        ([(1, 2), (3, 4)], -1, ValueError, "outside the 2 columns"),
    ]
    for rows, key, error, message in cases:
        cluster = make_cluster()
        distribute(cluster, "e", rows)
        before = [m.get("e") for m in cluster.smalls]
        with pytest.raises(error, match=message):
            sort_module.sample_sort(cluster, "e", key=key)
        assert cluster.ledger.rounds == 0
        assert [m.get("e") for m in cluster.smalls] == before


# ----------------------------------------------------------------------
# Scenario-matrix differentials: join / arrange
# ----------------------------------------------------------------------

def _gen_edges(n_vertices, n_edges, seed, weighted=False, float_w=False):
    rng = random.Random(seed)
    seen = set()
    while len(seen) < n_edges:
        u, v = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if u != v:
            seen.add((min(u, v), max(u, v)))
    edges = sorted(seen)
    if weighted:
        if float_w:
            return [(u, v, rng.random()) for u, v in edges]
        return [(u, v, rng.randrange(1000)) for u, v in edges]
    return edges


_NV = 40
#: ``(edges, values, default, shape)``; *shape* is what the columnar run
#: stores: an EdgeBlock on every non-empty machine, from the sorts to the
#: output, whose value columns are typed (``"block"``) or ``object``
#: columns (``"object"``), or nothing (``"empty"``).
_JOIN_CASES = {
    # int values, complete map (the rename pattern; default never used)
    "int-complete": (
        _gen_edges(_NV, 90, 1), {v: v * 3 for v in range(_NV)}, None, "block"),
    # bool values with a default (the matching-flag pattern)
    "bool-default": (
        _gen_edges(_NV, 70, 2), {v: True for v in range(0, _NV, 3)}, False,
        "block"),
    # default=None actually delivered: ints and None in an object column
    "none-fallback": (
        _gen_edges(_NV, 70, 2), {v: v for v in range(0, _NV, 2)}, None, "object"),
    # tuple values (the MIS statuses, palettes and masks pattern)
    "tuple-fallback": (
        _gen_edges(_NV, 60, 3), {v: (v, v + 1) for v in range(_NV)}, (0, 0),
        "object"),
    # flow labels, and None for vertices without one (the KKT filter)
    "flow-labels": (
        _gen_edges(_NV, 70, 16),
        {v: FlowLabel(((v % 3, v / 4),) * (v % 4)) for v in range(0, _NV, 3)},
        None, "object"),
    # modified Baswana–Sen's vertex labels
    "vertex-labels": (
        _gen_edges(_NV, 70, 17),
        {v: VertexLabel(v % 3, tuple(range(v % 3))) for v in range(_NV)},
        None, "object"),
    # weighted edges widen the flat representation
    "weighted": (
        _gen_edges(_NV, 80, 4, weighted=True),
        {v: v % 7 for v in range(_NV)}, 0, "block"),
    # float edge weights force the sorted (non-packed) sort mode
    "float-weights": (
        _gen_edges(_NV, 80, 5, weighted=True, float_w=True),
        {v: v % 7 for v in range(_NV)}, 0, "block"),
    # float values ride a float64 value column
    "float-values": (
        _gen_edges(_NV, 60, 6), {v: v / 8 for v in range(_NV)}, 0.0, "block"),
    # mixed scalar value types ride an object value column
    "mixed-types": (
        _gen_edges(_NV, 70, 7),
        {0: True, 1: 5, **{v: v for v in range(2, _NV)}}, 0, "object"),
    # the low machines' values are all bools and the high machines' all
    # ints: one cluster-wide object column holds them
    "per-machine-dtypes": (
        _gen_edges(_NV, 70, 10),
        {v: (v % 2 == 0 if v < _NV // 2 else v) for v in range(_NV)}, 0,
        "object"),
    # edges stored as (u, v) with u > v: the copy at v sorts first, so
    # value_u comes from the second copy of each pair
    "reversed-edges": (
        [(v, u, w) for u, v, w in _gen_edges(_NV, 70, 11, weighted=True)],
        {v: v * 5 for v in range(_NV)}, None, "block"),
    # self-loops pair their two copies at the same source
    "self-loops": (
        _gen_edges(_NV, 50, 9) + [(v, v) for v in range(0, _NV, 7)],
        {v: -v for v in range(_NV)}, 0, "block"),
    "empty": ([], {0: 1}, None, "empty"),
    "single-edge": ([(5, 9)], {5: 1, 9: 2}, None, "block"),
    # weights past int64 ride an object column, in blocks on both paths
    "object-column": (
        [(u, v, 2**70 + w) for u, v, w in _gen_edges(_NV, 60, 8, weighted=True)],
        {v: v % 5 for v in range(_NV)}, 0, "block"),
}


def _columnar_join(edges, values, default):
    """Run the join on the columnar side; returns the cluster and every
    non-empty dataset of directed copies that step 4 took off a machine —
    after the boundary round, so receivers are among them."""
    cluster = make_cluster()
    distribute(cluster, "edges", edges)
    zipped = []
    pop = Machine.pop

    def spy(machine, name, default=None):
        data = pop(machine, name, default)
        if name == "annotated__directed" and data is not None and len(data):
            zipped.append(data)
        return data

    with mock.patch.object(Machine, "pop", spy):
        annotate_edges_with_vertex_values(
            cluster, "edges", values, "annotated", default=default
        )
    return cluster, zipped


@pytest.mark.parametrize("case", sorted(_JOIN_CASES))
def test_join_differential(case):
    edges, values, default, shape = _JOIN_CASES[case]

    def go(cluster):
        distribute(cluster, "edges", edges)
        annotate_edges_with_vertex_values(
            cluster, "edges", values, "annotated", default=default
        )
        return None

    datasets = run_everyway(go, ["annotated"])[0]
    # One flat row (*edge, value_u, value_v) per input edge.
    rows = [row for data in datasets.values() for row in data]
    assert sorted(row[:-2] for row in rows) == sorted(edges)
    for row in rows:
        assert row[-2:] == (values.get(row[0], default), values.get(row[1], default))

    cluster, zipped = _columnar_join(edges, values, default)
    outputs = [data for m in cluster.smalls if len(data := m.get("annotated"))]
    if shape == "empty":
        assert not outputs
        return
    # Blocks from the sorts to the output: no machine, receivers of the
    # boundary round included, turned its copies into tuples.
    assert zipped and all(isinstance(data, EdgeBlock) for data in zipped)
    assert outputs and all(isinstance(data, EdgeBlock) for data in outputs)
    assert all(
        [col.dtype.kind == "O" for col in data.columns[-2:]] == [shape == "object"] * 2
        for data in outputs
    )


def test_join_boundary_copy_lands_on_a_receiving_block():
    """The int-complete case moves copies in its boundary round, and every
    receiver keeps its copies as one block."""
    edges, values, default, _ = _JOIN_CASES["int-complete"]
    cluster, zipped = _columnar_join(edges, values, default)
    boundary = [r for r in cluster.ledger.records if r.note == "annotate/boundary"]
    assert boundary and boundary[0].items > 0
    assert all(isinstance(data, EdgeBlock) for data in zipped)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_join_rejects_nested_edge_fields(path):
    """Edge records must be flat rows of scalars: a nested field (the
    clustering graphs' old ``(c1, c2, (scale, (u, v)))`` shape) raises a
    TypeError naming the dataset on both paths, before any round."""
    cluster = make_cluster()
    distribute(cluster, "edges", [(u, v, (u % 3, (u, v))) for u, v in _gen_edges(_NV, 30, 8)])
    with PATHS[path](), pytest.raises(TypeError, match="dataset 'edges'"):
        annotate_edges_with_vertex_values(cluster, "edges", {}, "annotated")
    assert cluster.ledger.rounds == 0


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("copies", [2, 3])
@pytest.mark.parametrize(
    "edge, other", [((0, 1), (1, 2)), ((0, 1, 5), (2, 3, 1))], ids=["plain", "weighted"]
)
def test_join_rejects_duplicate_edges(path, copies, edge, other):
    """Two or three copies of an edge keep the total even, so only the
    pair check sees them: both paths raise a ProtocolError naming the
    edge instead of a KeyError or a wrong value."""
    cluster = make_cluster()
    distribute(cluster, "edges", [edge] * copies + [other])
    with PATHS[path](), pytest.raises(
        ProtocolError, match=rf"edge {re.escape(str(edge))} has copies at sources 0 and 0"
    ):
        annotate_edges_with_vertex_values(
            cluster, "edges", {0: 0, 1: 10, 2: 20, 3: 30}, "annotated"
        )


_ARRANGE_CASES = {
    # field-spec secondary on an int weight: packed sort mode
    "weight-spec": (_gen_edges(_NV, 80, 11, weighted=True), 2),
    # huge ranks overflow packing -> sorted-mode buckets, partial key
    "big-ranks": (
        [(u, v, random.Random(u * 97 + v).randrange(2**60))
         for u, v in _gen_edges(_NV, 80, 12)], 2),
    # ranks past int64 (matching phase 2 at n >= 6,209): an object column
    "object-ranks": (
        [(u, v, random.Random(u * 89 + v).randrange(10**20))
         for u, v in _gen_edges(_NV, 80, 15)], 2),
    # default secondary: the full edge tuple
    "default": (_gen_edges(_NV, 80, 13, weighted=True), None),
    "unweighted-default": (_gen_edges(_NV, 80, 14), None),
    "empty": ([], 2),
}


@pytest.mark.parametrize("case", sorted(_ARRANGE_CASES))
def test_arrange_differential(case):
    edges, secondary = _ARRANGE_CASES[case]

    def go(cluster):
        distribute(cluster, "edges", edges)
        arrangement = arrange_directed(
            cluster, "edges", "edges.dir", secondary_key=secondary
        )
        # Callers get the flat rows (src, dst, *edge): both orientations
        # of every edge.
        rows = [row for m in cluster.smalls for row in m.get("edges.dir", [])]
        assert sorted(rows) == sorted(
            copy for e in edges for copy in ((e[0], e[1], *e), (e[1], e[0], *e))
        )
        return (
            sorted(arrangement.out_degrees.items()),
            sorted(arrangement.holders.items()),
            arrangement.layout.counts,
        )

    run_everyway(go, ["edges.dir"])


def _star_edges():
    """Vertex 0 is adjacent to every other vertex, so its rows span several
    machines; weights are unique."""
    rng = random.Random(21)
    edges = sorted({(0, v) for v in range(1, _NV)} | set(_gen_edges(_NV, 12, 21)))
    weights = rng.sample(range(10**6), len(edges))
    return [(u, v, w) for (u, v), w in zip(edges, weights)]


def test_query_first_records_differential():
    """Section 3's query step after the array sort and after the oracle
    sort (whose tuple rows it ingests): the same queries, answers,
    rounds, words and memory marks — with a zero quota, quotas above the
    degree, vertices asking for nothing, and a vertex whose first rows
    span at least three machines."""
    edges = _star_edges()

    def go(cluster):
        distribute(cluster, "edges", edges)
        arrangement = arrange_directed(cluster, "edges", "edges.dir", secondary_key=2)
        degrees = arrangement.out_degrees
        assert len(arrangement.holders[0]) >= 3
        quotas = {v: (0, 1, 2, degrees[v] + 3)[v % 4] for v in degrees if v % 5}
        quotas[0] = degrees[0]
        assert 0 in quotas.values() and any(quotas[v] > degrees[v] for v in quotas)
        collected = query_first_records(
            cluster, arrangement, quotas, fields=(2, 3, 4, 1), notes=("q", "a")
        )
        assert sum(1 for row in collected if row[0] == 0) == degrees[0]
        return collected, [r.items for r in cluster.ledger.records[-2:]]

    run_everyway(go, ["edges.dir"])
    cluster = make_cluster()
    distribute(cluster, "edges", edges)
    arrange_directed(cluster, "edges", "edges.dir", secondary_key=2)
    assert all(isinstance(m.get("edges.dir"), EdgeBlock) for m in cluster.smalls)


def test_mst_differential():
    """Section 3's whole algorithm on both sorts: the Borůvka steps (the
    join, the query step, the rename and the dedup) after the oracle
    sort give the same forest, rounds, words and memory marks as after
    the array sort."""
    rng = random.Random(31)
    graph = generators.random_connected_graph(60, 600, rng).with_unique_weights(rng)
    results = {}
    for path, context in PATHS.items():
        with context():
            result = heterogeneous_mst(graph, rng=random.Random(5))
        ledger = result.cluster.ledger
        results[path] = (
            result.edges,
            [(r.note, r.total_words, r.max_sent, r.max_received, r.items)
             for r in ledger.records],
            ledger.memory_high_water,
        )
    assert result.boruvka_steps >= 2
    assert results["object"] == results["columnar"]


def _pipelines():
    """Whole algorithms whose sort-joins carry values that are not
    scalars: MIS prefix statuses, coloring palettes, the spanner's
    clustering masks, ``(i_u, mask)`` and ``(sigma, degree)`` tuples,
    and the MST's KKT flow labels (n = 300 keeps edges past the Borůvka
    steps)."""
    graph = generators.random_connected_graph(40, 240, random.Random(41))
    rng = random.Random(31)
    weighted = generators.random_connected_graph(300, 2400, rng).with_unique_weights(rng)
    return {
        "mst": lambda: heterogeneous_mst(weighted, rng=random.Random(5)),
        "mis": lambda: heterogeneous_mis(graph, rng=random.Random(42)),
        "coloring": lambda: heterogeneous_coloring(graph, rng=random.Random(43)),
        "spanner": lambda: heterogeneous_spanner(
            generators.gnm_random_graph(40, 500, random.Random(23)), k=3,
            rng=random.Random(3),
        ),
    }


@pytest.mark.parametrize("name", ["mis", "coloring", "spanner", "mst"])
def test_label_pipelines_differential(name):
    """The algorithms whose joins carry tuple values give the same
    answers, rounds, words, items and memory marks on the object sort as
    on the array sort, and their joins leave object value columns."""
    join = edgestore_module.annotate_edges_with_vertex_values
    value_kinds = set()

    def watched(cluster, edges_name, values, out_name, default=None, note="annotate"):
        join(cluster, edges_name, values, out_name, default=default, note=note)
        for machine in cluster.smalls:
            data = machine.get(out_name, [])
            if len(data):
                value_kinds.update(col.dtype.kind for col in data.columns[-2:])

    results = {}
    for path, context in PATHS.items():
        with context(), mock.patch.object(
            edgestore_module, "annotate_edges_with_vertex_values", watched
        ):
            result = _pipelines()[name]()
        ledger = result.cluster.ledger
        answer = {k: v for k, v in vars(result).items() if k != "cluster"}
        results[path] = (
            answer,
            [(r.note, r.total_words, r.max_sent, r.max_received, r.items)
             for r in ledger.records],
            ledger.memory_high_water,
        )
    assert results["object"] == results["columnar"]
    assert "O" in value_kinds


# ----------------------------------------------------------------------
# Kernel units: the columnar helpers vs per-item references
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(rows=edge_rows, fields=st.sampled_from([(0,), (2, 1), (0, 1, 2)]))
def test_stable_order_matches_python_sort(rows, fields):
    block = ingest_rows(rows)
    if block is None:
        assert not rows
        return
    order = stable_order(block, fields)
    expected = sorted(
        range(len(rows)), key=lambda i: tuple(rows[i][f] for f in fields)
    )
    assert list(order) == expected


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 2**61, 2**62 - 1])),
        max_size=40,
    ),
    fields=st.sampled_from([(0,), (1,), (1, 0)]),
    data=st.data(),
)
def test_stable_order_with_groups_matches_python_sort(rows, fields, data):
    """Groups are a primary key: the packed composite and, when
    ``group * span`` overflows int64, the lexsort fallback both give the
    permutation of Python's stable sort."""
    block = ingest_rows(rows)
    if block is None:
        return
    groups = np.array(
        data.draw(st.lists(st.integers(0, 5), min_size=len(rows), max_size=len(rows))),
        dtype=np.int64,
    )
    order = stable_order(block, fields, groups=groups)
    expected = sorted(
        range(len(rows)),
        key=lambda i: (int(groups[i]), *(rows[i][f] for f in fields)),
    )
    assert list(order) == expected


@pytest.mark.parametrize("span", [7, 2**40, 2**62])
@pytest.mark.parametrize("grouped", [False, True])
def test_stable_order_of_many_rows_matches_python_sort(span, grouped):
    """From a thousand rows on, one packed word sorts with its positions
    packed in when ``span * rows`` fits int64 (spans 7 and 2**40), by a
    stable argsort when it does not (2**62), and by a lexsort when the
    group does not pack with the key (2**62 with groups): either way
    Python's stable sort."""
    rng = random.Random(span)
    n = 3000
    keys = [rng.randrange(span) for _ in range(n)]
    block = EdgeBlock([np.array(keys, dtype=np.int64)])
    groups = np.array(sorted(rng.randrange(50) for _ in range(n)), dtype=np.int64)
    order = stable_order(block, [0], groups=groups if grouped else None)
    if grouped:
        expected = sorted(range(n), key=lambda i: (int(groups[i]), keys[i]))
    else:
        expected = sorted(range(n), key=keys.__getitem__)
    assert order.tolist() == expected


#: Column kinds for the packing kernel: narrow ints pack together, two
#: mid-span ints do not share a word, and an int64 column spanning 2**64
#: and a float column each stay a word of their own.
_WORD_VALUES = {
    "narrow": st.integers(-3, 3),
    "mid": st.sampled_from([-(2**40), 0, 2**40]),
    "wide": st.sampled_from([-(2**63), 0, 2**40, 2**63 - 1]),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 2.5]),
    "bool": st.booleans(),
}


@settings(max_examples=40, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(sorted(_WORD_VALUES)), min_size=1, max_size=5),
    data=st.data(),
)
def test_pack_words_preserve_row_order(kinds, data):
    """Rows compared word by word order as compared column by column:
    both a lexsort over the words and stable_order give Python's stable
    sort of the row tuples."""
    row = st.tuples(*(_WORD_VALUES[kind] for kind in kinds))
    rows = data.draw(st.lists(row, min_size=1, max_size=30))
    block = ingest_rows(rows)
    words = pack_words(block.columns)
    assert len(words) <= len(kinds)
    expected = sorted(range(len(rows)), key=lambda i: rows[i])
    assert list(np.lexsort(words[::-1])) == expected
    assert list(stable_order(block, range(len(kinds)))) == expected


@given(rows=edge_rows, splitters=st.lists(st.tuples(
    st.integers(-60, 60), st.integers(-5, 45), st.integers(-(10**6), 10**6)
), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_pack_columns_preserves_field_order(rows, splitters):
    block = ingest_rows(rows)
    if block is None:
        return
    packed = pack_columns(block.columns, extra_keys=splitters)
    # Extras given as one int64 array, a row per key (how sample sort
    # hands over its splitters), pack identically to the tuples.
    from_array = pack_columns(
        block.columns, extra_keys=np.array(splitters, dtype=np.int64)
    )
    if packed is None:  # spans overflowed; nothing to check
        assert from_array is None
        return
    packed_rows, packed_extras = packed
    assert np.array_equal(from_array[0], packed_rows)
    assert np.array_equal(from_array[1], packed_extras)
    assert from_array[1].dtype == packed_extras.dtype == np.int64
    ranks = sorted(range(len(rows)), key=lambda i: int(packed_rows[i]))
    expected = sorted(range(len(rows)), key=lambda i: rows[i])
    assert ranks == expected
    # Cross comparisons against packed extras stay exact.
    for i, row in enumerate(rows):
        for j, splitter in enumerate(splitters):
            assert (row < splitter) == bool(packed_rows[i] < packed_extras[j])


@settings(max_examples=30, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 12), st.integers(-500, 500)), min_size=1,
        max_size=50
    ),
    kind=st.sampled_from(["sum", "min", "max"]),
)
def test_reduce_pairs_matches_dict_loop(pairs, kind):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    (out_keys,), (out_values,), owners = reduce_pairs([keys], [values], kind)
    expected = aggregate_oracle.combine_pairs(pairs, aggregate_oracle.REDUCERS[kind])
    assert list(zip(out_keys.tolist(), out_values.tolist())) == expected
    assert owners is None


def test_machine_of_rank_many_matches_scalar():
    layout = SortLayout(machine_ids=(3, 5, 9), counts=(4, 0, 7))
    ranks = list(range(11))
    assert layout.machine_of_rank_many(ranks) == [
        layout.machine_ids[bisect.bisect_right(layout.offsets, r) - 1] for r in ranks
    ]
    assert layout.machine_of_rank_many([]) == []
    with pytest.raises(IndexError):
        layout.machine_of_rank_many([11])


def test_value_column_types():
    assert value_column([1, 2, 3]).dtype == np.int64
    assert value_column([True, False]).dtype == np.bool_
    assert value_column([0.5, 1.5]).dtype == np.float64
    # Everything else — ints past int64, mixed scalar types, strings,
    # non-finite floats, tuples, None, labels — rides a 1-D object column
    # of the values themselves.
    for values in (
        [2**63], [1, 2.5], [True, 1], [-(2**70), 0.5, False], [1, "x"],
        [float("nan")], [2**70, float("inf")], [(1, 2), (3, 4)], [1, None],
        [FlowLabel(((1, 0.5),)), None], [],
    ):
        column = value_column(values)
        assert column.dtype == object and column.shape == (len(values),)
        assert column.tolist() == values or values != values
        assert list(map(type, column.tolist())) == list(map(type, values))


def test_ingest_rows_rejects_unrepresentable():
    """Only rows that are not tuples of one width are refused; every field
    value rides a typed or an object column."""
    assert ingest_rows([(1, 2), (3, 4)]) is not None
    block = ingest_rows([(1, 2**64), (2, 3)])         # past int64: object
    assert [col.dtype for col in block.columns] == [np.int64, object]
    assert block.rows() == [(1, 2**64), (2, 3)] and block.word_size() == 4
    for rows in (
        [(1, float("inf"))], [(1, 2**70), (2, float("nan"))], [(1, "a")],
        [(1, (2, 3)), (4, (5, 6))], [(1, None)],
    ):
        block = ingest_rows(rows)
        assert block.columns[0].dtype == np.int64 and block.columns[1].dtype == object
        assert block.rows() == rows or rows != rows
    assert ingest_rows([]) is None
    assert ingest_rows([(1, 2), (3,)]) is None           # ragged
    assert ingest_rows([(1, 2), (3,), (4, 5, 6)]) is None
    assert ingest_rows([[1, 2]]) is None                 # non-tuple rows
    assert ingest_rows([()]) is None                     # no fields


def test_object_columns_charge_the_words_of_their_values():
    """A block charges what its rows charge as tuples: one word per row
    of a typed column, and word_size of each value of an object column
    (tuples by their leaves, labels by their own word_size)."""
    rows = [
        (1, (2, 3), FlowLabel(((0, 1.5), (4, 2.5))), None),
        (2, (4, 5, 6), FlowLabel(()), VertexLabel(1, (7,))),
        (3, (), FlowLabel(((9, 0.5),)), (1, (2, 3))),
    ]
    block = ingest_rows(rows)
    assert [col.dtype.kind for col in block.columns] == ["i", "O", "O", "O"]
    assert block.word_size() == word_size(rows) == 3 + 5 + 9 + 6
    assert block[1:].word_size() == word_size(rows[1:])
    machine = Machine(0, "small", capacity=100)
    machine.put("rows", block)
    assert machine.usage == word_size(rows)


def test_ingest_datasets_widen_fields_across_machines():
    """A field whose dtype differs between machines becomes an object
    column everywhere, so the blocks concatenate; a width mismatch or a
    row that is not a tuple anywhere gives None."""
    blocks = ingest_datasets([[(1, 2)], [], [(3, 2**70)], [(4, 0.5)], [(5, (6,))]])
    assert blocks[1] == []
    assert [[col.dtype for col in b.columns] for b in blocks if len(b)] == [
        [np.int64, object]] * 4
    assert [row for b in blocks for row in b] == [
        (1, 2), (3, 2**70), (4, 0.5), (5, (6,))]
    assert ingest_datasets([[(1, 2)], [(1, 2, 3)]]) is None
    assert ingest_datasets([[(1, 2)], [[1, 2]]]) is None


def test_stored_blocks_put_back_and_name_the_dataset():
    cluster = make_cluster()
    distribute(cluster, "e", [(i, i + 1) for i in range(9)])
    usage = [m.usage for m in cluster.smalls]
    blocks = columnar.stored_blocks(cluster.smalls, "e")
    assert all(m.get("e") is b for m, b in zip(cluster.smalls, blocks) if len(b))
    assert [m.usage for m in cluster.smalls] == usage   # the same words
    for bad in ([(i, "x") for i in range(9)], [(i, None) for i in range(9)]):
        distribute(cluster, "bad", bad)
        with pytest.raises(TypeError, match="dataset 'bad'"):
            columnar.stored_blocks(cluster.smalls, "bad")


# ----------------------------------------------------------------------
# Zero-length batches: no runs, no rounds, zero words
# ----------------------------------------------------------------------

def test_word_size_many_empty_arrays_are_zero_words():
    for dtype in (np.int64, np.float64, np.bool_, np.dtype("U4"), object):
        assert word_size_many(np.empty(0, dtype=dtype)) == 0


#: Row forms a machine hands the engine: Python objects or numpy arrays.
FORMS = ("pure", "numpy")


@pytest.mark.parametrize("form", FORMS)
def test_send_indexed_empty_arrays_open_no_run(form):
    """An empty destination column opens no run, with no object items
    from one source or a zero-row block from an empty source column."""
    import numpy as np

    cluster = make_cluster()
    plan = RoundPlan("empty-scatter")
    if form == "pure":
        src, items = cluster.small_ids[0], []
    else:
        src, items = np.empty(0, dtype=np.int64), np.empty((0, 3), dtype=np.int64)
    plan.send_indexed(src, np.empty(0, dtype=np.int64), items)
    assert plan.is_empty
    rounds_before = cluster.ledger.rounds
    cluster.execute(plan)
    # An all-empty plan costs no communication round.
    assert cluster.ledger.rounds == rounds_before


@pytest.mark.parametrize("form", FORMS)
def test_empty_cluster_primitives_cost_identically(form):
    """sample_sort/aggregate on machines holding nothing — empty lists or
    zero-row blocks: the columnar path must neither crash nor charge
    differently than the object path."""
    def empty():
        if form == "pure":
            return []
        return EdgeBlock([np.empty(0, dtype=np.int64)] * 2)

    def go(path):
        cluster = make_cluster()
        for machine in cluster.smalls:
            machine.put("e", empty())
        with PATHS[path]():
            layout = sort_module.sample_sort(cluster, "e", key=(0, 1))
            result = aggregate_module.aggregate(
                cluster, {m.machine_id: empty() for m in cluster.smalls}, "sum"
            )
        return snapshot(cluster, ["e"]) + (layout.counts, sorted(result))

    assert go("object") == go("columnar")


@settings(max_examples=30, deadline=None)
@given(
    groups=st.lists(
        st.lists(
            st.tuples(st.integers(-3, 12), st.integers(-500, 500)), max_size=12
        ),
        min_size=1, max_size=8,
    ),
    kind=st.sampled_from(["sum", "min", "max"]),
)
def test_grouped_reduce_pairs_matches_one_call_per_group(groups, kind):
    """One grouped reduce over (holder, key) gives every holder's results
    in holder order, each as its own reduce_pairs call would."""
    holders = [7 * i + 3 for i in range(len(groups))]  # ascending, gapped
    keys = np.array([k for g in groups for k, _ in g], dtype=np.int64)
    values = np.array([v for g in groups for _, v in g], dtype=np.int64)
    owner = np.repeat(np.array(holders, dtype=np.int64), [len(g) for g in groups])
    (out_keys,), (out_values,), out_owner = reduce_pairs(
        [keys], [values], kind, groups=owner
    )
    expected = []
    for holder, pairs in zip(holders, groups):
        (k,), (v,), _ = reduce_pairs(
            [np.array([k for k, _ in pairs], dtype=np.int64)],
            [np.array([v for _, v in pairs], dtype=np.int64)],
            kind,
        )
        expected.extend(zip([holder] * len(k), k.tolist(), v.tolist()))
    assert list(zip(out_owner.tolist(), out_keys.tolist(), out_values.tolist())) == expected


def test_grouped_reduce_pairs_past_int64_packing():
    """Keys whose span cannot pack with the holder take the lexsort."""
    keys = np.array([2**62, -(2**62), 2**62, 5, 5], dtype=np.int64)
    values = np.array([1, 2, 3, 4, 5], dtype=np.int64)
    owner = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    (out_keys,), (out_values,), out_owner = reduce_pairs(
        [keys], [values], "sum", groups=owner
    )
    assert [a.tolist() for a in (out_keys, out_values, out_owner)] == [
        [2**62, -(2**62), 5], [4, 2, 9], [0, 0, 1]
    ]
