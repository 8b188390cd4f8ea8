"""Claim 4 arrangement, the sort-join annotation, and distributed dedup."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.mpc import Cluster, ModelConfig
from repro.primitives.arrange import (
    arrange_directed,
    directed_rows,
    query_first_records,
)
from repro.primitives.columnar import EdgeBlock
from repro.primitives.dedup import dedup_lightest
from repro.primitives.edgestore import EdgeStore
from repro.primitives.join import annotate_edges_with_vertex_values


def make_cluster(n=40, m=200) -> Cluster:
    return Cluster(ModelConfig.heterogeneous(n=n, m=m), rng=random.Random(6))


def weighted_graph(n=40, m=200, seed=8):
    rng = random.Random(seed)
    return generators.random_connected_graph(n, m, rng).with_unique_weights(rng)


# ----------------------------------------------------------------------
# arrange_directed
# ----------------------------------------------------------------------
def test_arrange_sorts_by_source_then_secondary_key():
    cluster = make_cluster()
    g = weighted_graph()
    cluster.distribute_edges(g.edges, name="edges")
    arrange_directed(cluster, "edges", "directed", secondary_key=2)
    previous = None
    for machine in cluster.smalls:
        for src, dst, *edge in machine.get("directed", []):
            assert {src, dst} == {edge[0], edge[1]}
            key = (src, edge[2])
            assert previous is None or key >= previous
            previous = key


def test_arrange_rejects_a_callable_secondary_key():
    cluster = make_cluster()
    cluster.distribute_edges(weighted_graph().edges, name="edges")
    with pytest.raises(TypeError, match="secondary_key"):
        arrange_directed(cluster, "edges", "directed", secondary_key=lambda e: e[2])
    with pytest.raises(ValueError, match="outside the 3 edge columns"):
        arrange_directed(cluster, "edges", "directed", secondary_key=3)


def test_directed_rows_take_flat_scalar_records_only():
    """Edge fields past int64 or of mixed scalar types ride object columns;
    a string, nested or ragged record raises a TypeError naming the
    dataset."""
    cluster = make_cluster()
    cluster.distribute_edges([(0, 1, 2**70), (1, 2, 0.5)], name="edges")
    width, rows, counts = directed_rows(cluster, "edges", with_dst=False)
    assert width == 3
    assert sum(counts) == 4 and set(counts.tolist()) <= {0, 2}
    assert sorted(zip(*(col.tolist() for col in rows))) == [
        (0, 0, 1, 2**70), (1, 0, 1, 2**70), (1, 1, 2, 0.5), (2, 1, 2, 0.5),
    ]
    for name, edges in [
        ("strings", [(0, 1, "a"), (1, 2, "b")]),
        ("nested", [(0, 1, (5, (0, 1))), (1, 2, (5, (1, 2)))]),
        ("ragged", [(0, 1, 5), (1, 2)]),
    ]:
        cluster.distribute_edges(edges, name=name)
        with pytest.raises(TypeError, match=f"dataset {name!r}"):
            directed_rows(cluster, name)


def test_arrange_degrees_are_correct():
    cluster = make_cluster()
    g = weighted_graph()
    cluster.distribute_edges(g.edges, name="edges")
    arrangement = arrange_directed(cluster, "edges", "directed")
    truth = g.degrees()
    for v in range(g.n):
        assert arrangement.out_degrees.get(v, 0) == truth[v]


def test_arrange_holders_are_consecutive():
    cluster = make_cluster()
    g = weighted_graph()
    cluster.distribute_edges(g.edges, name="edges")
    arrangement = arrange_directed(cluster, "edges", "directed")
    for machines in arrangement.holders.values():
        # Sorted layout => a vertex's machines form a contiguous range.
        assert machines == list(range(machines[0], machines[-1] + 1))


def test_arrange_vertex_without_edges_has_no_holder():
    cluster = make_cluster()
    cluster.distribute_edges([(0, 1, 5)], name="edges")
    arrangement = arrange_directed(cluster, "edges", "directed")
    assert 39 not in arrangement.holders


@pytest.mark.parametrize("form", ["block", "tuples"])
def test_query_first_records_matches_brute_force(form):
    """Section 3's query step gathers exactly each vertex's first
    min(quota, degree) arranged rows, in row order: quotas above the
    degree, zero quotas and vertices missing from the quotas included.
    The "tuples" form hands it the arranged rows as tuples, with weights
    past int64, which it ingests into blocks with an object column."""
    cluster = make_cluster()
    edges = weighted_graph().edges
    if form == "tuples":
        edges = [(u, v, w + 2**70) for u, v, w in edges]
    cluster.distribute_edges(edges, name="edges")
    arrangement = arrange_directed(cluster, "edges", "directed", secondary_key=2)
    if form == "tuples":
        EdgeStore(cluster, "directed").local(list, "directed")
    datasets = [machine.get("directed", []) for machine in cluster.smalls]
    assert any(isinstance(data, EdgeBlock) for data in datasets) == (form == "block")
    rows = [row for data in datasets for row in data]
    degrees = arrangement.out_degrees
    vertices = sorted(degrees)
    quotas = {v: (0, 1, 3, degrees[v] + 2)[v % 4] for v in vertices[:-3]}

    positions: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        positions.setdefault(row[0], []).append(index)
    first = sorted(
        index for v, quota in quotas.items() for index in positions.get(v, [])[:quota]
    )
    expected = [(rows[i][0], rows[i][4], rows[i][1]) for i in first]
    assert any(quotas[v] > degrees[v] for v in quotas)
    assert any(quotas[v] == 0 for v in quotas)

    rounds = cluster.ledger.rounds
    collected = query_first_records(
        cluster, arrangement, quotas, fields=(4, 1), notes=("queries", "answers")
    )
    assert collected == expected
    assert cluster.ledger.rounds == rounds + 2
    assert all("directed" not in machine for machine in cluster.smalls)


# ----------------------------------------------------------------------
# annotate (sort-join)
# ----------------------------------------------------------------------
def test_annotate_attaches_both_endpoint_values():
    cluster = make_cluster()
    g = weighted_graph()
    cluster.distribute_edges(g.edges, name="edges")
    values = {v: f"tag{v}" for v in range(g.n)}
    annotate_edges_with_vertex_values(cluster, "edges", values, "out")
    records = cluster.all_items("out")
    assert len(records) == g.m
    for row in records:
        edge, value_u, value_v = row[:-2], row[-2], row[-1]
        assert value_u == f"tag{edge[0]}"
        assert value_v == f"tag{edge[1]}"


def test_annotate_uses_default_for_missing_vertices():
    cluster = make_cluster()
    cluster.distribute_edges([(0, 1), (1, 2)], name="edges")
    annotate_edges_with_vertex_values(
        cluster, "edges", {0: "x"}, "out", default="?"
    )
    records = {row[:-2]: row for row in cluster.all_items("out")}
    assert records[(0, 1)][-2] == "x" and records[(0, 1)][-1] == "?"
    assert records[(1, 2)][-2] == "?"


def test_annotate_leaves_source_dataset_untouched():
    cluster = make_cluster()
    g = weighted_graph()
    cluster.distribute_edges(g.edges, name="edges")
    before = sorted(cluster.all_items("edges"))
    annotate_edges_with_vertex_values(cluster, "edges", {}, "out", default=0)
    assert sorted(cluster.all_items("edges")) == before


def test_annotate_charges_constant_rounds():
    counts = []
    for m in (60, 600):
        cluster = make_cluster(n=60, m=m)
        rng = random.Random(m)
        g = generators.random_connected_graph(60, m, rng)
        cluster.distribute_edges(g.edges, name="edges")
        annotate_edges_with_vertex_values(
            cluster, "edges", {v: v for v in range(60)}, "out"
        )
        counts.append(cluster.ledger.rounds)
    # Constant-round: both runs stay under the fixed depth bound of the
    # sort + dissemination trees, far below anything growing with m.
    assert all(c <= 25 for c in counts)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_annotate_property_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(10, 30)
    m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2))
    g = generators.random_connected_graph(n, m, rng)
    cluster = Cluster(
        ModelConfig.heterogeneous(n=n, m=m), rng=random.Random(seed + 1)
    )
    cluster.distribute_edges(g.edges, name="edges")
    values = {v: v * v for v in range(n)}
    annotate_edges_with_vertex_values(cluster, "edges", values, "out")
    for row in cluster.all_items("out"):
        edge, vu, vv = row[:-2], row[-2], row[-1]
        assert vu == edge[0] ** 2 and vv == edge[1] ** 2


# ----------------------------------------------------------------------
# dedup_lightest
# ----------------------------------------------------------------------
def test_dedup_keeps_lightest_per_key():
    cluster = make_cluster()
    records = [(0, w) for w in (5, 3, 9)] + [(1, w) for w in (2, 7)]
    cluster.distribute_edges(records, name="data")
    dedup_lightest(cluster, "data", key=0, weight=1)
    assert sorted(cluster.all_items("data")) == [(0, 3), (1, 2)]


def test_dedup_handles_groups_spanning_machines():
    cluster = make_cluster()
    # One huge group: only the globally lightest survives.
    records = [(7, w) for w in range(100)]
    cluster.distribute_edges(records, name="data")
    dedup_lightest(cluster, "data", key=0, weight=1)
    assert cluster.all_items("data") == [(7, 0)]


def test_dedup_noop_on_unique_keys():
    cluster = make_cluster()
    records = [(i, i) for i in range(50)]
    cluster.distribute_edges(records, name="data")
    dedup_lightest(cluster, "data", key=0, weight=1)
    assert sorted(cluster.all_items("data")) == records


def test_dedup_parallel_contracted_edges():
    """The Borůvka use case: keep the lightest edge per contracted pair."""
    cluster = make_cluster()
    rng = random.Random(0)
    records = []
    for pair in [(0, 1), (0, 2), (1, 2)]:
        for w in rng.sample(range(100), 5):
            records.append((pair[0], pair[1], w))
    cluster.distribute_edges(records, name="data")
    dedup_lightest(cluster, "data", key=(0, 1), weight=2)
    result = sorted(cluster.all_items("data"))
    assert len(result) == 3
    by_pair = {(r[0], r[1]): r[2] for r in result}
    for pair in [(0, 1), (0, 2), (1, 2)]:
        expected = min(r[2] for r in records if (r[0], r[1]) == pair)
        assert by_pair[pair] == expected


def test_dedup_empty_dataset():
    cluster = make_cluster()
    cluster.distribute_edges([], name="data")
    dedup_lightest(cluster, "data", key=0, weight=1)
    assert cluster.all_items("data") == []
