"""GraphService: incremental state, validation, and differential replay.

The replay tests are the correctness contract of the whole serve stack:
after *any* prefix of signed update batches, the service's canonical
component labels must equal a from-scratch
:func:`repro.core.connectivity.sketch_components` run (same seed) on the
surviving edge multiset.  Likewise the MST-weight estimate must exactly
replay :func:`repro.core.mst_approx.approximate_mst_weight`.  The replay
tests run twice: on the array-native bank (``numpy``) and with the
service and the from-scratch pipeline both running on the pure-Python
list oracle of ``tests/sketch_oracle.py`` (``pure``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.core.connectivity as connectivity_module
import repro.serve.service as service_module
from repro.core.connectivity import sketch_components
from repro.core.mst_approx import approximate_mst_weight
from repro.graph.graph import Graph
from repro.mpc import Cluster, ModelConfig
from repro.primitives.edgestore import EdgeStore
from repro.serve import GraphService, ServeConfig, ServiceError
from repro.sketches import INT64_MAX
from sketch_oracle import (
    ListBank,
    list_boruvka,
    list_combine_blocks,
    list_partial_blocks,
)


def use_list_bank(monkeypatch) -> None:
    """Run the serve core and the connectivity pipeline on the oracle:
    list banks, per-machine partial builds, per-row merges and per-row
    inserts (sparse blocks only carry the rows between machines)."""
    for module in (service_module, connectivity_module):
        monkeypatch.setattr(module, "SketchBank", ListBank)
        monkeypatch.setattr(module, "bank_boruvka", list_boruvka)
    monkeypatch.setattr(connectivity_module, "build_sparse_blocks", list_partial_blocks)
    monkeypatch.setattr(connectivity_module, "combine_sparse_blocks", list_combine_blocks)


@pytest.fixture(params=["pure", "numpy"])
def backend(request, monkeypatch):
    if request.param == "pure":
        use_list_bank(monkeypatch)
    return request.param


def scratch_labels(n: int, seed: int, edges, copies: int = 3) -> list[int]:
    """From-scratch Theorem C.1 run on *edges* — the replay reference."""
    cluster = Cluster(
        ModelConfig.heterogeneous(n=n, m=max(4, len(edges))),
        rng=random.Random(987),
    )
    store = EdgeStore.create(cluster, list(edges), name="replay")
    return sketch_components(cluster, store, n, random.Random(seed), copies=copies)


def random_batches(n, rng, batches=4, per_batch=12):
    """A stream of insert/delete batches; deletes target live edges."""
    live: list[tuple[int, int]] = []
    stream = []
    for _ in range(batches):
        inserts = []
        for _ in range(per_batch):
            u, v = rng.randrange(n), rng.randrange(n)
            inserts.append((u, v))
            if u != v:
                live.append((min(u, v), max(u, v)))
        deletes = []
        for _ in range(min(len(live), per_batch // 2)):
            deletes.append(live.pop(rng.randrange(len(live))))
        stream.append((inserts, deletes))
    return stream


def test_differential_replay_after_every_prefix(backend):
    n, seed = 20, 11
    service = GraphService(ServeConfig(n=n, seed=seed, shards=3))
    for inserts, deletes in random_batches(n, random.Random(4)):
        service.update(insert=inserts, delete=deletes)
        surviving = [(u, v) for u, v, _ in service.surviving_edges()]
        reference = scratch_labels(n, seed, surviving)
        assert service.components().labels == reference


def test_replay_holds_with_multi_edges_and_loops(backend):
    n, seed = 12, 3
    service = GraphService(ServeConfig(n=n, seed=seed))
    # Parallel edges and self-loops stream through like anything else.
    service.update(insert=[(0, 1), (0, 1), (1, 0), (5, 5), (2, 7)])
    service.update(delete=[(0, 1)])
    surviving = [(u, v) for u, v, _ in service.surviving_edges()]
    assert surviving == [(0, 1), (0, 1), (2, 7), (5, 5)]
    assert service.components().labels == scratch_labels(n, seed, surviving)
    # Deleting the remaining multiplicity disconnects 0 and 1.
    service.update(delete=[(0, 1), (1, 0)])
    assert not service.connected(0, 1)
    assert service.components().labels == scratch_labels(
        n, seed, [(2, 7), (5, 5)]
    )


def test_backends_answer_identically(monkeypatch):
    """The service on the array bank and on the list oracle gives the
    same labels after every batch of one stream."""
    n, seed = 18, 9
    stream = random_batches(n, random.Random(8), batches=3)

    def labels_per_batch():
        service = GraphService(ServeConfig(n=n, seed=seed))
        views = []
        for inserts, deletes in stream:
            service.update(insert=inserts, delete=deletes)
            views.append(service.components().labels)
        return views

    array_views = labels_per_batch()
    use_list_bank(monkeypatch)
    assert labels_per_batch() == array_views


def test_mst_weight_replays_from_scratch_run(backend):
    n, seed, max_weight = 14, 6, 9
    rng = random.Random(1)
    edges, seen = [], set()
    while len(edges) < 20:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or (min(u, v), max(u, v)) in seen:
            continue
        seen.add((min(u, v), max(u, v)))
        edges.append((min(u, v), max(u, v), rng.randrange(1, max_weight + 1)))
    edges[0] = (edges[0][0], edges[0][1], max_weight)

    service = GraphService(ServeConfig(n=n, seed=seed, max_weight=max_weight))
    churn = [edges[3][0], edges[3][1], 2]
    service.update(insert=[list(e) for e in edges] + [churn])
    service.update(delete=[churn])
    got = service.mst_weight()

    reference = approximate_mst_weight(
        Graph(n=n, edges=tuple(edges), weighted=True),
        epsilon=0.5,
        rng=random.Random(seed),
        copies=3,
    )
    assert got["estimate"] == reference.estimate
    assert got["thresholds"] == reference.thresholds
    assert got["component_counts"] == [
        reference.component_counts[t] for t in reference.thresholds
    ]


def test_refresh_is_lazy_and_cached():
    service = GraphService(ServeConfig(n=8, seed=0))
    service.update(insert=[(0, 1), (1, 2)])
    assert service.refreshes == 0
    service.connected(0, 2)
    service.connected(1, 2)
    service.components()
    assert service.refreshes == 1  # one rebuild served all three queries
    service.update(insert=[(3, 4)])
    service.connected(3, 4)
    assert service.refreshes == 2


def test_update_batch_is_atomic_on_bad_delete():
    service = GraphService(ServeConfig(n=8, seed=0))
    service.update(insert=[(0, 1)])
    before = service.components().labels
    with pytest.raises(ServiceError, match="surviving"):
        service.update(insert=[(2, 3)], delete=[(4, 5)])
    # The rejected batch moved nothing — not even its inserts.
    assert service.surviving_edges() == [(0, 1, 1)]
    assert service.components().labels == before


def test_delete_must_match_weight():
    service = GraphService(ServeConfig(n=8, seed=0, max_weight=10))
    service.update(insert=[(0, 1, 5)])
    with pytest.raises(ServiceError, match="surviving"):
        service.update(delete=[(0, 1, 4)])


def test_validation_errors():
    service = GraphService(ServeConfig(n=8, seed=0))
    with pytest.raises(ServiceError, match="universe"):
        service.update(insert=[(0, 8)])
    with pytest.raises(ServiceError, match="weight"):
        service.update(insert=[(0, 1, 0)])
    with pytest.raises(ServiceError, match="u, v"):
        service.update(insert=[(0, 1, 2, 3)])
    with pytest.raises(ServiceError, match="universe"):
        service.connected(0, 99)
    with pytest.raises(ServiceError, match="max_weight"):
        service.mst_weight()
    with pytest.raises(ServiceError, match="exceeds"):
        GraphService(ServeConfig(n=8, seed=0, max_weight=5)).update(
            insert=[(0, 1, 6)]
        )


def test_config_validation():
    for bad in (
        dict(n=0),
        dict(n=4, copies=0),
        dict(n=4, shards=0),
        dict(n=4, max_weight=0),
        dict(n=4, epsilon=0.0),
    ):
        with pytest.raises(ServiceError):
            ServeConfig(**bad)


def test_insert_delete_churn_returns_to_empty_state():
    n, seed = 10, 2
    service = GraphService(ServeConfig(n=n, seed=seed, shards=2))
    edges = [(0, 1), (1, 2), (2, 3), (4, 5)]
    service.update(insert=edges)
    service.update(delete=edges)
    view = service.components()
    assert view.num_components == n
    assert view.labels == list(range(n))
    # All shard counters returned to exact zero by linearity.
    for shard in service._shards:
        assert not (shard.s0.any() or shard.s1.any() or shard.s2.any())


def test_stats_shape():
    service = GraphService(ServeConfig(n=8, seed=0, shards=2))
    service.update(insert=[(0, 1)])
    service.connected(0, 1)
    stats = service.stats()
    assert stats["edges"] == 1
    assert stats["updates_applied"] == 1
    assert stats["queries_answered"] == 1
    assert stats["refreshes"] == 1
    assert stats["shards"] == 2
    assert stats["forest_fresh"] is True
    assert stats["mst_enabled"] is False
    assert stats["sketch_words"] > 0


def test_stats_counts_the_threshold_banks():
    """A weighted service's sketch words include its weight-threshold
    banks, not only its shards."""
    service = GraphService(ServeConfig(n=12, seed=5, shards=3, max_weight=8))
    service.update(insert=[(0, 1, 3), (1, 2, 5), (5, 6, 8)])
    shard_words = sum(bank.word_size() for bank in service._shards)
    threshold_words = sum(bank.word_size() for bank in service._mst_banks)
    assert (len(service._mst_banks), shard_words, threshold_words) == (6, 2166, 4332)
    assert service.stats()["sketch_words"] == shard_words + threshold_words


def test_update_refuses_identity_sums_past_int64(monkeypatch):
    """At n = 3e9 every edge id is near 2^63, so two of them could
    overflow the merged bank's ``s1`` counters: the batch is refused as
    a ServiceError and nothing moves.  (``init`` refuses a refresh bank
    this large, so the cap is lifted to reach the update-time check.)"""
    monkeypatch.setattr(service_module, "MAX_REFRESH_WORDS", INT64_MAX)
    n = 3_000_000_000
    service = GraphService(ServeConfig(n=n, seed=0, copies=1))
    with pytest.raises(ServiceError, match="int64"):
        service.update(insert=[(n - 2, n - 1), (n - 3, n - 1)])
    assert service.surviving_edges() == []
    assert service.updates_applied == 0
    assert all(len(shard) == 0 for shard in service._shards)
    assert (n - 2) * n + n - 1 <= INT64_MAX  # one edge alone would fit


def test_one_signed_update_call_per_bank_per_batch(monkeypatch):
    """Each shard and threshold bank takes a batch's inserts and deletes
    in one signed call, and ends bit-identical to an insert call followed
    by a delete call per bank."""
    from repro.sketches import SketchBank, edge_id

    calls = []
    original = SketchBank.update_edges

    def counting(bank, edges, sign=1):
        calls.append(bank)
        return original(bank, edges, sign=sign)

    n, shards, max_weight = 20, 3, 8
    service = GraphService(ServeConfig(n=n, seed=4, shards=shards,
                                       max_weight=max_weight, epsilon=1.0))
    reference = GraphService(ServeConfig(n=n, seed=4, shards=shards,
                                         max_weight=max_weight, epsilon=1.0))
    banks = lambda s: s._shards + s._mst_banks  # noqa: E731
    rng = random.Random(12)
    for inserts, deletes in random_batches(n, rng, batches=3):
        inserts = [(u, v, 1 + (u + v) % max_weight) for u, v in inserts]
        deletes = [(u, v, 1 + (u + v) % max_weight) for u, v in deletes]
        monkeypatch.setattr(SketchBank, "update_edges", counting)
        service.update(insert=inserts, delete=deletes)
        monkeypatch.setattr(SketchBank, "update_edges", original)
        assert len(calls) == len(set(map(id, calls))) <= len(banks(service))
        calls.clear()
        # The two-call path: every bank takes its inserts, then its deletes.
        for batch, sign in ((inserts, 1), (deletes, -1)):
            per_bank: dict[int, list] = {}
            for u, v, w in batch:
                u, v = min(u, v), max(u, v)
                per_bank.setdefault(edge_id(n, u, v) % shards, []).append((u, v))
                for j, t in enumerate(reference.thresholds):
                    if w <= t:
                        per_bank.setdefault(shards + j, []).append((u, v))
            for index, edges in per_bank.items():
                banks(reference)[index].update_edges(edges, sign=sign)
        for got, want in zip(banks(service), banks(reference)):
            assert got.vertices == want.vertices
            assert got.s1_bound == want.s1_bound
            for counter in ("s0", "s1", "s2"):
                assert np.array_equal(getattr(got, counter), getattr(want, counter))
