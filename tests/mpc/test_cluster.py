"""Cluster construction, round semantics, capacity accounting."""

import random

import pytest

from repro.mpc import (
    Cluster,
    CommunicationLimitExceeded,
    MemoryLimitExceeded,
    ModelConfig,
    ProtocolError,
    RoundPlan,
)


def make_cluster(strict: bool = False, **kw) -> Cluster:
    config = ModelConfig.heterogeneous(n=64, m=256, strict=strict, **kw)
    return Cluster(config, rng=random.Random(0))


def ping(cluster: Cluster, note: str = "") -> None:
    """One round: machine 1 sends machine 2 a one-word payload."""
    cluster.execute(RoundPlan(note=note).send(1, 2, "ping"))


def test_machine_counts_match_config():
    cluster = make_cluster()
    assert len(cluster.smalls) == cluster.config.num_small
    assert len(cluster.larges) == 1
    assert cluster.large.is_large


def test_sublinear_cluster_has_no_large():
    config = ModelConfig.sublinear(n=64, m=256)
    cluster = Cluster(config)
    assert not cluster.larges
    with pytest.raises(ProtocolError):
        _ = cluster.large


def test_exchange_delivers_messages_and_counts_a_round():
    cluster = make_cluster()
    inboxes = cluster.execute(
        RoundPlan(note="t").send(0, 1, "hello").send(0, 2, (1, 2))
    )
    assert inboxes[1] == ["hello"]
    assert inboxes[2] == [(1, 2)]
    assert cluster.ledger.rounds == 1


def test_exchange_to_unknown_machine_raises():
    cluster = make_cluster()
    with pytest.raises(ProtocolError):
        cluster.execute(RoundPlan().send(0, 10**6, "x"))


def test_exchange_records_volumes():
    cluster = make_cluster()
    cluster.execute(RoundPlan().send(0, 1, (1, 2, 3)).send(2, 1, (4, 5, 6)))
    record = cluster.ledger.records[-1]
    assert record.total_words == 6
    assert record.max_received == 6
    assert record.max_sent == 3


def test_strict_mode_raises_on_capacity_violation():
    cluster = make_cluster(strict=True)
    capacity = cluster.smalls[1].capacity
    payload = [0] * (capacity + 1)
    with pytest.raises(CommunicationLimitExceeded):
        cluster.execute(RoundPlan().send(0, 1, payload))


def test_recording_mode_records_violation_instead():
    cluster = make_cluster(strict=False)
    capacity = cluster.smalls[1].capacity
    cluster.execute(RoundPlan().send(0, 1, [0] * (capacity + 1)))
    assert len(cluster.ledger.violations) >= 1


def test_gather_concentrates_items():
    cluster = make_cluster()
    large = cluster.large.machine_id
    got = cluster.gather(large, {0: [1, 2], 1: [3]}, note="g")
    assert sorted(got) == [1, 2, 3]
    assert cluster.ledger.rounds == 1


def test_scatter_distributes_items():
    cluster = make_cluster()
    large = cluster.large.machine_id
    inboxes = cluster.scatter(large, {0: ["a"], 1: ["b", "c"]})
    assert inboxes[0] == ["a"]
    assert sorted(inboxes[1]) == ["b", "c"]


def test_distribute_edges_places_everything_and_charges_no_rounds():
    cluster = make_cluster()
    edges = [(i, i + 1) for i in range(50)]
    cluster.distribute_edges(edges, name="e")
    assert sorted(cluster.all_items("e")) == sorted(edges)
    assert cluster.ledger.rounds == 0


def test_distribute_edges_is_balanced():
    cluster = make_cluster()
    edges = [(i, i + 1) for i in range(60)]
    cluster.distribute_edges(edges, name="e")
    counts = [len(m.get("e", [])) for m in cluster.smalls]
    assert max(counts) - min(counts) <= 1


def test_distribute_edges_without_small_machines_raises():
    cluster = make_cluster()
    cluster.smalls = []
    with pytest.raises(ProtocolError):
        cluster.distribute_edges([(1, 2)], name="e")


def test_memory_high_water_is_recorded_after_rounds():
    cluster = make_cluster()
    cluster.distribute_edges([(1, 2)] * 10, name="e")
    ping(cluster)
    assert max(cluster.ledger.memory_high_water.values()) > 0


# ----------------------------------------------------------------------
# Gather / scatter / all_items edge cases
# ----------------------------------------------------------------------
def test_gather_with_all_empty_sources_charges_no_round():
    cluster = make_cluster()
    large = cluster.large.machine_id
    got = cluster.gather(large, {0: [], 1: []}, note="g")
    assert got == []
    assert cluster.ledger.rounds == 0


def test_gather_skips_empty_sources_in_accounting():
    cluster = make_cluster()
    large = cluster.large.machine_id
    got = cluster.gather(large, {0: [], 1: [7], 2: []}, note="g")
    assert got == [7]
    record = cluster.ledger.records[-1]
    assert record.total_words == 1
    assert record.max_sent == 1


def test_scatter_with_empty_destinations_charges_no_round():
    cluster = make_cluster()
    large = cluster.large.machine_id
    assert cluster.scatter(large, {}) == {}
    assert cluster.scatter(large, {0: [], 1: []}) == {}
    assert cluster.ledger.rounds == 0


def test_gather_works_without_a_large_machine():
    config = ModelConfig.sublinear(n=64, m=256)
    cluster = Cluster(config, rng=random.Random(0))
    dst = cluster.small_ids[0]
    got = cluster.gather(dst, {cluster.small_ids[1]: ["x"],
                               cluster.small_ids[2]: ["y"]})
    assert sorted(got) == ["x", "y"]
    assert cluster.ledger.rounds == 1


def test_scatter_works_without_a_large_machine():
    config = ModelConfig.sublinear(n=64, m=256)
    cluster = Cluster(config, rng=random.Random(0))
    src = cluster.small_ids[0]
    inboxes = cluster.scatter(src, {cluster.small_ids[1]: ["a"]})
    assert inboxes[cluster.small_ids[1]] == ["a"]


def test_all_items_of_unknown_dataset_is_empty():
    cluster = make_cluster()
    assert cluster.all_items("never-placed") == []


def test_all_items_preserves_machine_order():
    cluster = make_cluster()
    cluster.smalls[0].put("d", [1, 2])
    cluster.smalls[2].put("d", [3])
    assert cluster.all_items("d") == [1, 2, 3]


# ----------------------------------------------------------------------
# Memory honesty
# ----------------------------------------------------------------------
def test_strict_mode_raises_when_small_machine_exceeds_small_capacity():
    """The model's second budget: a small machine hoarding more than
    ``small_capacity`` words must trip strict mode."""
    config = ModelConfig.heterogeneous(n=64, m=256, strict=True)
    cluster = Cluster(config, rng=random.Random(0))
    small = cluster.smalls[0]
    with pytest.raises(MemoryLimitExceeded):
        small.put("hoard", [0] * (config.small_capacity + 1))


def test_strict_mode_raises_at_round_if_memory_exceeded():
    """Even usage charged past ``put`` (straight into the cluster's usage
    vector, where scratch charges land) is caught by the per-round memory
    check of ``execute``."""
    cluster = make_cluster(strict=True)
    small = cluster.smalls[0]
    cluster.usage[small.machine_id] += small.capacity + 1  # bypass put() on purpose
    assert small.usage == small.capacity + 1
    with pytest.raises(MemoryLimitExceeded, match=f"machine {small.machine_id} holds"):
        ping(cluster)
    assert cluster.ledger.rounds == 0  # raised before the round was recorded


def test_nonstrict_mode_records_memory_violation_per_round():
    cluster = make_cluster(strict=False)
    small = cluster.smalls[0]
    small.put("hoard", [0] * (small.capacity + 5))
    ping(cluster, note="r1")
    ping(cluster, note="r2")
    memory_violations = [
        v for v in cluster.ledger.violations if "memory capacity" in v
    ]
    # Recorded once per round while the hoard persists, mirroring the
    # communication violations.
    assert len(memory_violations) == 2
    assert f"machine {small.machine_id} holds" in memory_violations[0]
    assert memory_violations[0] in cluster.ledger.records[0].violations
    assert cluster.ledger.summary()["violations"] == 2
    # Freeing the scratch state clears the signal.
    small.pop("hoard")
    ping(cluster, note="r3")
    assert len(cluster.ledger.records[2].violations) == 0


def test_oversized_input_placement_is_recorded():
    config = ModelConfig.heterogeneous(n=64, m=256)
    cluster = Cluster(config, rng=random.Random(1))
    per_machine = config.small_capacity + 8
    edges = [(0, 1)] * ((per_machine // 2) * config.num_small)
    cluster.distribute_edges(edges, name="e")
    assert any("memory capacity" in v for v in cluster.ledger.violations)


# ----------------------------------------------------------------------
# Placement stability
# ----------------------------------------------------------------------
def test_distribute_edges_placement_is_stable_against_rng_use():
    """Regression: the shuffle used to draw from the shared ``self.rng``,
    so any unrelated earlier RNG use shifted input placement."""
    edges = [(i, i + 1) for i in range(40)]

    def placement(burn_draws: int) -> list[list]:
        cluster = Cluster(ModelConfig.heterogeneous(n=64, m=256),
                          rng=random.Random(42))
        for _ in range(burn_draws):
            cluster.rng.random()  # unrelated earlier RNG use
        cluster.distribute_edges(edges, name="e")
        return [m.get("e", []) for m in cluster.smalls]

    assert placement(0) == placement(1) == placement(17)


def test_distribute_edges_placement_depends_on_cluster_seed():
    edges = [(i, i + 1) for i in range(40)]

    def placement(seed: int) -> list[list]:
        cluster = Cluster(ModelConfig.heterogeneous(n=64, m=256),
                          rng=random.Random(seed))
        cluster.distribute_edges(edges, name="e")
        return [m.get("e", []) for m in cluster.smalls]

    assert placement(1) != placement(2)  # still randomized across seeds
    assert placement(3) == placement(3)  # and reproducible per seed


# ----------------------------------------------------------------------
# The usage vector and scratch charges
# ----------------------------------------------------------------------
def test_machines_update_their_entry_of_the_usage_vector():
    cluster = make_cluster()
    small, large = cluster.smalls[1], cluster.large
    small.put("a", [1, 2, 3])
    large.put("b", [(1, 2)])
    small.put("a", [4])  # replaced, not added
    assert cluster.usage.tolist()[small.machine_id] == small.usage == 1
    assert cluster.usage.tolist()[large.machine_id] == large.usage == 2
    small.pop("a")
    assert small.usage == 0 and int(cluster.usage.sum()) == 2
    assert cluster.capacities.tolist() == [m.capacity for m in cluster.machines.values()]


def test_memory_marks_rise_where_usage_rose_in_machine_order():
    cluster = make_cluster()
    cluster.smalls[3].put("x", [1, 2])
    cluster.smalls[1].put("x", [1])
    ping(cluster)
    cluster.smalls[3].pop("x")
    cluster.smalls[0].put("x", [1, 2, 3, 4])
    ping(cluster)
    assert list(cluster.ledger.memory_high_water.items()) == [(1, 1), (3, 2), (0, 4)]


def test_scratch_charges_many_machines_and_releases_them():
    from repro.mpc.cluster import Scratch

    cluster = make_cluster()
    cluster.smalls[0].put("d", [1, 2])
    scratch = Scratch(cluster, "tree#cast-buffer")
    scratch.charge([0, 2], [5, 7])
    assert cluster.smalls[0].usage == 7 and cluster.smalls[2].usage == 7
    scratch.charge([2], [0])
    assert cluster.smalls[2].usage == 0
    scratch.release()
    assert cluster.usage.tolist()[:3] == [2, 0, 0]
    assert not any("#cast-buffer" in name for name in cluster.smalls[0].datasets())


def test_strict_scratch_charge_raises_like_a_put_of_the_buffer():
    from repro.mpc.cluster import Scratch

    cluster = make_cluster(strict=True)
    capacity = cluster.smalls[1].capacity
    cluster.smalls[1].put("d", [0] * (capacity - 3))
    scratch = Scratch(cluster, "t#cast-buffer")
    with pytest.raises(MemoryLimitExceeded) as raised:
        scratch.charge([0, 1, 2], [capacity + 1, 4, capacity + 1])
    # The first breach in the order given, as put() words it.
    assert str(raised.value) == (
        f"round 1 [t#cast-buffer]: machine 0 holds {capacity + 1} > memory "
        f"capacity {capacity} (storing {capacity + 1} words in dataset "
        "'t#cast-buffer' on the small machine)"
    )
    assert cluster.usage.tolist()[:3] == [0, capacity - 3, 0]  # nothing applied
    with pytest.raises(MemoryLimitExceeded, match="machine 1 holds"):
        scratch.charge([1], [4])
