"""The adaptive throttling layer: the mode setting, the controller's
peak-hold forecast, its hooks, and plan splitting."""

import random

import numpy as np
import pytest

from repro.mpc import (
    CapacityExceeded,
    Cluster,
    CommunicationLimitExceeded,
    MemoryLimitExceeded,
    ModelConfig,
    ProtocolError,
    ThrottleController,
    Violation,
)
from repro.mpc.plan import RoundPlan
from repro.mpc.throttle import HEADROOM, WINDOW
from repro.mpc.words import word_size


def one_round(cluster: Cluster, src: int, dst: int, payload, note: str = "") -> dict:
    """Run one round that sends *payload* from *src* to *dst*."""
    return cluster.execute(RoundPlan(note=note).send(src, dst, payload))


def _controller(mode="enforce") -> ThrottleController:
    return ThrottleController(mode, [100, 100])


# ----------------------------------------------------------------------
# The mode setting
# ----------------------------------------------------------------------
def test_policy_defaults_are_off():
    config = ModelConfig.heterogeneous(n=64, m=256)
    assert config.throttle == "off"
    assert Cluster(config, rng=random.Random(0)).throttle is None


@pytest.mark.parametrize("mode,enabled,enforcing", [
    ("off", False, False),
    ("advise", True, False),
    ("enforce", True, True),
])
def test_policy_mode_flags(mode, enabled, enforcing):
    config = ModelConfig.heterogeneous(n=64, m=256, throttle=mode)
    controller = Cluster(config, rng=random.Random(0)).throttle
    assert (controller is not None) is enabled
    if enabled:
        assert controller.mode == mode
        assert controller.enforcing is enforcing


@pytest.mark.parametrize("kw", [
    {"throttle": "on"},
    {"throttle": "Enforce"},
    {"throttle": "enforce "},
    {"throttle": ""},
    {"throttle": None},
    {"throttle": True},
    {"throttle": 1},
])
def test_policy_validation(kw):
    """The mode is one of three exact strings; anything else is refused
    when the config is built."""
    with pytest.raises(ValueError, match="unknown throttle mode"):
        ModelConfig(n=64, m=256, **kw)


def test_config_takes_the_throttle_mode_like_any_field():
    assert ModelConfig(n=64, m=256, throttle="advise").throttle == "advise"
    for regime in (ModelConfig.heterogeneous, ModelConfig.sublinear,
                   ModelConfig.near_linear):
        assert regime(n=64, m=256, throttle="enforce").throttle == "enforce"
    with pytest.raises(ValueError):
        ModelConfig.heterogeneous(n=64, m=256, throttle="on")


# ----------------------------------------------------------------------
# The peak-hold forecast
# ----------------------------------------------------------------------
def test_estimator_peak_hold_and_window_eviction():
    """A traffic peak holds the scale down for WINDOW (8) observed rounds
    and is then evicted."""
    controller = _controller()
    assert WINDOW == 8
    assert controller.scale() == 1.0  # nothing observed yet
    controller.observe(0.2, 0.0)
    controller.observe(1.8, 0.0)
    assert controller.scale() == pytest.approx(HEADROOM / 1.8)
    for _ in range(WINDOW - 1):
        controller.observe(0.1, 0.0)
        assert controller.scale() == pytest.approx(HEADROOM / 1.8)
    controller.observe(0.1, 0.0)  # WINDOW rounds after the peak: evicted
    assert controller.scale() == 1.0
    assert controller.observed_rounds == WINDOW + 2


# ----------------------------------------------------------------------
# Controller hooks
# ----------------------------------------------------------------------


def test_scale_is_unity_inside_headroom():
    controller = _controller()
    controller.observe(0.5, 0.0)
    assert controller.scale() == 1.0
    assert controller.fanout(8) == 8
    assert controller.sample_rate(0.5) == 0.5
    assert not controller.events


def test_scale_shrinks_proportionally_past_headroom():
    controller = _controller()
    controller.observe(1.8, 0.0)
    assert controller.scale() == pytest.approx(0.5)
    assert controller.fanout(8) == 4
    assert controller.sample_rate(0.8) == pytest.approx(0.4)
    assert {e.kind for e in controller.events} == {"fanout", "sample_rate"}
    assert all(e.applied for e in controller.events)


def test_scale_floors_at_min_scale_and_min_fanout():
    controller = _controller()
    controller.observe(100.0, 0.0)
    assert controller.scale() == 0.25
    assert controller.fanout(4) == 2


def test_advise_mode_records_but_returns_base():
    controller = _controller(mode="advise")
    controller.observe(1.8, 0.0)
    assert controller.fanout(8) == 8
    assert controller.sample_rate(0.8) == 0.8
    assert len(controller.events) == 2
    assert not any(e.applied for e in controller.events)


def test_memory_pressure_does_not_scale_traffic():
    # Splitting cannot shrink resident state: the scale responds to the
    # traffic forecast only, memory is surfaced via overload/note_bank.
    controller = _controller()
    controller.observe(0.2, 5.0)
    assert controller.scale() == 1.0
    assert controller.overload_rounds == 1


def test_note_bank_records_advisory_event():
    controller = _controller()
    controller.note_bank(95, 100, note="bank")
    controller.note_bank(10, 100, note="small")
    kinds = [e.kind for e in controller.events]
    assert kinds == ["bank"]
    assert not controller.events[0].applied


def test_observe_tracks_run_peaks():
    controller = _controller()
    controller.observe(0.4, 0.1)
    controller.observe(1.3, 0.2)
    controller.observe(0.2, 0.05)
    assert controller.peak_traffic_frac == pytest.approx(1.3)
    assert controller.peak_memory_frac == pytest.approx(0.2)
    summary = controller.summary()
    assert summary["peak_traffic_frac"] == pytest.approx(1.3)
    assert summary["overload_rounds"] == 1


@pytest.mark.parametrize("mode", ["advise", "enforce"])
def test_summary_reports_the_mode_and_the_fixed_settings(mode):
    """Artifacts keep their ``mode`` / ``headroom`` / ``window`` keys: the
    mode is the config's, the other two the module constants."""
    summary = _controller(mode).summary()
    assert (summary["mode"], summary["headroom"], summary["window"]) == (
        mode, 0.9, 8
    )


def test_budgets_sit_on_the_headroom_line():
    controller = _controller()
    assert controller.budget(0) == 90  # int(HEADROOM * 100)
    with pytest.raises(ProtocolError, match="unknown machine"):
        controller.split_plan(RoundPlan().send(0, 7, (1,) * 200))
    controller.note_bank(90, 100, note="at the line")
    assert not controller.events
    controller.note_bank(91, 100, note="past it")
    assert [e.note for e in controller.events] == ["past it"]


# ----------------------------------------------------------------------
# Plan splitting
# ----------------------------------------------------------------------
def _plan_words(plan: RoundPlan) -> int:
    _, _, _, run_words = plan.run_meta()
    return sum(run_words)


def _inbox_orders(plans) -> dict:
    """Concatenated per-destination delivery order across chunks."""
    inboxes: dict = {}
    for plan in plans:
        for dst, items in plan.deliveries():
            inboxes.setdefault(dst, []).extend(items)
    return inboxes


def _chunk_volumes(plan: RoundPlan):
    sent: dict = {}
    received: dict = {}
    run_srcs, run_dsts, _, run_words = plan.run_meta()
    for src, dst, words in zip(run_srcs, run_dsts, run_words):
        sent[src] = sent.get(src, 0) + words
        received[dst] = received.get(dst, 0) + words
    return sent, received


def test_split_plan_returns_plan_unchanged_when_within_budget():
    controller = _controller()
    plan = RoundPlan(note="t")
    plan.send(0, 1, (1, 2, 3))
    assert controller.split_plan(plan) == [plan]
    assert controller.splits == 0


def test_split_plan_is_identity_when_not_enforcing():
    controller = _controller(mode="advise")
    plan = RoundPlan(note="t")
    plan.send(0, 1, tuple(range(500)))
    assert controller.split_plan(plan) == [plan]


def test_split_plan_chunks_oversized_sender():
    controller = _controller()
    plan = RoundPlan(note="t")
    for _ in range(4):
        plan.send(0, 1, (1,) * 60)  # 240 words vs budget 90
    chunks = controller.split_plan(plan)
    assert len(chunks) > 1
    for chunk in chunks:
        sent, received = _chunk_volumes(chunk)
        assert all(words <= 90 for words in sent.values())
        assert all(words <= 90 for words in received.values())
    assert sum(_plan_words(c) for c in chunks) == _plan_words(plan)
    assert controller.splits == 1
    assert controller.extra_rounds == len(chunks) - 1


def test_split_plan_parallel_senders_pack_into_same_chunks():
    # Saturating one sender must not fragment the others: N senders each
    # needing 2 chunks must yield 2 chunks total, not N.
    controller = ThrottleController("enforce", [100] * 20)
    plan = RoundPlan(note="t")
    for sender in range(10):
        for burst in range(3):
            plan.send(sender, 10 + sender, (1,) * 50)  # 150 vs budget 90
    chunks = controller.split_plan(plan)
    assert len(chunks) == 3  # ceil(150 / (50 * floor(90/50)))... one per burst
    assert sum(_plan_words(c) for c in chunks) == _plan_words(plan)


def test_split_plan_preserves_per_destination_order_and_words():
    rng = random.Random(7)
    controller = ThrottleController("enforce", [40] * 8)
    for trial in range(20):
        plan = RoundPlan(note=f"t{trial}")
        for _ in range(rng.randrange(1, 30)):
            src = rng.randrange(8)
            dst = rng.randrange(8)
            payload = tuple(rng.randrange(1000) for _ in range(rng.randrange(1, 12)))
            plan.send(src, dst, payload)
        chunks = controller.split_plan(plan)
        assert _inbox_orders(chunks) == _inbox_orders([plan])
        assert sum(_plan_words(c) for c in chunks) == _plan_words(plan)


def test_split_plan_slices_block_objects_by_rows():
    """A :class:`~repro.mpc.plan.Block` that is not an array splits like
    one: by row slices, each piece charged its own ``size``."""
    from toy_block import PairBlock

    controller = _controller()
    plan = RoundPlan(note="t")
    block = PairBlock([(i, -i) for i in range(60)])  # 120 words, budget 90
    plan.send_batch(0, 1, block)
    chunks = controller.split_plan(plan)
    assert len(chunks) == 2
    pieces = [item for chunk in chunks for _, items in chunk.deliveries()
              for item in items]
    assert all(isinstance(piece, PairBlock) for piece in pieces)
    assert [row for piece in pieces for row in piece.rows] == block.rows
    assert [_plan_words(chunk) for chunk in chunks] == [piece.size for piece in pieces]
    assert sum(piece.size for piece in pieces) == block.size


def test_split_plan_slices_single_oversized_object_run():
    controller = _controller()
    plan = RoundPlan(note="t")
    plan.send_batch(0, 1, [(i, i) for i in range(100)])  # 200 words, budget 90
    chunks = controller.split_plan(plan)
    assert len(chunks) >= 3
    for chunk in chunks:
        sent, _ = _chunk_volumes(chunk)
        assert sent[0] <= 90
    assert _inbox_orders(chunks)[1] == [(i, i) for i in range(100)]


def test_split_plan_emits_indivisible_item_alone():
    controller = _controller()
    plan = RoundPlan(note="t")
    big = (1,) * 120  # larger than the 90-word budget, indivisible
    plan.send(0, 1, (5,))
    plan.send(0, 1, big)
    chunks = controller.split_plan(plan)
    assert sum(_plan_words(c) for c in chunks) == word_size(big) + 1
    assert _inbox_orders(chunks)[1] == [(5,), big]
    # The oversized item sits in a chunk where machine 0 sends nothing else.
    oversized = [c for c in chunks if any(i == big for _, it in c.deliveries() for i in it)]
    assert len(oversized) == 1
    sent, _ = _chunk_volumes(oversized[0])
    assert sent[0] == word_size(big)


def test_split_plan_slices_numpy_block_runs_by_rows():
    controller = _controller()
    plan = RoundPlan(note="t")
    block = np.arange(120, dtype=np.int64).reshape(60, 2)  # 120 words
    plan.send_batch(0, 1, block)
    chunks = controller.split_plan(plan)
    assert len(chunks) == 2
    merged = np.concatenate(
        [
            np.asarray(item).reshape(-1, 2)
            for chunk in chunks
            for _, items in chunk.deliveries()
            for item in items
        ]
    )
    assert (merged == block).all()


# ----------------------------------------------------------------------
# Cluster integration
# ----------------------------------------------------------------------
def test_cluster_attaches_controller_only_when_enabled():
    config = ModelConfig.heterogeneous(n=64, m=256)
    assert Cluster(config, rng=random.Random(0)).throttle is None
    advise = ModelConfig.heterogeneous(n=64, m=256, throttle="advise")
    assert Cluster(advise, rng=random.Random(0)).throttle is not None


def test_enforce_splits_over_budget_exchange_and_avoids_violation():
    def burst(throttle: str):
        cluster = Cluster(
            ModelConfig.heterogeneous(n=64, m=256, throttle=throttle),
            rng=random.Random(0),
        )
        plan = RoundPlan(note="burst")
        for i in range(cluster.smalls[0].capacity + 10):
            plan.send(0, 1, (i,))
        return cluster, cluster.execute(plan)

    cluster_off, _ = burst("off")
    capacity = cluster_off.smalls[0].capacity
    assert cluster_off.ledger.violations

    cluster_enf, inboxes = burst("enforce")
    assert not cluster_enf.ledger.violations
    assert cluster_enf.ledger.rounds > 1
    assert inboxes[1] == [(i,) for i in range(capacity + 10)]
    assert cluster_enf.throttle.splits == 1


def test_throttled_hooks_return_base_without_controller():
    cluster = Cluster(ModelConfig.heterogeneous(n=64, m=256), rng=random.Random(0))
    assert cluster.throttled_fanout(8) == 8
    assert cluster.throttled_sample_rate(0.5) == 0.5


def test_advise_mode_is_behaviour_identical_to_off():
    ledgers = []
    for mode in ("off", "advise"):
        cluster = Cluster(
            ModelConfig.heterogeneous(n=64, m=256, throttle=mode),
            rng=random.Random(0),
        )
        capacity = cluster.smalls[0].capacity
        one_round(cluster, 0, 1, (1,) * (capacity + 5), note="burst")
        one_round(cluster, 0, 2, (9, 9), note="tail")
        ledgers.append(cluster.ledger.summary())
    assert ledgers[0] == ledgers[1]


# ----------------------------------------------------------------------
# Typed violations and the exception hierarchy
# ----------------------------------------------------------------------
def test_violation_is_str_with_structured_fields():
    violation = Violation(3, "sent", 120, 100, 7, note="burst")
    assert isinstance(violation, str)
    assert "round 7" in violation
    assert violation.machine_id == 3
    assert violation.kind == "sent"
    assert violation.amount == 120
    assert violation.capacity == 100
    assert violation.round == 7


def test_ledger_violations_are_typed_with_round_numbers():
    cluster = Cluster(ModelConfig.heterogeneous(n=64, m=256), rng=random.Random(0))
    capacity = cluster.smalls[0].capacity
    one_round(cluster, 0, 1, (1, 2), note="warmup")
    one_round(cluster, 0, 1, (1,) * (capacity + 1), note="burst")
    violations = list(cluster.ledger.violations)
    assert violations
    for violation in violations:
        assert isinstance(violation, Violation)
        assert violation.round == 2
        assert violation.kind in ("sent", "received")


def test_strict_failures_are_catchable_via_capacity_exceeded_base():
    config = ModelConfig.heterogeneous(n=64, m=256, strict=True)

    cluster = Cluster(config, rng=random.Random(0))
    capacity = cluster.smalls[0].capacity
    with pytest.raises(CapacityExceeded) as comm_info:
        one_round(cluster, 0, 1, (1,) * (capacity + 1), note="burst")
    assert isinstance(comm_info.value, CommunicationLimitExceeded)
    assert comm_info.value.violations
    assert comm_info.value.violations[0].kind in ("sent", "received")

    cluster = Cluster(config, rng=random.Random(0))
    target = cluster.smalls[0]
    with pytest.raises(CapacityExceeded) as mem_info:
        target.put("blob", [0] * (target.capacity + 1))
    assert isinstance(mem_info.value, MemoryLimitExceeded)
    assert mem_info.value.violations
    assert mem_info.value.violations[0].kind == "memory"


def test_strict_memory_message_carries_round_index():
    config = ModelConfig.heterogeneous(n=64, m=256, strict=True)
    cluster = Cluster(config, rng=random.Random(0))
    one_round(cluster, 0, 1, (1, 2), note="warmup")
    target = cluster.smalls[0]
    with pytest.raises(MemoryLimitExceeded) as info:
        target.put("blob", [0] * (target.capacity + 1))
    # The violation is stamped with the round it would have been recorded
    # in (rounds + 1), not silently round-less as before.
    assert "round 2" in str(info.value)
    assert info.value.violations[0].round == 2
