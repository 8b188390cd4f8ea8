"""The executor seam: registry, resolution, guards, and serial/process
equivalence (results and ledgers are identical by construction)."""

import os
import random
import subprocess
import sys

import pytest

from repro.mpc import Cluster, ModelConfig
from repro.mpc import executor as executor_mod
from repro.mpc.executor import (
    ProcessExecutor,
    SerialExecutor,
    available_executors,
    forced_executor,
    get_executor,
    in_worker,
    local_step,
    mark_worker_process,
    resolve_step,
)

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
def test_local_step_registers_and_resolves():
    step = resolve_step("cluster/map-small")
    assert step.name == "cluster/map-small"
    assert step.ships is False
    assert step.module == "repro.mpc.cluster"


def test_resolve_step_imports_defining_module():
    # The worker-side path: resolve by (name, module) even if the caller
    # never imported the primitives.
    step = resolve_step("sort/rank-columnar", module="repro.primitives.sort")
    assert step.ships is True


def test_resolve_unknown_step_raises():
    with pytest.raises(KeyError):
        resolve_step("no/such-step")


def test_reregistering_from_same_module_replaces(monkeypatch):
    monkeypatch.delitem(executor_mod._REGISTRY, "test/replace", raising=False)

    @local_step("test/replace", ships=False)
    def first(payload):
        return "first"

    @local_step("test/replace", ships=False)
    def second(payload):
        return "second"

    assert resolve_step("test/replace").fn(None) == "second"
    monkeypatch.delitem(executor_mod._REGISTRY, "test/replace")


def test_cross_module_name_clash_raises(monkeypatch):
    monkeypatch.delitem(executor_mod._REGISTRY, "test/clash", raising=False)

    @local_step("test/clash", ships=False)
    def mine(payload):
        return payload

    def impostor(payload):
        return payload

    impostor.__module__ = "somewhere.else"
    with pytest.raises(ValueError, match="already registered"):
        local_step("test/clash", ships=False)(impostor)
    monkeypatch.delitem(executor_mod._REGISTRY, "test/clash")


# ----------------------------------------------------------------------
# Resolution order (config > forced > env > default) and the guard
# ----------------------------------------------------------------------
def test_default_is_serial(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    assert isinstance(get_executor(), SerialExecutor)


def test_instance_passes_through():
    instance = ProcessExecutor(workers=3)
    assert get_executor(instance) is instance


def test_env_selects_process_and_sizes_pool(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "process")
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "5")
    resolved = get_executor()
    assert isinstance(resolved, ProcessExecutor)
    assert resolved.workers == 5


def test_explicit_workers_beat_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_WORKERS", "5")
    assert get_executor("process", workers=2).workers == 2


def test_zero_workers_means_cpu_count():
    assert ProcessExecutor(workers=0).workers == (os.cpu_count() or 1)


def test_forced_executor_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR", "serial")
    with forced_executor("process", workers=2):
        resolved = get_executor()
        assert isinstance(resolved, ProcessExecutor)
        assert resolved.workers == 2
    assert isinstance(get_executor(), SerialExecutor)


def test_forced_executor_rejects_unknown_name():
    with pytest.raises(ValueError):
        with forced_executor("threads"):
            pass  # pragma: no cover


def test_unknown_executor_name_raises():
    with pytest.raises(ValueError, match="unknown executor"):
        get_executor("threads")


def test_available_executors():
    assert available_executors() == ("serial", "process")


def test_worker_guard_forces_serial(monkeypatch):
    # Re-registers the current value so monkeypatch restores it.
    monkeypatch.setattr(executor_mod, "_IN_WORKER", executor_mod._IN_WORKER)
    assert not in_worker()
    mark_worker_process()
    assert in_worker()
    # The guard beats explicit names, instances, and forced overrides.
    assert isinstance(get_executor("process"), SerialExecutor)
    assert isinstance(get_executor(ProcessExecutor(2)), SerialExecutor)
    with forced_executor("process", workers=2):
        assert isinstance(get_executor(), SerialExecutor)


def test_worker_guard_runs_shippable_steps_inline(monkeypatch):
    np = pytest.importorskip("numpy")
    monkeypatch.setattr(executor_mod, "_IN_WORKER", True)
    executor = ProcessExecutor(workers=4)
    pairs = [
        (np.array([2, 1, 2]), np.array([10, 20, 30])),
        (np.array([3]), np.array([40])),
    ]
    results = executor.map_steps(
        "aggregate/reduce-pairs", [(k, v, "sum") for k, v in pairs]
    )
    assert [(k.tolist(), v.tolist()) for k, v in results] == [
        ([2, 1], [40, 20]),
        ([3], [40]),
    ]


# ----------------------------------------------------------------------
# Executors run steps identically
# ----------------------------------------------------------------------
def test_serial_executor_preserves_payload_order():
    results = SerialExecutor().map_steps(
        "dedup/keep-first-object",
        [
            ([("a", 1), ("a", 2), ("b", 3)], lambda item: item[0]),
            ([("c", 4)], lambda item: item[0]),
        ],
    )
    assert results == [[("a", 1), ("b", 3)], [("c", 4)]]


def test_process_executor_runs_nonshippable_steps_inline():
    # The payload carries a lambda — it would not survive pickling, so
    # this passing at workers=4 proves ships=False stays inline.
    executor = ProcessExecutor(workers=4)
    results = executor.map_steps(
        "dedup/keep-first-object",
        [
            ([("a", 1), ("a", 2)], lambda item: item[0]),
            ([("b", 3), ("b", 4)], lambda item: item[0]),
        ],
    )
    assert results == [[("a", 1)], [("b", 3)]]


def test_process_matches_serial_on_shipping_kernel():
    np = pytest.importorskip("numpy")
    payloads = [
        (
            np.array([[2], [1], [2], [3]], dtype=np.int64),
            (np.dtype(np.int64),),
            (0,),
        ),
        (
            np.array([[9], [7]], dtype=np.int64),
            (np.dtype(np.int64),),
            (0,),
        ),
    ]

    def as_rows(blocks):
        return [block.rows() for block in blocks]

    serial = as_rows(SerialExecutor().map_steps("sort/rank-columnar", payloads))
    process = as_rows(ProcessExecutor(workers=2).map_steps(
        "sort/rank-columnar", payloads
    ))
    assert serial == process == [[(1,), (2,), (2,), (3,)], [(7,), (9,)]]


def test_single_payload_runs_inline():
    # len(payloads) <= 1 short-circuits the pool; same result either way.
    result = ProcessExecutor(workers=4).map_steps(
        "edgestore/scan", [([1, 2, 3], None)]
    )
    assert result == [[1, 2, 3]]


def test_pool_shutdown_is_idempotent():
    executor_mod.shutdown_pools()
    executor_mod.shutdown_pools()
    assert executor_mod._POOLS == {}


def test_fresh_pool_after_shutdown():
    """A long-lived daemon must be able to reconfigure: after an explicit
    shutdown_pools(), the next process dispatch builds a fresh pool
    instead of reusing (or tripping over) the reaped one."""
    np = pytest.importorskip("numpy")
    executor = ProcessExecutor(workers=2)
    payloads = [
        (np.array([2, 1]), np.array([10, 20])),
        (np.array([3]), np.array([40])),
    ]

    def run():
        return [
            (k.tolist(), v.tolist())
            for k, v in executor.map_steps(
                "aggregate/reduce-pairs", [(k, v, "sum") for k, v in payloads]
            )
        ]

    first = run()
    first_pool = executor_mod._POOLS.get(2)
    assert first_pool is not None
    executor_mod.shutdown_pools()
    assert executor_mod._POOLS == {}
    second = run()
    second_pool = executor_mod._POOLS.get(2)
    assert second_pool is not None and second_pool is not first_pool
    assert first == second == [([2, 1], [10, 20]), ([3], [40])]
    executor_mod.shutdown_pools()


def test_shutdown_pools_resets_unavailable_latch(monkeypatch):
    monkeypatch.setattr(executor_mod, "_POOL_UNAVAILABLE", True)
    assert executor_mod._shared_pool(2) is None
    executor_mod.shutdown_pools()
    assert executor_mod._POOL_UNAVAILABLE is False


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
def test_with_executor_returns_new_config():
    base = ModelConfig.heterogeneous(n=64, m=256)
    derived = base.with_executor("process", workers=2)
    assert base.executor is None
    assert derived.executor == "process"
    assert derived.executor_workers == 2


def test_config_rejects_unknown_executor():
    with pytest.raises(ValueError):
        ModelConfig.heterogeneous(n=64, m=256).with_executor("threads")


def test_config_rejects_negative_workers():
    with pytest.raises(ValueError):
        ModelConfig.heterogeneous(n=64, m=256).with_executor("process", workers=-1)


def test_cluster_uses_configured_executor():
    config = ModelConfig.heterogeneous(n=64, m=256).with_executor(
        "process", workers=2
    )
    cluster = Cluster(config, rng=random.Random(0))
    assert isinstance(cluster.executor, ProcessExecutor)
    assert cluster.executor.workers == 2


def test_cluster_defaults_to_serial(monkeypatch):
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    cluster = Cluster(ModelConfig.heterogeneous(n=64, m=256))
    assert isinstance(cluster.executor, SerialExecutor)


# ----------------------------------------------------------------------
# End-to-end equivalence: same results, same ledger
# ----------------------------------------------------------------------
def _sorted_store(executor_name: str):
    from repro.primitives import EdgeStore

    config = ModelConfig.heterogeneous(n=64, m=256).with_executor(
        executor_name, workers=2
    )
    cluster = Cluster(config, rng=random.Random(7))
    rng = random.Random(11)
    edges = [(rng.randrange(64), rng.randrange(64), i) for i in range(256)]
    store = EdgeStore.create(cluster, edges, name="edges")
    store.sort(key=(0, 1, 2))
    placement = [list(m.get("edges", [])) for m in cluster.smalls]
    ledger = [
        (r.note, r.total_words, r.max_sent, r.max_received)
        for r in cluster.ledger.records
    ]
    return placement, ledger, cluster.ledger.rounds


def test_sort_is_identical_across_executors():
    serial = _sorted_store("serial")
    process = _sorted_store("process")
    assert serial == process


# ----------------------------------------------------------------------
# map_small memory checkpoint
# ----------------------------------------------------------------------
def test_map_small_checkpoints_memory_after_mutation():
    cluster = Cluster(ModelConfig.heterogeneous(n=64, m=256),
                      rng=random.Random(0))
    cluster.distribute_edges([(1, 2)], name="e")
    small_capacity = cluster.config.small_capacity
    cluster.map_small(
        "e", lambda machine, items: items * (small_capacity + 1)
    )
    # The growth is visible without any round having been charged.
    assert cluster.ledger.rounds == 0
    assert any("memory" in str(v) for v in cluster.ledger.violations)
    assert max(cluster.ledger.memory_high_water.values()) > small_capacity


# ----------------------------------------------------------------------
# Nested parallelism: bench --jobs beats --executor (regression: no
# deadlock, no pool-inside-pool)
# ----------------------------------------------------------------------
def test_parallel_runner_under_process_executor_env(tmp_path):
    env = dict(os.environ)
    env.update({
        "REPRO_EXECUTOR": "process",
        "REPRO_EXECUTOR_WORKERS": "2",
        "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
    })
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "bench", "table1_connectivity",
            "--quick", "--json", "--jobs", "2", "--out", str(tmp_path),
        ],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "table1_connectivity.json").exists()
