"""Throttle-layer overhead on the hot columnar route.

The feedback-control layer must be free when it has nothing to do: with
ample capacities (no round near the headroom line) an enforcing
controller still pays its bookkeeping on every round — the
``split_plan`` early-exit (per-machine volume tallies over the cached
run columns) and the post-round load observation — and that bookkeeping
must stay within 5% of the unthrottled route.

The workload is the 100k-item columnar route of
``bench_engine_throughput``: each of 32 machines scatters its share via
``RoundPlan.send_indexed``, one synchronous round per repetition,
capacities sized so no machine exceeds ~30% of its budget (the
controller observes but never intervenes — asserted: zero splits, zero
events).  The table reports items/s with throttling off vs enforced and
the relative overhead; the committed artifact records the trajectory
across PRs.
"""

import os
import random
import time

from repro.mpc import Cluster, ModelConfig, RoundPlan
from repro.env import env_flag

from _util import publish, publish_perf

ITEMS = int(os.environ.get("REPRO_BENCH_ITEMS", "100000"))
SMOKE = env_flag("REPRO_BENCH_SMOKE")
REPEATS = 5
OVERHEAD_BAR = 0.05


def _make_cluster(mode: str) -> Cluster:
    config = ModelConfig.heterogeneous(
        n=4096, m=ITEMS, num_small=32, throttle=mode
    )
    return Cluster(config, rng=random.Random(0))


def _make_columnar_workload(cluster: Cluster):
    import numpy as np

    rng = random.Random(42)
    ids = cluster.small_ids
    per_machine = ITEMS // len(ids)
    workload = {}
    for src in ids:
        dsts = [ids[rng.randrange(len(ids))] for _ in range(per_machine)]
        rows = [
            (rng.randrange(4096), rng.randrange(4096), rng.randrange(10**6))
            for _ in range(per_machine)
        ]
        workload[src] = (
            np.asarray(dsts, dtype=np.int64),
            np.asarray(rows, dtype=np.int64),
        )
    return workload


def _route(cluster: Cluster, columnar, note: str) -> int:
    plan = RoundPlan(note=note)
    for src, (dsts, rows) in columnar.items():
        plan.send_indexed(src, dsts, rows)
    cluster.execute(plan)
    return cluster.ledger.records[-1].total_words


def _best_rate(cluster: Cluster, columnar, note: str) -> tuple[float, int]:
    best = float("inf")
    words = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        words = _route(cluster, columnar, note)
        best = min(best, time.perf_counter() - start)
    return ITEMS / best, words


def run_comparison() -> list[dict]:
    rows = []
    rates = {}
    words = {}
    for mode in ("off", "enforce"):
        cluster = _make_cluster(mode)
        columnar = _make_columnar_workload(cluster)
        rates[mode], words[mode] = _best_rate(cluster, columnar, mode)
        assert not cluster.ledger.violations, "workload must fit capacities"
        if mode == "enforce":
            # The controller observed every round but never intervened.
            assert cluster.throttle is not None
            assert cluster.throttle.splits == 0
            assert not cluster.throttle.events
            assert cluster.throttle.observed_rounds == REPEATS
        rows.append({
            "throttle": mode,
            "items": ITEMS,
            "items_per_sec": round(rates[mode]),
        })
    assert words["off"] == words["enforce"], "throttled route charged differently"
    overhead = max(0.0, 1.0 - rates["enforce"] / rates["off"])
    rows[1]["overhead_pct"] = round(100.0 * overhead, 2)
    rows[0]["overhead_pct"] = 0.0
    return rows


def test_throttle_overhead(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    publish(
        "throttle_overhead",
        f"Throttle controller overhead, {ITEMS}-item columnar route",
        rows,
        ["throttle", "items", "items_per_sec", "overhead_pct"],
        persist=not SMOKE,
    )
    publish_perf(
        "throttle_overhead",
        rows,
        params={"items": ITEMS, "num_small": 32, "repeats": REPEATS},
        persist=not SMOKE,
    )
    # Acceptance bar: an idle controller costs <= 5% on the hot route
    # (tiny smoke sizes don't amortize the fixed per-round bookkeeping).
    if not SMOKE:
        assert rows[1]["overhead_pct"] <= 100.0 * OVERHEAD_BAR, (
            f"idle throttle overhead {rows[1]['overhead_pct']}% exceeds 5%"
        )


if __name__ == "__main__":
    for row in run_comparison():
        print(row)
