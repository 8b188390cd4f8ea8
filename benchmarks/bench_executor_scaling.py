"""Executor-seam scaling: process-parallel per-machine compute.

Times the 100k-item columnar sort route (the hottest local-step
workload: the per-machine rank kernel under ``sample_sort``) on
an 8-small-machine cluster across executor generations — serial, and a
process pool at 1/2/4 workers (``ModelConfig.with_executor``) — plus one
``huge``-tier registry scenario (``table1_connectivity_huge``) under
serial vs process to show the seam composes with a full algorithm run.

Every leg asserts bit-identical datasets and ledgers against the serial
baseline before reporting: executors only move *where* pure local-step
kernels run, never what they compute or what the coordinator charges.

Acceptance bar (skipped under ``REPRO_BENCH_SMOKE=1`` and on boxes with
fewer than 4 CPUs, where a process pool cannot physically scale): the
4-worker process executor reaches >= 1.8x the serial items/s on the
columnar sort route.  The committed baseline records this machine's
honest numbers either way — ``scripts/perf_gate.py`` fails only on
drops, so a 1-CPU baseline never masks a future regression.

``REPRO_BENCH_EXECUTOR_ITEMS`` overrides the sort-route workload size.
"""

from __future__ import annotations

import os
import random
import time

from repro.experiments import Runner, get_scenario
from repro.mpc.cluster import Cluster
from repro.mpc.config import ModelConfig
from repro.mpc.executor import forced_executor, shutdown_pools
from repro.primitives.columnar import EdgeBlock, ingest_rows
from repro.primitives.sort import sample_sort
from repro.env import env_flag

from _util import publish, publish_perf

SMOKE = env_flag("REPRO_BENCH_SMOKE")
ITEMS = int(
    os.environ.get("REPRO_BENCH_EXECUTOR_ITEMS", "4000" if SMOKE else "100000")
)
#: Few machines => large per-machine shards, so per-task pool overhead is
#: amortized (the regime the executor seam targets).
NUM_SMALL = 8
REPEATS = 1 if SMOKE else 3
#: (executor, workers) legs of the sort route; workers=0 means serial.
LEGS = (("serial", 0), ("process", 1), ("process", 2), ("process", 4))

_rng = random.Random(42)
EDGES = [
    (_rng.randrange(100000), _rng.randrange(100000), _rng.randrange(1000000))
    for _ in range(ITEMS)
]


def _sort_once(executor: str, workers: int):
    config = ModelConfig(n=4096, m=16384, num_small=NUM_SMALL)
    if executor != "serial":
        config = config.with_executor(executor, workers=workers)
    cluster = Cluster(config, rng=random.Random(7))
    chunks = [EDGES[i::NUM_SMALL] for i in range(NUM_SMALL)]
    for machine, chunk in zip(cluster.smalls, chunks):
        block = ingest_rows(chunk)
        machine.put("e", block if block is not None else list(chunk))
    start = time.perf_counter()
    sample_sort(cluster, "e", key=(0, 1, 2))
    elapsed = time.perf_counter() - start
    datasets = {}
    for machine in cluster.smalls:
        data = machine.get("e", [])
        rows = data.rows() if isinstance(data, EdgeBlock) else list(data)
        datasets[machine.machine_id] = rows
    ledger = [
        (r.index, r.note, r.total_words, r.max_sent, r.max_received, r.items)
        for r in cluster.ledger.records
    ]
    return elapsed, (datasets, ledger, cluster.ledger.memory_high_water)


def _huge_once(executor: str, workers: int):
    scenario = get_scenario("table1_connectivity_huge")
    runner = Runner(results_dir=None)
    with forced_executor(executor if executor != "serial" else "serial",
                         workers=workers):
        start = time.perf_counter()
        run = runner.run(scenario, quick=SMOKE)
        elapsed = time.perf_counter() - start
    edges = sum(row.get("m", 0) for row in run.rows)
    visible = [
        {k: v for k, v in row.items() if not k.startswith("_")}
        for row in run.rows
    ]
    return elapsed, edges, (visible, dict(run.totals))


def run_scaling():
    rows = []

    serial_fp = None
    serial_elapsed = None
    for executor, workers in LEGS:
        best, fingerprint = float("inf"), None
        for _ in range(REPEATS):
            elapsed, fingerprint = _sort_once(executor, workers)
            best = min(best, elapsed)
        if serial_fp is None:
            serial_fp, serial_elapsed = fingerprint, best
        else:
            assert fingerprint == serial_fp, (
                f"sort route differs under executor={executor} "
                f"workers={workers}"
            )
        rows.append({
            "route": "sort_columnar",
            "executor": executor,
            "workers": workers,
            "items": ITEMS,
            "items_per_sec": round(ITEMS / best),
            "speedup": round(serial_elapsed / best, 2),
        })

    huge_fp = None
    huge_serial = None
    for executor, workers in (("serial", 0), ("process", 4)):
        elapsed, edges, fingerprint = _huge_once(executor, workers)
        if huge_fp is None:
            huge_fp, huge_serial = fingerprint, elapsed
        else:
            assert fingerprint == huge_fp, (
                f"huge scenario differs under executor={executor}"
            )
        rows.append({
            "route": "huge_connectivity",
            "executor": executor,
            "workers": workers,
            "items": edges,
            "items_per_sec": round(edges / elapsed),
            "speedup": round(huge_serial / elapsed, 2),
        })
    shutdown_pools()  # bench epilogue: don't leave pools to atexit
    return rows


def test_executor_scaling(benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    publish(
        "executor_scaling",
        f"Executor seam: items per second, {ITEMS}-item sort route "
        f"+ huge-tier scenario",
        rows,
        ["route", "executor", "workers", "items", "items_per_sec", "speedup"],
        persist=not SMOKE,
    )
    publish_perf(
        "executor_scaling",
        rows,
        params={
            "items": ITEMS,
            "num_small": NUM_SMALL,
            "repeats": REPEATS,
            "cpus": os.cpu_count() or 1,
        },
        persist=not SMOKE,
    )
    if not SMOKE and (os.cpu_count() or 1) >= 4:
        by_leg = {
            (r["executor"], r["workers"]): r
            for r in rows if r["route"] == "sort_columnar"
        }
        scaled = by_leg[("process", 4)]
        assert scaled["speedup"] >= 1.8, (
            f"process executor at 4 workers only {scaled['speedup']}x serial"
        )


if __name__ == "__main__":
    for row in run_scaling():
        print(row)
