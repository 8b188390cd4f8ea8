"""Round-engine throughput: per-message vs batched vs columnar routing.

Routes a 100k-item edge workload (the sample-sort routing pattern, the
hottest exchange in the repo) through four generations of the engine,
one synchronous round each:

* *per-message*: the seed implementation of ``Cluster.exchange`` — one
  ``(src, dst, payload)`` tuple per item, one recursive ``word_size`` call
  per payload, one inbox append per item;
* *batched* (PR 1): each source buckets its items per destination in a
  Python loop and ships one ``send_batch`` per ``(src, dst)`` pair; the
  engine re-sizes each batch with a ``word_size_many`` type-scan pass;
* *columnar*: each source hands the engine its destination column and
  payload block (numpy arrays) via ``RoundPlan.send_indexed``; the plan
  groups the scatter with one stable argsort and stores it whole, and
  ``Cluster.execute`` tallies and delivers it with vectorized passes;
* *cluster-wide columnar*: one ``send_indexed`` for the whole route,
  its source a column too — the sample sort's route since the
  cluster-wide partition.

The columnar path starts from columnar inputs — that is the point of the
regime: data is ingested as arrays once (outside the timed route, like
any columnar store) and never rematerialized per item.  All three paths
route the same logical items and must charge identical words and
identical per-round volumes (asserted); the table reports
items-routed-per-second and the speedup over the per-message seed.  The
acceptance bar for the columnar engine is >= 3x over the PR 1 batched
path.
"""

import os
import random
import time

import numpy as np

from repro.mpc import Cluster, ModelConfig, RoundPlan
from repro.mpc.words import word_size
from repro.env import env_flag

from _util import publish, publish_perf

# The CI smoke job shrinks the workload and skips persisting the table.
ITEMS = int(os.environ.get("REPRO_BENCH_ITEMS", "100000"))
SMOKE = env_flag("REPRO_BENCH_SMOKE")
REPEATS = 3


def _make_cluster() -> Cluster:
    # 32 small machines: the routing fan-out of the repo's test and
    # benchmark configurations, so each (src, dst) batch carries ~100 items.
    config = ModelConfig.heterogeneous(n=4096, m=ITEMS, num_small=32)
    return Cluster(config, rng=random.Random(0))


def _make_workload(cluster: Cluster) -> dict[int, list[tuple[int, tuple]]]:
    """Per-source ``(dst, edge)`` assignments, the sample-sort route shape:
    each machine holds its share of the items and routes every item to the
    bucket machine owning its key interval."""
    rng = random.Random(42)
    ids = cluster.small_ids
    per_machine = ITEMS // len(ids)
    return {
        src: [
            (
                ids[rng.randrange(len(ids))],
                (rng.randrange(4096), rng.randrange(4096), rng.randrange(10**6)),
            )
            for _ in range(per_machine)
        ]
        for src in ids
    }


def _make_columnar_workload(workload):
    """The same logical items as per-source numpy columns — the columnar
    regime's ingestion step (paid once, outside the timed route)."""
    return {
        src: (
            np.asarray([dst for dst, _ in assignments], dtype=np.int64),
            np.asarray([payload for _, payload in assignments], dtype=np.int64),
        )
        for src, assignments in workload.items()
    }


def route_per_message(cluster: Cluster, workload, note: str) -> int:
    """The seed path: per-item message tuples fed to a transplant of the
    seed ``Cluster.exchange`` hot loop (per-message membership check,
    per-payload ``word_size``, per-item inbox append, post-round memory
    sweep)."""
    messages = [
        (src, dst, payload)
        for src, assignments in workload.items()
        for dst, payload in assignments
    ]
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    inboxes: dict[int, list] = {}
    total = 0
    for src, dst, payload in messages:
        if src not in cluster.machines or dst not in cluster.machines:
            raise ValueError(f"unknown machines {src}->{dst}")
        words = word_size(payload)
        total += words
        sent[src] = sent.get(src, 0) + words
        received[dst] = received.get(dst, 0) + words
        inboxes.setdefault(dst, []).append(payload)
    violations = []
    for mid, words in sent.items():
        if words > cluster.machines[mid].capacity:
            violations.append(f"[{note}] machine {mid} sent over capacity")
    for mid, words in received.items():
        if words > cluster.machines[mid].capacity:
            violations.append(f"[{note}] machine {mid} received over capacity")
    cluster.ledger.record_round(
        note=note,
        total_words=total,
        max_sent=max(sent.values(), default=0),
        max_received=max(received.values(), default=0),
        violations=tuple(violations),
    )
    cluster._record_memory()
    return total


def route_batched(cluster: Cluster, workload, note: str) -> int:
    """The PR 1 path: bucket per destination locally (a per-item Python
    loop), one batch per ``(src, dst)`` pair, one bulk sizing pass per
    batch."""
    plan = RoundPlan(note=note)
    for src, assignments in workload.items():
        outgoing: dict[int, list] = {}
        for dst, payload in assignments:
            bucket = outgoing.get(dst)
            if bucket is None:
                outgoing[dst] = [payload]
            else:
                bucket.append(payload)
        for dst, batch in outgoing.items():
            plan.send_batch(src, dst, batch)
    cluster.execute(plan)
    return cluster.ledger.records[-1].total_words


def route_columnar(cluster: Cluster, columnar, note: str) -> int:
    """The columnar path: one ``send_indexed`` scatter per source — the
    plan groups the destination column with a stable argsort and the
    payload block never touches per-item Python."""
    plan = RoundPlan(note=note)
    for src, (dsts, rows) in columnar.items():
        plan.send_indexed(src, dsts, rows)
    cluster.execute(plan)
    return cluster.ledger.records[-1].total_words


def _make_cluster_wide_workload(columnar):
    """The per-source columns concatenated, with a source column."""
    srcs = np.concatenate(
        [np.full(len(dsts), src, dtype=np.int64) for src, (dsts, _) in columnar.items()]
    )
    dsts = np.concatenate([dsts for dsts, _ in columnar.values()])
    rows = np.concatenate([rows for _, rows in columnar.values()])
    return srcs, dsts, rows


def route_cluster_wide(cluster: Cluster, scatter, note: str) -> int:
    """One ``send_indexed`` for the whole route: row ``i`` goes from
    ``srcs[i]`` to ``dsts[i]``."""
    plan = RoundPlan(note=note)
    plan.send_indexed(*scatter)
    cluster.execute(plan)
    return cluster.ledger.records[-1].total_words


def _best_rate(fn, cluster, payload, note) -> tuple[float, int]:
    best = float("inf")
    words = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        words = fn(cluster, payload, note)
        best = min(best, time.perf_counter() - start)
    return ITEMS / best, words


def run_comparison() -> list[dict]:
    cluster = _make_cluster()
    workload = _make_workload(cluster)
    per_message_rate, per_message_words = _best_rate(
        route_per_message, cluster, workload, "baseline"
    )
    batched_rate, batched_words = _best_rate(
        route_batched, cluster, workload, "batched"
    )
    assert batched_words == per_message_words, "engines disagree on words charged"
    rows = [
        {
            "engine": "per-message (seed)",
            "items": ITEMS,
            "items_per_sec": round(per_message_rate),
            "speedup": 1.0,
        },
        {
            "engine": "RoundPlan batched (PR 1)",
            "items": ITEMS,
            "items_per_sec": round(batched_rate),
            "speedup": round(batched_rate / per_message_rate, 2),
        },
    ]
    columnar = _make_columnar_workload(workload)
    batched_record = cluster.ledger.records[-1]
    for engine, route, payload, note in (
        ("columnar send_indexed (numpy)", route_columnar, columnar, "columnar"),
        (
            "columnar cluster-wide send_indexed",
            route_cluster_wide,
            _make_cluster_wide_workload(columnar),
            "cluster-wide",
        ),
    ):
        rate, words = _best_rate(route, cluster, payload, note)
        assert words == per_message_words, f"{engine} disagrees on words charged"
        record = cluster.ledger.records[-1]
        assert (record.max_sent, record.max_received, record.items) == (
            batched_record.max_sent,
            batched_record.max_received,
            batched_record.items,
        ), f"{engine} disagrees on per-round volumes"
        rows.append({
            "engine": engine,
            "items": ITEMS,
            "items_per_sec": round(rate),
            "speedup": round(rate / per_message_rate, 2),
        })
    return rows


def test_engine_throughput(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    publish(
        "engine_throughput",
        f"Round engine: items routed per second, {ITEMS}-item route",
        rows,
        ["engine", "items", "items_per_sec", "speedup"],
        persist=not SMOKE,
    )
    publish_perf(
        "engine_throughput",
        rows,
        params={"items": ITEMS, "num_small": 32, "repeats": REPEATS},
        persist=not SMOKE,
    )
    # Acceptance bars (small smoke sizes don't amortize the batching):
    # PR 1's >= 3x of batched over per-message, and this PR's >= 3x of the
    # columnar engine over the PR 1 batched path.
    if not SMOKE:
        assert rows[1]["speedup"] >= 3.0
        assert rows[2]["speedup"] / rows[1]["speedup"] >= 3.0


if __name__ == "__main__":
    for row in run_comparison():
        print(row)
