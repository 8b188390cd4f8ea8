"""Primitive-layer throughput: columnar record batches vs the object path.

Times the distributed primitives on a 32-small-machine cluster at a
100k-item scale (``REPRO_BENCH_PRIMITIVE_ITEMS`` overrides), comparing:

* *object* — per-item tuples, per-item bucketing/dict loops in the sort
  and the aggregate: every sort runs on the object sort of
  ``tests/sort_oracle.py``, and the aggregate takes its object path
  (``columnar.ingest_pairs`` made to decline, as it does for custom
  combines and non-int keys); the other steps of join, dedup and
  arrange ingest the tuple rows the object sort leaves;
* *columnar* — :class:`~repro.primitives.columnar.EdgeBlock` record
  batches: one cluster-wide packed-key ``searchsorted`` and one array
  scatter routing ``sample_sort``,
  ``argsort``/``reduceat`` group-bys in ``aggregate``, vectorized
  keep-first masks in ``dedup``, directed copies as blocks in ``join``
  and ``arrange``.

Sort and aggregate take block-native columnar inputs — the
steady-state representation a
columnar pipeline hands from one primitive to the next (a list-ingest
first step pays a one-time conversion and still clears the bar).  Join,
dedup and arrange take plain tuple lists on both paths and build their
internal representations themselves.  ``broadcast`` and
``disseminate`` have a single (batched) implementation each and are
reported for trend tracking.

Every dual-path measurement alternates its object and columnar repeats,
so a slow stretch of the machine hits both sides of the ratio, and
asserts bit-identical results and ledgers between the two paths before
reporting.  Acceptance bars (skipped under
``REPRO_BENCH_SMOKE=1``, where tiny sizes don't amortize anything):
columnar >= 5x object on the sort and aggregate routes.  The aggregate
race runs more repeats than the others: its columnar run is short, so
the best of three still varied around the bar.
"""

from __future__ import annotations

import os
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import repro.primitives.columnar as columnar
import repro.primitives.sort as sort_module
from repro.mpc.cluster import Cluster
from repro.mpc.config import ModelConfig
from repro.primitives.aggregate import aggregate
from repro.primitives.arrange import arrange_directed
from repro.primitives.broadcast import broadcast
from repro.primitives.columnar import EdgeBlock, ingest_rows
from repro.primitives.dedup import dedup_lightest
from repro.primitives.disseminate import disseminate
from repro.primitives.edgestore import EdgeStore
from repro.primitives.join import annotate_edges_with_vertex_values
from repro.env import env_flag

from _util import publish, publish_perf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import sort_oracle  # noqa: E402  (the object sort lives with the tests)

SMOKE = env_flag("REPRO_BENCH_SMOKE")
ITEMS = int(
    os.environ.get("REPRO_BENCH_PRIMITIVE_ITEMS", "2000" if SMOKE else "100000")
)
NUM_SMALL = 32
REPEATS = 1 if SMOKE else 3
AGGREGATE_REPEATS = 1 if SMOKE else 9

_rng = random.Random(42)
#: ids drawn from an n-sized range, like real workloads; (u, v, w) spans
#: must stay packable so the sort exercises the packed routing mode.
EDGES = [
    (_rng.randrange(100000), _rng.randrange(100000), _rng.randrange(1000000))
    for _ in range(ITEMS)
]
PAIRS = [(_rng.randrange(1 << 15), _rng.randrange(1000)) for _ in range(ITEMS)]
VALUES = {v: _rng.randrange(1 << 20) for v in range(100000)}


def _cluster() -> Cluster:
    return Cluster(ModelConfig(n=4096, m=16384, num_small=NUM_SMALL), rng=random.Random(7))


def _fingerprint(cluster: Cluster, names: list[str]):
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
    return datasets, ledger, cluster.ledger.memory_high_water


def _decline(*args):
    return None


@contextmanager
def _path(path: str):
    """The context *path* runs in: on ``"object"`` every sort runs on the
    object sort and the aggregate's columnar qualification declines every
    input."""
    if path != "object":
        yield
        return
    with sort_oracle.installed(), mock.patch.object(columnar, "ingest_pairs", _decline):
        yield


def _measure(path: str, run_once):
    """Best-of-``REPEATS`` runtime of *run_once* plus the fingerprint of
    its last execution (identity checks compare fingerprints)."""
    best, fingerprint = float("inf"), None
    with _path(path):
        for _ in range(REPEATS):
            elapsed, fingerprint = run_once()
            best = min(best, elapsed)
    return best, fingerprint


def _race(object_once, columnar_once, repeats):
    """Best-of-*repeats* runtimes of the object and the columnar run,
    repeats alternating (object, columnar, object, ...) so that a slow
    stretch of the machine hits both sides of the ratio; each side's
    fingerprint is from its last execution."""
    best = {"object": float("inf"), "columnar": float("inf")}
    fingerprints = {}
    for _ in range(repeats):
        for path, run_once in (("object", object_once), ("columnar", columnar_once)):
            with _path(path):
                elapsed, fingerprints[path] = run_once()
            best[path] = min(best[path], elapsed)
    return best, fingerprints


def _edges_for(cluster: Cluster, name: str, block_native: bool) -> None:
    chunks = [EDGES[i :: NUM_SMALL] for i in range(NUM_SMALL)]
    for machine, chunk in zip(cluster.smalls, chunks):
        payload = ingest_rows(chunk) if block_native else list(chunk)
        machine.put(name, payload if payload is not None else list(chunk))


# -- per-primitive workloads -------------------------------------------
def _run_sort(block_native: bool):
    def once():
        cluster = _cluster()
        _edges_for(cluster, "e", block_native)
        start = time.perf_counter()
        sort_module.sample_sort(cluster, "e", key=(0, 1, 2))
        return time.perf_counter() - start, _fingerprint(cluster, ["e"])

    return once


def _run_aggregate(block_native: bool):
    def once():
        cluster = _cluster()
        per = {
            machine.machine_id: PAIRS[i :: NUM_SMALL]
            for i, machine in enumerate(cluster.smalls)
        }
        if block_native:
            per = {mid: ingest_rows(chunk) or chunk for mid, chunk in per.items()}
        start = time.perf_counter()
        result = aggregate(cluster, per, "sum")
        elapsed = time.perf_counter() - start
        datasets, ledger, memory = _fingerprint(cluster, [])
        datasets["result"] = sorted(result.items())
        return elapsed, (datasets, ledger, memory)

    return once


def _run_join():
    def once():
        cluster = _cluster()
        _edges_for(cluster, "e", False)
        start = time.perf_counter()
        annotate_edges_with_vertex_values(cluster, "e", VALUES, "annotated", default=0)
        return time.perf_counter() - start, _fingerprint(cluster, ["annotated"])

    return once


_rng2 = random.Random(9)
DEDUP_RECORDS = [(_rng2.randrange(30000), index) for index in range(ITEMS)]


def _run_dedup():
    chunks = [DEDUP_RECORDS[i :: NUM_SMALL] for i in range(NUM_SMALL)]

    def once():
        cluster = _cluster()
        for machine, chunk in zip(cluster.smalls, chunks):
            machine.put("r", list(chunk))
        start = time.perf_counter()
        dedup_lightest(cluster, "r", key=(0,), weight=(1,))
        return time.perf_counter() - start, _fingerprint(cluster, ["r"])

    return once


def _run_arrange():
    def once():
        cluster = _cluster()
        _edges_for(cluster, "e", False)
        start = time.perf_counter()
        arrangement = arrange_directed(cluster, "e", "e.dir", secondary_key=2)
        elapsed = time.perf_counter() - start
        datasets, ledger, memory = _fingerprint(cluster, ["e.dir"])
        datasets["degrees"] = sorted(arrangement.out_degrees.items())
        return elapsed, (datasets, ledger, memory)

    return once


def _run_edgestore():
    def once():
        cluster = _cluster()
        _edges_for(cluster, "e", False)
        store = EdgeStore(cluster, "e")
        start = time.perf_counter()
        degrees = store.aggregate(lambda e: (e[0], 1), "sum", note="deg")
        elapsed = time.perf_counter() - start
        datasets, ledger, memory = _fingerprint(cluster, [])
        datasets["degrees"] = sorted(degrees.items())
        return elapsed, (datasets, ledger, memory)

    return once


def _run_disseminate():
    def once():
        cluster = _cluster()
        _edges_for(cluster, "e", False)
        sort_module.sample_sort(cluster, "e", key=(0, 1, 2), note="prep")
        holders: dict[int, list[int]] = {}
        for machine in cluster.smalls:
            data = machine.get("e", [])
            col = (
                set(data.columns[0].tolist())
                if isinstance(data, EdgeBlock)
                else {record[0] for record in data}
            )
            for vertex in sorted(col):
                holders.setdefault(vertex, []).append(machine.machine_id)
        present = {v: VALUES.get(v, 0) for v in holders}
        start = time.perf_counter()
        received = disseminate(cluster, present, holders)
        elapsed = time.perf_counter() - start
        total = sum(len(per) for per in received.values())
        return elapsed, ({"delivered": total}, [], 0)

    return once


def _run_broadcast():
    value = tuple(range(256))

    def once():
        cluster = _cluster()
        dsts = [machine.machine_id for machine in cluster.smalls]
        src = cluster.large.machine_id
        start = time.perf_counter()
        for _ in range(50):
            broadcast(cluster, src, value, dsts)
        return (time.perf_counter() - start) / 50, ({}, [], 0)

    return once


def run_comparison():
    rows = []

    def add(primitive, path, elapsed, baseline, items=ITEMS):
        rows.append(
            {
                "primitive": primitive,
                "path": path,
                "items": items,
                "items_per_sec": round(items / elapsed),
                "speedup": round(baseline / elapsed, 2),
            }
        )

    # Sort and aggregate: both paths, block-native columnar inputs (the
    # bars); the remaining dual-path primitives take tuple-list inputs.
    races = [
        ("sample_sort", _run_sort(False), _run_sort(True), ITEMS, REPEATS),
        ("aggregate", _run_aggregate(False), _run_aggregate(True), ITEMS,
         AGGREGATE_REPEATS),
        ("join", _run_join(), _run_join(), ITEMS, REPEATS),
        ("dedup", _run_dedup(), _run_dedup(), ITEMS, REPEATS),
        ("arrange", _run_arrange(), _run_arrange(), 2 * ITEMS, REPEATS),
        ("edgestore.aggregate", _run_edgestore(), _run_edgestore(), ITEMS, REPEATS),
    ]
    for primitive, object_once, columnar_once, items, repeats in races:
        best, fingerprints = _race(object_once, columnar_once, repeats)
        assert fingerprints["columnar"] == fingerprints["object"], (
            f"{primitive}: columnar path differs from object"
        )
        add(primitive, "object", best["object"], best["object"], items)
        add(primitive, "columnar", best["columnar"], best["object"], items)

    # Single-implementation primitives, for the trajectory.
    elapsed, (info, _, _) = _measure("columnar", _run_disseminate())
    add("disseminate", "batched", elapsed, elapsed, info["delivered"])
    elapsed, _ = _measure("columnar", _run_broadcast())
    add("broadcast", "tree", elapsed, elapsed, NUM_SMALL * 256)
    return rows


def _row(rows, primitive, path):
    return next(r for r in rows if (r["primitive"], r["path"]) == (primitive, path))


def test_primitive_throughput(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    publish(
        "primitive_throughput",
        f"Distributed primitives: items per second, {ITEMS}-item workloads",
        rows,
        ["primitive", "path", "items", "items_per_sec", "speedup"],
        persist=not SMOKE,
    )
    publish_perf(
        "primitive_throughput",
        rows,
        params={
            "items": ITEMS,
            "num_small": NUM_SMALL,
            "repeats": REPEATS,
            "aggregate_repeats": AGGREGATE_REPEATS,
        },
        persist=not SMOKE,
    )
    if not SMOKE:
        for primitive in ("sample_sort", "aggregate"):
            col = _row(rows, primitive, "columnar")
            assert col["speedup"] >= 5.0, f"{primitive} columnar below 5x"


if __name__ == "__main__":
    for row in run_comparison():
        print(row)
