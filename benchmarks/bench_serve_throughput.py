"""Serve-path load generator: streamed signed updates + query throughput.

Drives one in-process :class:`~repro.serve.service.GraphService` per leg
with a deterministic insert/delete stream (80% inserts, 20% deletes of
live edges, batched), then measures the query side on the refreshed
forest.  Three figures per leg:

* ``updates_per_sec`` — pure ingest: signed ``SketchBank.update_edges``
  over the shard banks, no refresh in the timed window;
* ``refresh_sec`` — the one lazy forest rebuild (merge shards + Borůvka)
  the first query after a batch pays, reported for context;
* ``queries_per_sec`` — ``connected(u, v)`` on the warm forest.

Legs sweep the streamed-update count from 10k to 1M (full mode; smoke
runs shrink to 1k/2k and skip persistence).  The artifact goes to
``results/perf/serve_throughput.json`` (``repro.perf/1``), which the
perf gate compares against the committed baseline — the honest numbers
of whatever machine last refreshed it.

Acceptance bar (skipped under smoke): warm queries answer at >= 50k/s —
they are label lookups, so anything slower means the lazy-refresh
contract broke and queries are paying sketch work.

``REPRO_BENCH_SERVE_UPDATES`` overrides the leg list (comma-separated).
"""

from __future__ import annotations

import os
import random
import time

from repro.env import env_flag
from repro.mpc.executor import shutdown_pools
from repro.serve import GraphService, ServeConfig

from _util import publish, publish_perf

SMOKE = env_flag("REPRO_BENCH_SMOKE")
N = 1024
BATCH = 1000
QUERIES = 1000 if SMOKE else 20000
_override = os.environ.get("REPRO_BENCH_SERVE_UPDATES")
if _override:
    LEGS = tuple(int(x) for x in _override.split(","))
elif SMOKE:
    LEGS = (1000, 2000)
else:
    LEGS = (10_000, 100_000, 1_000_000)


def _stream(updates: int, rng: random.Random):
    """Deterministic batched update stream: ~80% inserts, ~20% deletes."""
    live: list[tuple[int, int]] = []
    produced = 0
    while produced < updates:
        size = min(BATCH, updates - produced)
        deletes = []
        if live:
            for _ in range(min(size // 5, len(live))):
                deletes.append(live.pop(rng.randrange(len(live))))
        inserts = []
        for _ in range(size - len(deletes)):
            u, v = rng.randrange(N), rng.randrange(N)
            inserts.append((u, v))
            if u != v:
                live.append((min(u, v), max(u, v)))
        produced += size
        yield inserts, deletes


def _serve_once(updates: int) -> dict:
    service = GraphService(ServeConfig(n=N, seed=7, shards=4))
    rng = random.Random(updates)

    ingest = 0.0
    for inserts, deletes in _stream(updates, rng):
        start = time.perf_counter()
        service.update(insert=inserts, delete=deletes)
        ingest += time.perf_counter() - start

    start = time.perf_counter()
    view = service.components()
    refresh = time.perf_counter() - start

    pairs = [(rng.randrange(N), rng.randrange(N)) for _ in range(QUERIES)]
    start = time.perf_counter()
    hits = sum(service.connected(u, v) for u, v in pairs)
    query = time.perf_counter() - start

    return {
        "updates": updates,
        "batch": BATCH,
        "queries": QUERIES,
        "updates_per_sec": round(updates / ingest),
        "queries_per_sec": round(QUERIES / query),
        "refresh_sec": round(refresh, 4),
        "edges": sum(service._edges.values()),
        "components": view.num_components,
        "connected_hits": hits,
    }


def run_serve_throughput():
    rows = [_serve_once(updates) for updates in LEGS]
    shutdown_pools()  # bench epilogue: don't leave pools to atexit
    return rows


def test_serve_throughput(benchmark):
    rows = benchmark.pedantic(run_serve_throughput, rounds=1, iterations=1)
    publish(
        "serve_throughput",
        f"Dynamic-graph service: streamed signed updates (n={N}) "
        "and warm-forest queries",
        rows,
        ["updates", "batch", "updates_per_sec",
         "queries_per_sec", "refresh_sec", "edges", "components"],
        persist=not SMOKE,
    )
    publish_perf(
        "serve_throughput",
        rows,
        params={
            "n": N,
            "batch": BATCH,
            "queries": QUERIES,
            "cpus": os.cpu_count() or 1,
        },
        persist=not SMOKE,
    )
    if not SMOKE:
        for row in rows:
            assert row["queries_per_sec"] >= 50_000, (
                f"warm queries at {row['queries_per_sec']}/s — lazy refresh "
                "contract broken (queries are paying sketch work)"
            )


if __name__ == "__main__":
    for row in run_serve_throughput():
        print(row)
