#!/usr/bin/env python3
"""CI smoke for the serve daemon: stream, verify, and byte-diff.

Spawns a real ``python -m repro serve`` daemon over stdio, streams a
deterministic mix of inserts, deletes, and queries, then checks:

1. **Correctness** — after every update batch, the daemon's canonical
   component labels equal a from-scratch
   :func:`repro.core.connectivity.sketch_components` run (same seed) on
   the surviving edge multiset (recomputed independently here).
2. **Determinism** — the full response transcript of a second,
   identically driven daemon is byte-identical to the first.
3. **Golden replies** — a third daemon, fed the raw request lines of
   ``tests/serve/golden_transcript.jsonl`` on stdin, answers every one
   with exactly the committed reply line.  Its lines arrive as a real
   client sends them (ending in ``\n`` or ``\r\n``, some malformed).

Run it with::

    python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.connectivity import sketch_components  # noqa: E402
from repro.mpc import Cluster, ModelConfig  # noqa: E402
from repro.primitives.edgestore import EdgeStore  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

GOLDEN = _REPO_ROOT / "tests" / "serve" / "golden_transcript.jsonl"

N = 24
SEED = 13
BATCHES = 5
PER_BATCH = 10


def scratch_labels(surviving: list[tuple[int, int]]) -> list[int]:
    cluster = Cluster(
        ModelConfig.heterogeneous(n=N, m=max(4, len(surviving))),
        rng=random.Random(555),
    )
    store = EdgeStore.create(cluster, surviving, name="smoke")
    return sketch_components(cluster, store, N, random.Random(SEED), copies=3)


def drive_daemon() -> tuple[list[str], int]:
    """Run one full daemon session; returns (transcript, checks done)."""
    rng = random.Random(99)
    live: list[tuple[int, int]] = []
    transcript: list[str] = []
    checks = 0
    env = {"PYTHONPATH": str(_REPO_ROOT / "src")}
    with ServeClient.spawn(["--n", str(N), "--seed", str(SEED)], env=env) as c:
        record = lambda op, **kw: transcript.append(  # noqa: E731
            str(sorted(c.request(op, **kw).items()))
        )
        record("ping")
        for _ in range(BATCHES):
            inserts = []
            for _ in range(PER_BATCH):
                u, v = rng.randrange(N), rng.randrange(N)
                inserts.append([u, v])
                if u != v:
                    live.append((min(u, v), max(u, v)))
            deletes = []
            for _ in range(min(3, len(live))):
                deletes.append(list(live.pop(rng.randrange(len(live)))))
            record("update", insert=inserts, delete=deletes)
            record("connected", u=rng.randrange(N), v=rng.randrange(N))
            record("components", labels=True)
            response = c.components(labels=True)
            expected = scratch_labels(sorted(live))
            assert response["labels"] == expected, (
                f"daemon labels diverged from from-scratch recompute:\n"
                f"  daemon:  {response['labels']}\n  scratch: {expected}"
            )
            checks += 1
        record("stats")
        record("shutdown")
    return transcript, checks


def replay_golden() -> int:
    """Pipe the golden requests through an uninitialized stdio daemon and
    compare its stdout with the golden replies, byte for byte."""
    pairs = [json.loads(line) for line in GOLDEN.read_text(encoding="ascii").splitlines()]
    requests = "".join(pair["request"] for pair in pairs)
    env = {
        **os.environ,
        "PYTHONPATH": str(_REPO_ROOT / "src"),
        "PYTHONIOENCODING": "utf-8",
    }
    daemon = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        input=requests.encode("utf-8"),
        capture_output=True,
        env=env,
        timeout=120,
        check=True,
    )
    replies = daemon.stdout.decode("utf-8").split("\n")
    assert replies.pop() == "", "the daemon's last reply does not end its line"
    for number, (pair, reply) in enumerate(zip(pairs, replies), 1):
        assert reply == pair["reply"], (
            f"golden line {number} {pair['request']!r}:\n"
            f"  daemon: {reply!r}\n  golden: {pair['reply']!r}"
        )
    assert len(replies) == len(pairs), f"{len(replies)} replies to {len(pairs)} requests"
    return len(pairs)


def main() -> int:
    first, checks = drive_daemon()
    second, _ = drive_daemon()
    assert first == second, "repeated daemon runs are not byte-identical"
    golden = replay_golden()
    print(
        f"serve smoke OK: {BATCHES} batches, {checks} differential "
        f"recompute checks, {len(first)}-line transcript byte-stable, "
        f"{golden} golden replies byte-identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
