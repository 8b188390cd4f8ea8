"""Sketch substrate throughput: the array-native SketchBank vs the seed
object stack.

Builds the full AGM sketch state (every ``(phase, copy, level)`` one-sparse
counter for every touched vertex) for a 100k-edge random graph through
two implementations:

* *object (seed)*: a frozen transplant of the seed per-object stack, kept
  here because the library no longer has one — one ℓ₀-sampler object per
  ``(vertex, phase, copy)`` wrapping one one-sparse sketch object per
  level, updated per endpoint with per-object method dispatch, one Horner
  hash call per (endpoint, sampler) and one ``pow`` per touched level;
* *SketchBank*: ``SketchBank.update_edges`` — one vectorized Horner pass
  over edges x samplers, fingerprint powers from the per-spec power
  table, and one exact scatter of both endpoints' signed contributions
  into the ``(rows, slots)`` counter arrays.

Both must produce bit-identical counters (asserted).  The table reports
edge updates per second and the speedup over the seed path; the
acceptance bar is >= 5x.

Environment knobs (the CI smoke job shrinks both):
``REPRO_BENCH_SKETCH_EDGES`` (default 100000), ``REPRO_BENCH_SKETCH_N``
(default 2048), ``REPRO_BENCH_SMOKE=1`` (don't persist the results table).
"""

import os
import random
import sys
import time
from pathlib import Path

from repro.sketches import GraphSketchSpec, SketchBank
from repro.sketches.field import PRIME
from repro.env import env_flag

from _util import publish, publish_perf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
# The scalar hash and level live with the tests, as references.
from sketch_oracle import kwise_hash, trailing_zeros  # noqa: E402

EDGES = int(os.environ.get("REPRO_BENCH_SKETCH_EDGES", "100000"))
N = int(os.environ.get("REPRO_BENCH_SKETCH_N", "2048"))
SMOKE = env_flag("REPRO_BENCH_SMOKE")


# ----------------------------------------------------------------------
# Frozen seed implementation (pre-SketchBank object stack), so the
# baseline cannot silently change.
# ----------------------------------------------------------------------
class _SeedOneSparse:
    __slots__ = ("z", "s0", "s1", "s2")

    def __init__(self, z):
        self.z = z
        self.s0 = 0
        self.s1 = 0
        self.s2 = 0

    def update(self, index, delta):
        self.s0 += delta
        self.s1 += index * delta
        self.s2 = (self.s2 + delta * pow(self.z, index, PRIME)) % PRIME


class _SeedSampler:
    __slots__ = ("seeds", "levels")

    def __init__(self, seeds):
        self.seeds = seeds
        self.levels = [_SeedOneSparse(z) for z in seeds.z_points]

    def update(self, index, delta):
        if delta == 0:
            return
        depth = trailing_zeros(kwise_hash(self.seeds.level_hash, index + 1))
        top = min(depth, len(self.levels) - 1)
        for level in range(top + 1):
            self.levels[level].update(index, delta)


class _SeedVertex:
    __slots__ = ("spec", "vertex", "samplers")

    def __init__(self, spec, vertex):
        self.spec = spec
        self.vertex = vertex
        self.samplers = [
            [_SeedSampler(seed) for seed in phase_seeds]
            for phase_seeds in spec.seeds
        ]

    def add_edge(self, u, v):
        lo, hi = (u, v) if u < v else (v, u)
        identifier = lo * self.spec.n + hi
        sign = 1 if self.vertex == lo else -1
        for phase in self.samplers:
            for sampler in phase:
                sampler.update(identifier, sign)


def make_edges():
    rng = random.Random(42)
    edges = []
    seen = set()
    while len(edges) < EDGES:
        u, v = rng.randrange(N), rng.randrange(N)
        if u == v or (u, v) in seen or (v, u) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v))
    return edges


def build_seed_objects(spec, edges):
    sketches = {}
    for u, v in edges:
        for endpoint in (u, v):
            sketch = sketches.get(endpoint)
            if sketch is None:
                sketch = sketches[endpoint] = _SeedVertex(spec, endpoint)
            sketch.add_edge(u, v)
    return sketches


def build_bank(spec, edges):
    bank = SketchBank(spec)
    bank.update_edges(edges)
    return bank


def assert_equal_state(seed_sketches, bank):
    assert sorted(seed_sketches) == sorted(bank.vertices), "vertex sets differ"
    for vertex, sketch in seed_sketches.items():
        r = bank.row_of[vertex]
        s0, s1, s2 = bank.s0[r].tolist(), bank.s1[r].tolist(), bank.s2[r].tolist()
        index = 0
        for phase in sketch.samplers:
            for sampler in phase:
                for level in sampler.levels:
                    assert (
                        level.s0 == s0[index]
                        and level.s1 == s1[index]
                        and level.s2 == s2[index]
                    ), f"counter mismatch at vertex {vertex}, slot {index}"
                    index += 1


def run_comparison():
    spec = GraphSketchSpec.generate(N, random.Random(7), copies=3)
    edges = make_edges()

    start = time.perf_counter()
    seed_sketches = build_seed_objects(spec, edges)
    seed_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    bank = build_bank(spec, edges)
    bank_elapsed = time.perf_counter() - start
    assert_equal_state(seed_sketches, bank)

    return [
        {
            "implementation": "object stack (seed)",
            "edges": EDGES,
            "edges_per_sec": round(EDGES / seed_elapsed),
            "speedup": 1.0,
        },
        {
            "implementation": "SketchBank",
            "edges": EDGES,
            "edges_per_sec": round(EDGES / bank_elapsed),
            "speedup": round(seed_elapsed / bank_elapsed, 2),
        },
    ]


def test_sketch_throughput(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    publish(
        "sketch_throughput",
        f"Sketch substrate: edge updates per second, {EDGES}-edge graph (n={N})",
        rows,
        ["implementation", "edges", "edges_per_sec", "speedup"],
        persist=not SMOKE,
    )
    publish_perf(
        "sketch_throughput",
        rows,
        params={"edges": EDGES, "n": N, "copies": 3},
        persist=not SMOKE,
    )
    # The acceptance bar: >= 5x over the seed object path (small smoke
    # sizes don't amortize the batching).
    if not SMOKE:
        assert rows[1]["speedup"] >= 5.0


if __name__ == "__main__":
    for row in run_comparison():
        print(row)
