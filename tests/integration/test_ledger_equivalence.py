"""Ledger equivalence: the batched round engine must charge exactly what
the seed per-message engine charged.

The golden numbers below were captured by running the seed (pre-RoundPlan)
implementation on fixed inputs.  They pin rounds, total words, and the
violation set — the quantities the paper cares about — so any engine change
that shifts accounting fails loudly here.
"""

import hashlib
import random

import sort_oracle
from repro.core import heterogeneous_mst
from repro.graph import generators
from repro.mpc import Cluster, ModelConfig
from repro.primitives.columnar import EdgeBlock
from repro.primitives.sort import sample_sort

# Captured at the seed revision (per-message Cluster.exchange), commit
# 9932a36, with the exact inputs constructed below; re-pinned for the two
# intentional accounting bugfixes of PR 4:
#
# * empty RoundPlans no longer burn a 0-word ledger round (MST: 78 -> 74
#   rounds; every word, volume, and violation is unchanged);
# * `distribute_edges` shuffles with a dedicated placement RNG derived
#   from the cluster seed instead of the shared `self.rng` (the sort
#   fixture places its items differently, shifting the sampled splitter
#   set by a few words; the MST fixture is placement-identical).
MST_GOLDEN = {
    "rounds": 74,
    "total_words": 230358,
    "violation_count": 72,
    "violation_hash": "6edd8b4486c73225",
}
SORT_GOLDEN = {
    "rounds": 6,
    "total_words": 11256,
    "violation_count": 0,
    "counts_hash": "8a4e8db6b4e25cc4",
}


def _hash(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def test_heterogeneous_mst_ledger_matches_seed_engine():
    rng = random.Random(20260729)
    g = generators.random_connected_graph(48, 480, rng).with_unique_weights(rng)
    result = heterogeneous_mst(g, rng=random.Random(7))
    ledger = result.cluster.ledger
    violations = sorted(set(ledger.violations))
    assert ledger.rounds == MST_GOLDEN["rounds"]
    assert ledger.total_words == MST_GOLDEN["total_words"]
    assert len(violations) == MST_GOLDEN["violation_count"]
    assert _hash(violations) == MST_GOLDEN["violation_hash"]
    assert result.total_weight == 1323  # the algorithm's output is unchanged too


def _sort_golden_cluster() -> Cluster:
    config = ModelConfig.heterogeneous(n=64, m=512)
    cluster = Cluster(config, rng=random.Random(11))
    item_rng = random.Random(5)
    items = [(item_rng.randrange(10**6), i) for i in range(2000)]
    cluster.distribute_edges(items, name="d")
    return cluster


def test_sample_sort_ledger_matches_seed_engine():
    """``key=0`` on the object sort of ``tests/sort_oracle.py``: the seed
    engine's per-row sort, keyed by 1-tuples."""
    cluster = _sort_golden_cluster()
    layout = sort_oracle.sample_sort(cluster, "d", key=0)
    assert all(isinstance(m.get("d"), list) for m in cluster.smalls)
    ledger = cluster.ledger
    assert ledger.rounds == SORT_GOLDEN["rounds"]
    assert ledger.total_words == SORT_GOLDEN["total_words"]
    assert len(set(ledger.violations)) == SORT_GOLDEN["violation_count"]
    assert _hash([",".join(map(str, layout.counts))]) == SORT_GOLDEN["counts_hash"]
    # The sort itself is correct: globally ordered across machines.
    flat = [item for m in cluster.smalls for item in m.get("d", [])]
    assert [t[0] for t in flat] == sorted(t[0] for t in flat)


def test_columnar_sample_sort_ledger_matches_seed_engine():
    """The array twin of the test above: ``key=0`` on the sort in
    ``src`` (one cluster-wide rank sort) charges the seed engine's
    numbers, leaving typed blocks on the machines."""
    cluster = _sort_golden_cluster()
    layout = sample_sort(cluster, "d", key=0)
    ledger = cluster.ledger
    assert ledger.rounds == SORT_GOLDEN["rounds"]
    assert ledger.total_words == SORT_GOLDEN["total_words"]
    assert len(set(ledger.violations)) == SORT_GOLDEN["violation_count"]
    assert _hash([",".join(map(str, layout.counts))]) == SORT_GOLDEN["counts_hash"]
    held = [m.get("d") for m, count in zip(cluster.smalls, layout.counts) if count]
    assert held and all(isinstance(data, EdgeBlock) for data in held)
    flat = [item for m in cluster.smalls for item in m.get("d", [])]
    assert [t[0] for t in flat] == sorted(t[0] for t in flat)
