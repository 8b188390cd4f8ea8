"""Per-round ledger pins: every round record, memory mark and throttle event.

``test_ledger_equivalence`` pins a run's totals; these pins digest a run
round by round, so an accounting change that keeps the totals but moves
a word, an item, a memory mark or a violation between rounds fails here.
Each digest covers:

* every round record — note, ``total_words``, ``max_sent``,
  ``max_received``, items and violations, in order;
* ``memory_high_water`` with its key order;
* the ledger's violation stream (checkpoint violations included);
* the throttle events, when a controller is attached.

The strict-mode pins hold the exception type, its message and the round
count at the raise.  The digests were captured from the per-machine
accounting engine (a usage sum per machine per round, one plan run per
tree edge) on the inputs built below.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

import numpy as np
import pytest

import aggregate_oracle

from repro.baselines.sublinear import (
    sublinear_boruvka_mst,
    sublinear_connectivity,
    sublinear_matching,
)
from repro.core import (
    exact_unweighted_mincut,
    heterogeneous_connectivity,
    heterogeneous_mst,
    heterogeneous_spanner,
)
from repro.core.spanner.clustering import build_clustering_graphs
from repro.experiments import registry
from repro.graph import generators
from repro.graph.graph import Graph
from repro.labeling.flow_labels import FlowLabel
from repro.mpc import (
    Cluster,
    CommunicationLimitExceeded,
    MemoryLimitExceeded,
    ModelConfig,
    RoundPlan,
)
from repro.primitives.aggregate import aggregate, count_items
from repro.primitives.broadcast import converge_cast
from repro.primitives.columnar import EdgeBlock
from repro.primitives.edgestore import EdgeStore
from repro.primitives.sort import sample_sort
from toy_block import PairBlock


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def ledger_digest(cluster: Cluster) -> dict:
    ledger = cluster.ledger
    records = [
        (
            record.index, record.note, record.total_words, record.max_sent,
            record.max_received, record.items,
            tuple(str(v) for v in record.violations),
        )
        for record in ledger.records
    ]
    digest = {
        "rounds": ledger.rounds,
        "records": _digest(records),
        "memory": _digest(list(ledger.memory_high_water.items())),
        "violations": _digest([str(v) for v in ledger.violations]),
    }
    if cluster.throttle is not None:
        digest["events"] = _digest([
            (e.round, e.kind, e.note, e.before, e.after, e.applied)
            for e in cluster.throttle.events
        ])
    return digest


# ----------------------------------------------------------------------
# Algorithms
# ----------------------------------------------------------------------
def run_mst() -> dict:
    rng = random.Random(20260729)
    graph = generators.random_connected_graph(96, 1200, rng).with_unique_weights(rng)
    config = ModelConfig.heterogeneous(n=graph.n, m=graph.m, gamma=0.4)
    result = heterogeneous_mst(graph, config=config, rng=random.Random(7))
    return {"weight": result.total_weight, **ledger_digest(result.cluster)}


def run_mst_with_violations() -> dict:
    rng = random.Random(20260729)
    graph = generators.random_connected_graph(48, 480, rng).with_unique_weights(rng)
    result = heterogeneous_mst(graph, rng=random.Random(7))
    return {"weight": result.total_weight, **ledger_digest(result.cluster)}


def run_connectivity() -> dict:
    graph = generators.multi_component_graph(120, 3, 240, random.Random(5))
    result = heterogeneous_connectivity(graph, rng=random.Random(9))
    return {"labels": _digest(result.labels), **ledger_digest(result.cluster)}


def run_sublinear_mst() -> dict:
    """Table 1's left column: Borůvka on the small machines, whose
    per-component minima are ``(weight, u, v, w)`` values."""
    rng = random.Random(31)
    graph = generators.random_connected_graph(80, 400, rng).with_unique_weights(rng)
    result = sublinear_boruvka_mst(graph, rng=random.Random(4))
    return {
        "edges": _digest(result.edges),
        "iterations": result.iterations,
        **ledger_digest(result.cluster),
    }


def run_sublinear_connectivity() -> dict:
    graph = generators.gnm_random_graph(90, 120, random.Random(6))
    result = sublinear_connectivity(graph, rng=random.Random(8))
    return {
        "labels": _digest(result.labels),
        "iterations": result.iterations,
        **ledger_digest(result.cluster),
    }


def run_sublinear_matching() -> dict:
    """The sublinear peeling matching: one rank per stored edge, the
    per-vertex minima as ``(vertex, rank)`` pairs, the flag-annotated
    survivors."""
    graph = generators.random_connected_graph(200, 1600, random.Random(1))
    result = sublinear_matching(graph, rng=random.Random(2))
    return {
        "matching": _digest(result.matching),
        "iterations": result.iterations,
        **ledger_digest(result.cluster),
    }


def run_clustering() -> dict:
    """Algorithm 5: the mask OR (``dominate``), the star-center pick
    (``sigma``) and the per-level marks over ``(scale, center)`` keys."""
    graph = generators.gnm_random_graph(60, 600, random.Random(21))
    config = ModelConfig.heterogeneous(n=graph.n, m=graph.m)
    cluster = Cluster(config, rng=random.Random(22))
    store = EdgeStore.create(cluster, list(graph.edges), name="e")
    result = build_clustering_graphs(cluster, store, graph.n, random.Random(23))
    return {
        "graphs": _digest((
            result.levels, sorted(result.sigma.items()), sorted(result.star_edges),
            sorted(result.level_vertex_counts.items()),
            sorted(result.level_edge_counts.items()), sorted(result.store.items()),
        )),
        **ledger_digest(cluster),
    }


def run_weighted_spanner() -> dict:
    """One weight class dense enough that level 6 runs modified
    Baswana–Sen, whose ``select`` keys are ``(vertex, center)`` tuples."""
    rng = random.Random(11)
    base = generators.gnm_random_graph(90, 3000, rng)
    graph = Graph(90, [(u, v, 64 + rng.randrange(64)) for u, v in base.edges])
    result = heterogeneous_spanner(graph, k=2, rng=random.Random(3))
    return {"edges": _digest(sorted(result.edges)), **ledger_digest(result.cluster)}


def run_mincut() -> dict:
    """Theorem C.3's contraction attempts, each with a 2-out step."""
    graph = generators.planted_cut_graph(24, 2, 4.0, random.Random(5))
    result = exact_unweighted_mincut(graph, rng=random.Random(6))
    return {"value": result.value, **ledger_digest(result.cluster)}


def run_label_sort_split() -> dict:
    """A sort of rows that carry flow labels beside int keys, on 64-word
    machines under an enforcing throttle: the route is split across
    rounds, its pieces cut by the words of their rows."""
    config = ModelConfig(n=16, m=64, num_small=6, constant=1.0, throttle="enforce")
    cluster = Cluster(config, rng=random.Random(7))
    rows = [(i % 7, i, FlowLabel(((i % 3, 0.5),) * (i % 4))) for i in range(120)]
    for i, machine in enumerate(cluster.smalls):
        machine.put("e", rows[i::6])
    layout = sample_sort(cluster, "e", key=(0,))
    return {
        "sorted": _digest((
            layout.counts, [list(m.get("e", [])) for m in cluster.smalls]
        )),
        **ledger_digest(cluster),
    }


def run_robustness(measure, n: int) -> dict:
    """One robustness point: every arm's cluster (calibration, off,
    advise, enforce), digested in run order."""
    arms = []
    run_arm = registry._run_throttle_arm

    def recording(pipeline, n, m, gamma, constant, mode, seed):
        cluster, output = run_arm(pipeline, n, m, gamma, constant, mode, seed)
        arms.append((mode, ledger_digest(cluster)))
        return cluster, output

    registry._run_throttle_arm = recording
    try:
        row = measure(n, random.Random(0), True)
    finally:
        registry._run_throttle_arm = run_arm
    return {"splits": row["splits"], "arms": arms}


# ----------------------------------------------------------------------
# Aggregation without a large machine
# ----------------------------------------------------------------------
def _sublinear_cluster(strict: bool = False) -> Cluster:
    config = ModelConfig.sublinear(n=256, m=4096, gamma=0.3, strict=strict)
    cluster = Cluster(config, rng=random.Random(13))
    item_rng = random.Random(17)
    edges = [(item_rng.randrange(200), item_rng.randrange(200)) for _ in range(3000)]
    cluster.distribute_edges(edges, name="e")
    return cluster


def run_small_destination_aggregates() -> dict:
    """The destination is small machine 0: it keeps its received blocks
    (or pairs) until the final combine."""
    cluster = _sublinear_cluster()
    assert not cluster.larges
    results = []
    pairs = {
        machine.machine_id: [(u, 1) for u, _ in machine.get("e")]
        for machine in cluster.smalls
    }
    results.append(sorted(aggregate(cluster, pairs, "sum", note="sum").items()))
    pairs = {
        machine.machine_id: [(v % 7, u) for u, v in machine.get("e")]
        for machine in cluster.smalls
    }
    results.append(sorted(aggregate(cluster, pairs, "min", note="min").items()))
    results.append(sorted(
        aggregate_oracle.aggregate(cluster, pairs, lambda a, b: a ^ b, note="xor").items()
    ))
    # Degrees as Claim 4 counts them: one (machine, key, 1) row per key.
    heads = [[v for _, v in machine.get("e")] for machine in cluster.smalls]
    keys = np.array([v for vs in heads for v in vs], dtype=np.int64)
    machines = np.repeat(cluster.small_ids, [len(vs) for vs in heads])
    degrees = EdgeBlock([machines, keys, np.ones(len(keys), dtype=np.int64)])
    results.append(sorted(aggregate(cluster, degrees, "sum", note="deg").items()))
    results.append(count_items(cluster, "e", note="count"))
    results.append(count_items(cluster, "e", lambda e: e[0] < e[1], note="count<"))
    # A list cast and an array cast without a combine.
    listed = converge_cast(
        cluster,
        {mid: [(mid, len(cluster.machine(mid).get("e")))] for mid in cluster.small_ids},
        cluster.small_ids[3],
        note="list-cast",
    )
    results.append(listed)
    firsts = [cluster.machine(mid).get("e")[:3] for mid in cluster.small_ids]
    arrays = converge_cast(
        cluster,
        (
            np.repeat(cluster.small_ids, [len(rows) for rows in firsts]),
            np.array([row for rows in firsts for row in rows], dtype=np.int64),
        ),
        cluster.small_ids[0],
        note="array-cast",
    )
    results.append(arrays.tolist())
    return {"results": _digest(results), **ledger_digest(cluster)}


# ----------------------------------------------------------------------
# Strict mode
# ----------------------------------------------------------------------
def _raised(fn, cluster_of) -> dict:
    try:
        fn()
    except (CommunicationLimitExceeded, MemoryLimitExceeded) as error:
        cluster = cluster_of()
        return {
            "type": type(error).__name__,
            "message": str(error),
            "violations": [str(v) for v in error.violations],
            "rounds": cluster.ledger.rounds,
            "memory": _digest(list(cluster.ledger.memory_high_water.items())),
        }
    raise AssertionError("expected a strict-mode raise")


def run_strict_traffic() -> dict:
    rng = random.Random(20260729)
    graph = generators.random_connected_graph(48, 480, rng).with_unique_weights(rng)
    config = ModelConfig.heterogeneous(n=graph.n, m=graph.m, strict=True)
    clusters = []
    real_init = Cluster.__init__

    def capture(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        clusters.append(self)

    Cluster.__init__ = capture
    try:
        return _raised(
            lambda: heterogeneous_mst(graph, config=config, rng=random.Random(7)),
            lambda: clusters[-1],
        )
    finally:
        Cluster.__init__ = real_init


def run_strict_round_memory() -> dict:
    """A hoard stored with the machine's own check off: the per-round
    check of ``execute`` catches it."""
    config = ModelConfig.heterogeneous(n=64, m=512, strict=True)
    cluster = Cluster(config, rng=random.Random(0))
    cluster.smalls[0].put("keep", [1, 2, 3])
    small = cluster.smalls[2]
    small.strict = False
    small.put("hoard", [0] * (small.capacity + 1))
    small.strict = True
    ping = RoundPlan(note="ping").send(cluster.small_ids[0], cluster.small_ids[1], "x")
    return _raised(lambda: cluster.execute(ping), lambda: cluster)


def run_strict_cast_buffer(arrays: bool) -> dict:
    """A converge-cast whose level buffer outgrows a small relay."""
    cluster = _sublinear_cluster(strict=True)
    width = cluster.config.small_capacity // 5
    items: Any = {
        mid: [(mid, j) for j in range(width // 2)] for mid in cluster.small_ids
    }
    if arrays:
        rows = [row for mid_rows in items.values() for row in mid_rows]
        items = (np.array([mid for mid, _ in rows]), np.array(rows, dtype=np.int64))
    return _raised(
        lambda: converge_cast(cluster, items, cluster.small_ids[0], note="hoard"),
        lambda: cluster,
    )


def run_strict_gather_buffer() -> dict:
    """The same overflow on a cast with a combine: the relay holds the
    list of its held and received blocks, which the combine joins."""
    cluster = _sublinear_cluster(strict=True)
    width = cluster.config.small_capacity // 5
    items = {
        mid: PairBlock([(mid, j) for j in range(width // 2)])
        for mid in cluster.small_ids
    }
    return _raised(
        lambda: converge_cast(
            cluster, items, cluster.small_ids[0],
            combine=lambda blocks: PairBlock(row for b in blocks for row in b.rows),
            note="g",
        ),
        lambda: cluster,
    )


RUNS = {
    "mst": run_mst,
    "mst_with_violations": run_mst_with_violations,
    "connectivity": run_connectivity,
    "sublinear_mst": run_sublinear_mst,
    "sublinear_connectivity": run_sublinear_connectivity,
    "sublinear_matching": run_sublinear_matching,
    "clustering": run_clustering,
    "weighted_spanner": run_weighted_spanner,
    "mincut": run_mincut,
    "label_sort_split": run_label_sort_split,
    "robustness_near_clique": lambda: run_robustness(
        registry._measure_robustness_near_clique, 48
    ),
    "robustness_power_law_gamma": lambda: run_robustness(
        registry._measure_robustness_power_law_gamma, 64
    ),
    "small_destination_aggregates": run_small_destination_aggregates,
    "strict_traffic": run_strict_traffic,
    "strict_round_memory": run_strict_round_memory,
    "strict_list_cast_buffer": lambda: run_strict_cast_buffer(False),
    "strict_array_cast_buffer": lambda: run_strict_cast_buffer(True),
    "strict_gather_buffer": run_strict_gather_buffer,
}


GOLDEN: dict = {'clustering': {'graphs': 'd91d3a39337a38fa',
                               'memory': 'b0c8724ca5a9bb2e',
                               'records': 'a06c6dbac392b192',
                               'rounds': 106,
                               'violations': 'abc57444127f072a'},
                'connectivity': {'labels': '83e66328b308e6f2',
                                 'memory': 'e6ae39d5dcc93dca',
                                 'records': '55848d1e173faf92',
                                 'rounds': 6,
                                 'violations': 'caffe714edf2a556'},
                'label_sort_split': {'events': '2f444eba8f28586d',
                                     'memory': 'fe0e51f567571b7b',
                                     'records': '1d451919be202b7b',
                                     'rounds': 12,
                                     'sorted': '90b9bf8e8a85222a',
                                     'violations': 'dd896d1134f723d1'},
                'mincut': {'memory': 'f166e1ce02bca96d',
                           'records': 'cdf222a205b0f5bf',
                           'rounds': 33,
                           'value': 2.0,
                           'violations': 'c168939574d62f4e'},
                'mst': {'memory': 'b1ffd4fd29e154e4',
                        'records': '2e15fbd7033081ed',
                        'rounds': 79,
                        'violations': '0c5a50e872793975',
                        'weight': 5426},
                'mst_with_violations': {'memory': 'ccc2af95874dc40a',
                                        'records': 'bc04b7351270abd8',
                                        'rounds': 74,
                                        'violations': '726d87970fcb5cb4',
                                        'weight': 1323},
                'robustness_near_clique': {'arms': [('advise',
                                                     {'events': '4f53cda18c2baa0c',
                                                      'memory': '10c566113c578178',
                                                      'records': '5fc1da492d8f89e2',
                                                      'rounds': 3,
                                                      'violations': '4f53cda18c2baa0c'}),
                                                    ('off',
                                                     {'memory': '10c566113c578178',
                                                      'records': '9c68378f65358818',
                                                      'rounds': 3,
                                                      'violations': '1d20def81cb40f26'}),
                                                    ('advise',
                                                     {'events': 'b9928cb2c5b8cea1',
                                                      'memory': '10c566113c578178',
                                                      'records': '9c68378f65358818',
                                                      'rounds': 3,
                                                      'violations': '1d20def81cb40f26'}),
                                                    ('enforce',
                                                     {'events': 'e2c3715dd23a9a91',
                                                      'memory': '10c566113c578178',
                                                      'records': '291d6f103ff9db37',
                                                      'rounds': 5,
                                                      'violations': '4f53cda18c2baa0c'})],
                                           'splits': 2},
                'robustness_power_law_gamma': {'arms': [('advise',
                                                         {'events': '4f53cda18c2baa0c',
                                                          'memory': '62ecb3e45708241f',
                                                          'records': '2e6fcf9729cf39b0',
                                                          'rounds': 5,
                                                          'violations': '4f53cda18c2baa0c'}),
                                                        ('off',
                                                         {'memory': '62ecb3e45708241f',
                                                          'records': 'c50a90f125d9e579',
                                                          'rounds': 5,
                                                          'violations': '779d85cf4198a1fd'}),
                                                        ('advise',
                                                         {'events': 'e45ddbcf9fe049cd',
                                                          'memory': '62ecb3e45708241f',
                                                          'records': 'c50a90f125d9e579',
                                                          'rounds': 5,
                                                          'violations': '779d85cf4198a1fd'}),
                                                        ('enforce',
                                                         {'events': 'a5d16cc6dd068a08',
                                                          'memory': '62ecb3e45708241f',
                                                          'records': '24f37145d5b5b70d',
                                                          'rounds': 6,
                                                          'violations': '4f53cda18c2baa0c'})],
                                               'splits': 1},
                'small_destination_aggregates': {'memory': '3a762666b5d44ef1',
                                                 'records': '3417046732cacb15',
                                                 'results': '34f62a6f7d2b2042',
                                                 'rounds': 40,
                                                 'violations': 'f2b1223c5a7dc44c'},
                'sublinear_connectivity': {'iterations': 4,
                                           'labels': 'f28e40ac9aa42986',
                                           'memory': '9194c8a180a97c9f',
                                           'records': 'c475e6d407f04803',
                                           'rounds': 51,
                                           'violations': '4f53cda18c2baa0c'},
                'sublinear_matching': {'iterations': 5,
                                       'matching': '260ad49525c787b2',
                                       'memory': '99efa8dabb655db4',
                                       'records': 'f38089af93786f71',
                                       'rounds': 82,
                                       'violations': 'cd4228f32b9d43da'},
                'sublinear_mst': {'edges': 'c36bd58ef01a4f67',
                                  'iterations': 4,
                                  'memory': '327133d512e23ebe',
                                  'records': 'e59ab3261a7aedca',
                                  'rounds': 51,
                                  'violations': '50643216d41b3f0b'},
                'strict_array_cast_buffer': {'memory': '1ff01f6fcbf1b162',
                                             'message': 'round 2 [hoard#cast-buffer]: machine 1 holds 1358 > '
                                                        'memory capacity 1351 (storing 1350 words in dataset '
                                                        "'hoard#cast-buffer' on the small machine)",
                                             'rounds': 1,
                                             'type': 'MemoryLimitExceeded',
                                             'violations': ['round 2 [hoard#cast-buffer]: machine 1 holds 1358 > '
                                                            'memory capacity 1351']},
                'strict_gather_buffer': {'memory': '1ff01f6fcbf1b162',
                                         'message': 'round 2 [g#cast-buffer]: machine 1 holds 1358 > memory '
                                                    "capacity 1351 (storing 1350 words in dataset 'g#cast-buffer' "
                                                    'on the small machine)',
                                         'rounds': 1,
                                         'type': 'MemoryLimitExceeded',
                                         'violations': ['round 2 [g#cast-buffer]: machine 1 holds 1358 > memory '
                                                        'capacity 1351']},
                'strict_list_cast_buffer': {'memory': '1ff01f6fcbf1b162',
                                            'message': 'round 2 [hoard#cast-buffer]: machine 1 holds 1358 > '
                                                       'memory capacity 1351 (storing 1350 words in dataset '
                                                       "'hoard#cast-buffer' on the small machine)",
                                            'rounds': 1,
                                            'type': 'MemoryLimitExceeded',
                                            'violations': ['round 2 [hoard#cast-buffer]: machine 1 holds 1358 > '
                                                           'memory capacity 1351']},
                'strict_round_memory': {'memory': 'abe894de67935028',
                                        'message': 'round 1 [ping]: machine 2 holds 1153 > memory capacity 1152',
                                        'rounds': 0,
                                        'type': 'MemoryLimitExceeded',
                                        'violations': ['round 1 [ping]: machine 2 holds 1153 > memory capacity '
                                                       '1152']},
                'strict_traffic': {'memory': 'e09657768677e704',
                                   'message': 'round 2 [arrange/sort/sample/level]: machine 0 received 1260 > '
                                              'capacity 864; round 2 [arrange/sort/sample/level]: machine 1 '
                                              'received 1368 > capacity 864',
                                   'rounds': 1,
                                   'type': 'CommunicationLimitExceeded',
                                   'violations': ['round 2 [arrange/sort/sample/level]: machine 0 received 1260 > '
                                                  'capacity 864',
                                                  'round 2 [arrange/sort/sample/level]: machine 1 received 1368 > '
                                                  'capacity 864']},
                'weighted_spanner': {'edges': '7e38155f42186a88',
                                     'memory': '15c45cdf67e4a50f',
                                     'records': '73dbbcdb96476562',
                                     'rounds': 124,
                                     'violations': '6b3f2fc69dd9ef0d'}}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_round_pins(name):
    assert RUNS[name]() == GOLDEN[name]


if __name__ == "__main__":  # print the pins of the code under test
    import pprint

    pprint.pprint({name: RUNS[name]() for name in sorted(RUNS)}, width=100)
