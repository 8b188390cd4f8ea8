"""Theorem C.1 on sparse row blocks costs exactly what the pair path cost.

The pair path is the pipeline before row blocks: every small machine
builds its own list bank, ships ``(vertex, row)`` pairs, and
``aggregate`` merges them one row at a time up the tree.  Both runs must
leave identical ledgers — every round record, the memory high-water
marks and the throttle's decisions — and identical labels, including
when an enforcing throttle splits a sum level into extra rounds, which
it does by row slices of the sparse blocks.
"""

import random

import pytest

from repro.core.connectivity import sketch_components
from repro.graph import generators
from repro.mpc import Cluster, ModelConfig
from repro.mpc.words import word_size
from repro.primitives.aggregate import aggregate
from repro.primitives.broadcast import broadcast
from repro.mpc.plan import RoundPlan
from repro.primitives.edgestore import EdgeStore
from repro.sketches import GraphSketchSpec, SparseRowBlock
from sketch_oracle import ListBank, list_boruvka


def pair_path_components(cluster, store, n, rng, copies=3, note="connectivity"):
    """Theorem C.1 with per-machine list banks and per-row merges."""
    spec = GraphSketchSpec.generate(n, rng, copies=copies)
    source = cluster.large.machine_id if cluster.has_large else cluster.small_ids[0]
    seed_words = sum(seeds.word_size() for phase in spec.seeds for seeds in phase)
    broadcast(cluster, source, ("sketch-seeds", seed_words), cluster.small_ids,
              note=f"{note}/seeds")
    partials = {}
    for machine in cluster.smalls:
        local = ListBank(spec)
        local.update_edges(machine.get(store.name, []))
        partials[machine.machine_id] = local.row_items()
    dst = source
    rows = aggregate(cluster, partials, lambda a, b: a.merge(b), dst=dst,
                     note=f"{note}/sum")
    bank = ListBank(spec)
    bank.insert_rows(rows.items())
    bank.add_vertices(range(n))
    dst_machine = cluster.machine(dst)
    if cluster.throttle is not None:
        cluster.throttle.note_bank(word_size(bank), dst_machine.capacity,
                                   note=f"{note}#bank")
    dst_machine.put(f"{note}#bank", bank)
    uf, _ = list_boruvka(bank)
    cluster.checkpoint_memory(f"{note}/boruvka")
    dst_machine.pop(f"{note}#bank")
    smallest = {}
    for v in range(n):
        smallest.setdefault(uf.find(v), v)
    return [smallest[uf.find(v)] for v in range(n)]


def run(components, config, graph):
    cluster = Cluster(config, rng=random.Random(3))
    store = EdgeStore.create(cluster, [(e[0], e[1]) for e in graph.edges], name="e")
    labels = components(cluster, store, graph.n, random.Random(5))
    records = [
        (r.note, r.total_words, r.max_sent, r.max_received, r.items, r.violations)
        for r in cluster.ledger.records
    ]
    throttle = cluster.throttle.summary() if cluster.throttle else None
    return labels, records, cluster.ledger.memory_high_water, throttle


@pytest.mark.parametrize("throttle", ["off", "enforce"])
def test_blocks_cost_what_pairs_cost(throttle):
    graph = generators.planted_components_graph(30, 3, 60, random.Random(1))
    config = ModelConfig.heterogeneous(n=graph.n, m=graph.m, throttle=throttle)
    blocks = run(sketch_components, config, graph)
    pairs = run(pair_path_components, config, graph)
    assert blocks == pairs
    labels, records, _, summary = blocks
    sums = [record for record in records if record[0] == "connectivity/sum/level"]
    if throttle == "enforce":
        # The sum levels do not fit the budgets: the controller splits
        # them, and both paths split them into the same rounds.
        assert summary["splits"] >= 1 and len(sums) > 2
    else:
        assert len(sums) <= 2
    assert len(set(labels)) == 3


def test_blocks_cost_what_pairs_cost_without_a_large_machine():
    graph = generators.planted_components_graph(24, 2, 40, random.Random(2))
    config = ModelConfig.sublinear(n=graph.n, m=graph.m)
    assert run(sketch_components, config, graph) == run(
        pair_path_components, config, graph
    )


def test_an_enforced_split_sends_row_slices_and_keeps_the_words(monkeypatch):
    """The split sum levels carry row slices of the sparse blocks: more
    rounds, but the words and items of the unsplit levels."""
    graph = generators.planted_components_graph(30, 3, 60, random.Random(1))
    sent = []
    send_batch = RoundPlan.send_batch

    def spy(plan, src, dst, items):
        if plan.note == "connectivity/sum/level":
            sent.append(items)
        return send_batch(plan, src, dst, items)

    monkeypatch.setattr(RoundPlan, "send_batch", spy)
    sums = {}
    for throttle in ("off", "enforce"):
        config = ModelConfig.heterogeneous(n=graph.n, m=graph.m, throttle=throttle)
        sent.clear()
        labels, records, _, _ = run(sketch_components, config, graph)
        assert len(set(labels)) == 3
        assert sent and all(isinstance(items, SparseRowBlock) for items in sent)
        levels = [r for r in records if r[0] == "connectivity/sum/level"]
        sums[throttle] = (len(levels), sum(r[1] for r in levels),
                          sum(r[4] for r in levels), min(len(b) for b in sent))
    (rounds_off, words_off, items_off, _), (rounds, words, items, smallest) = (
        sums["off"], sums["enforce"]
    )
    assert rounds > rounds_off and smallest < sums["off"][3]
    assert (words, items) == (words_off, items_off)
