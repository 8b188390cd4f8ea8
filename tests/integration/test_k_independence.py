"""The engine's tree, memory and storage work does not grow with the
small machines.

One Theorem 1.2 MST solve on the same graph at two ``num_small`` values
that give the same rounds: every tree level is one plan entry, the
columnar aggregation makes the same number of grouped reduces, and the
per-round memory record makes the same number of calls — at 16 small
machines as at 64.  The primitives store every machine's rows as one
sharded dataset, so ``Machine.put`` runs at most three times per added
machine, none of them per round: input placement, and the KKT sample
and light filter of the one sampling attempt.  The word sizer of
``repro.mpc.words`` (``word_size_many``, counted where the module calls
it too) sizes those three lists per machine, plus the one-message runs
of the boundary and notification rounds, one per machine each.
"""

from __future__ import annotations

import functools
import random
import sys
from collections import Counter

from repro.core import heterogeneous_mst
from repro.graph import generators
from repro.mpc import Cluster, Machine, ModelConfig, RoundLedger
from repro.mpc import words
from repro.primitives import columnar
from repro.primitives.broadcast import broadcast, converge_cast


def _patch_everywhere(monkeypatch, fn, wrapper) -> None:
    """Replace *fn* at every ``repro`` module attribute bound to it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, wrapper)


def solve_counts(monkeypatch, num_small: int) -> tuple[int, Counter, list[int]]:
    """``(rounds, call counts, plan entries of every tree level)`` of one
    solve."""
    counts: Counter = Counter()
    levels: list[int] = []
    trees: list[str] = []

    for fn in (broadcast, converge_cast):
        def tree(*args, _fn=fn, **kwargs):
            trees.append(_fn.__name__)
            try:
                return _fn(*args, **kwargs)
            finally:
                trees.pop()
        _patch_everywhere(monkeypatch, fn, functools.wraps(fn)(tree))

    execute_round = Cluster._execute_round

    def counted_round(self, plan):
        if trees:
            levels.append(len(plan._run_block))  # the plan's entries
        return execute_round(self, plan)

    monkeypatch.setattr(Cluster, "_execute_round", counted_round)

    def counting(owner, name, key):
        real = getattr(owner, name)

        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(columnar, "reduce_pairs", "grouped_reduce")
    counting(RoundLedger, "record_memory", "memory_record")
    counting(Machine, "put", "machine_put")
    counting(words, "word_size_many", "word_size_many")
    usage = Machine.usage

    def counted_usage(machine):
        counts["machine_usage"] += 1
        return usage.fget(machine)

    monkeypatch.setattr(Machine, "usage", property(counted_usage))

    rng = random.Random(3)
    graph = generators.random_connected_graph(200, 1600, rng).with_unique_weights(rng)
    config = ModelConfig.heterogeneous(n=graph.n, m=graph.m, num_small=num_small)
    result = heterogeneous_mst(graph, config=config, rng=random.Random(5))
    return result.cluster.ledger.rounds, counts, levels


def test_tree_levels_and_memory_records_do_not_grow_with_machines(monkeypatch):
    few = solve_counts(monkeypatch, 16)
    monkeypatch.undo()
    many = solve_counts(monkeypatch, 64)
    (rounds_few, counts_few, levels_few) = few
    (rounds_many, counts_many, levels_many) = many
    assert rounds_few == rounds_many
    # Every broadcast and array converge-cast level is one plan entry.
    assert levels_few == levels_many
    assert set(levels_few) == {1}
    for key in ("grouped_reduce", "memory_record", "machine_usage"):
        assert counts_few[key] == counts_many[key], key
    assert counts_few["grouped_reduce"] > 0 and counts_few["memory_record"] > 0
    assert counts_few["machine_usage"] == 0
    # Storage is one vector update per sharded dataset: what grows with
    # the machines is input placement and the one KKT attempt's lists.
    added = 64 - 16
    assert counts_many["machine_put"] - counts_few["machine_put"] <= 3 * added
    assert counts_many["word_size_many"] - counts_few["word_size_many"] <= 8 * added
