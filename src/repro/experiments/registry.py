"""The scenario registry: every benchmark, declared as data.

Each entry below replaces a hand-rolled ``benchmarks/bench_*.py`` sweep
loop (the scripts are now thin wrappers over this registry) or adds a cell
of the new workload matrix — the five graph families from
``repro.graph.generators`` (power-law, 2D grid/torus, planted-community,
disconnected multi-component, dense near-clique) run across the
heterogeneous, sublinear, near-linear and superlinear regimes.

Seeding convention: scenarios that migrated from a ``bench_*.py`` script
keep that script's internal per-point seeds so the published tables stay
comparable (exception: ``theorem31_superlinear_mst``'s old seed used the
process-salted ``hash()`` and was replaced with a stable per-point seed);
new scenarios use the Runner-provided per-point RNG.
"""

from __future__ import annotations

import functools
import math
import random

from ..analysis import predicted_rounds
from ..baselines import (
    sublinear_boruvka_mst,
    sublinear_connectivity,
    sublinear_matching,
)
from ..core import (
    approximate_mst_weight,
    approximate_weighted_mincut,
    build_apsp_oracle,
    exact_unweighted_mincut,
    filtering_matching,
    heterogeneous_coloring,
    heterogeneous_connectivity,
    heterogeneous_matching,
    heterogeneous_mis,
    heterogeneous_mst,
    heterogeneous_spanner,
    low_degree_phase_rounds,
    modified_baswana_sen_local,
    planned_boruvka_steps,
    prefix_thresholds,
    solve_one_vs_two_cycles,
)
from ..graph import generators
from ..graph.traversal import bfs_distances, component_labels
from ..graph.validation import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
    spanner_stretch,
    verify_mst,
)
from ..local.baswana_sen import baswana_sen
from ..local.mincut import min_cut_value
from ..local.mst import f_light_edges, kruskal, kruskal_edges
from ..mpc import Cluster, ModelConfig
from ..primitives.broadcast import broadcast
from ..primitives.disseminate import disseminate, holders_by_key
from ..primitives.edgestore import EdgeStore
from ..primitives.sort import sample_sort
from ..sketches import GraphSketchSpec, VertexSketch, components_from_sketches
from .scenario import Scenario, regime_config

__all__ = ["SCENARIOS", "all_scenarios", "get_scenario", "scenario_names"]

SCENARIOS: dict[str, Scenario] = {}


def _register(scenario: Scenario) -> Scenario:
    if scenario.name in SCENARIOS:
        raise ValueError(f"duplicate scenario {scenario.name!r}")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; run `python -m repro bench --list`"
        ) from None


def all_scenarios() -> list[Scenario]:
    return list(SCENARIOS.values())


def scenario_names() -> list[str]:
    return list(SCENARIOS)


# ----------------------------------------------------------------------
# Table 1 rows
# ----------------------------------------------------------------------

def _measure_table1_connectivity(n: int, rng: random.Random, quick: bool) -> dict:
    local = random.Random(n)
    graph = generators.planted_components_graph(n, 4, 2 * n, local)
    truth = component_labels(graph)
    het = heterogeneous_connectivity(graph, rng=random.Random(n + 1))
    assert het.labels == truth
    sub = sublinear_connectivity(graph, rng=random.Random(n + 2))
    assert sub.labels == truth
    return {
        "n": n,
        "m": graph.m,
        "het_rounds": het.rounds,
        "sub_rounds": sub.rounds,
        "theory_het": "O(1)",
        "theory_sub": "~log n",
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_table1_connectivity(rows) -> None:
    het_rounds = [row["het_rounds"] for row in rows]
    assert max(het_rounds) <= 8  # constant across the sweep
    assert rows[-1]["sub_rounds"] > max(het_rounds)


_register(Scenario(
    name="table1_connectivity",
    title="Table 1 / Connectivity: heterogeneous O(1) vs sublinear Borůvka",
    group="table1",
    problem="connectivity",
    graph_family="planted_components",
    regimes=("heterogeneous", "sublinear"),
    axis="n",
    points=(32, 64, 128),
    quick_points=(24, 48),
    measure=_measure_table1_connectivity,
    columns=("n", "m", "het_rounds", "sub_rounds", "theory_het", "theory_sub"),
    check=_check_table1_connectivity,
    paper_ref="Theorem C.1 vs [11]",
))


def _measure_table1_mst(ratio: int, rng: random.Random, quick: bool) -> dict:
    n = 48 if quick else 96
    local = random.Random(ratio)
    m = min(n * (n - 1) // 2, n * ratio)
    graph = generators.random_connected_graph(n, m, local).with_unique_weights(local)
    het = heterogeneous_mst(graph, rng=random.Random(ratio + 1))
    assert verify_mst(graph, het.edges)
    sub = sublinear_boruvka_mst(graph, rng=random.Random(ratio + 2))
    assert verify_mst(graph, sub.edges)
    return {
        "m/n": ratio,
        "het_steps": het.boruvka_steps,
        "het_rounds": het.rounds,
        "sub_iters": sub.iterations,
        "sub_rounds": sub.rounds,
        "theory_het~loglog(m/n)": predicted_rounds("mst", "heterogeneous", n=n, m=m),
        "theory_sub~log(n)": predicted_rounds("mst", "sublinear", n=n, m=m),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_table1_mst(rows) -> None:
    steps = [row["het_steps"] for row in rows]
    assert steps == sorted(steps)  # the log log curve
    assert steps[-1] <= 4
    assert rows[-1]["sub_rounds"] > 0


_register(Scenario(
    name="table1_mst",
    title="Table 1 / MST: heterogeneous O(log log(m/n)) vs sublinear O(log n)",
    group="table1",
    problem="mst",
    graph_family="random_connected",
    regimes=("heterogeneous", "sublinear"),
    axis="m/n",
    points=(2, 8, 32, 64),
    quick_points=(2, 8),
    measure=_measure_table1_mst,
    columns=("m/n", "het_steps", "het_rounds", "sub_iters", "sub_rounds",
             "theory_het~loglog(m/n)", "theory_sub~log(n)"),
    check=_check_table1_mst,
    paper_ref="Theorem 1.2 / Theorem 3.1",
))


def _measure_table1_mst_approx(epsilon: float, rng: random.Random, quick: bool) -> dict:
    local = random.Random(17)
    graph = generators.random_connected_graph(48, 220, local).with_unique_weights(local)
    truth = sum(e[2] for e in kruskal(graph))
    result = approximate_mst_weight(
        graph, epsilon=epsilon, rng=random.Random(int(epsilon * 100)), copies=2
    )
    return {
        "epsilon": epsilon,
        "true_mst": truth,
        "estimate": result.estimate,
        "ratio": result.estimate / truth,
        "thresholds": len(result.thresholds),
        "rounds": result.rounds,
        "theory": "O(1)",
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_table1_mst_approx(rows) -> None:
    for row in rows:
        assert 1.0 <= row["ratio"] <= 1.0 + row["epsilon"] + 0.4
        assert row["rounds"] <= 8


_register(Scenario(
    name="table1_mst_approx",
    title="Table 1 / (1+eps)-approx MST: O(1) rounds, estimate within band",
    group="table1",
    problem="mst_approx",
    graph_family="random_connected",
    regimes=("heterogeneous",),
    axis="epsilon",
    points=(1.0, 0.5, 0.25),
    quick_points=(1.0, 0.5),
    measure=_measure_table1_mst_approx,
    columns=("epsilon", "true_mst", "estimate", "ratio", "thresholds",
             "rounds", "theory"),
    check=_check_table1_mst_approx,
    paper_ref="Table 1 via [1] (AGM sketch thresholds)",
))


def _measure_table1_spanner(k: int, rng: random.Random, quick: bool) -> dict:
    n, m = (40, 500) if quick else (64, 1400)
    graph = generators.gnm_random_graph(n, m, random.Random(23))
    result = heterogeneous_spanner(graph, k=k, rng=random.Random(k))
    stretch = spanner_stretch(graph, result.edges)
    return {
        "k": k,
        "stretch_bound=6k-1": result.stretch_bound,
        "stretch_measured": stretch,
        "size": result.size,
        "size_budget~n^(1+1/k)": round(6 * n ** (1 + 1 / k)),
        "m": graph.m,
        "rounds": result.rounds,
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_table1_spanner(rows) -> None:
    for row in rows:
        assert row["stretch_measured"] <= row["stretch_bound=6k-1"]
        assert row["rounds"] <= 220  # constant-round construction
    sizes = [row["size"] for row in rows]
    assert sizes[-1] <= sizes[0]  # size shrinks (weakly) as k grows


_register(Scenario(
    name="table1_spanner",
    title="Table 1 / O(k)-spanner: O(1) rounds, size O(n^{1+1/k}), "
          "stretch <= 6k-1",
    group="table1",
    problem="spanner",
    graph_family="gnm",
    regimes=("heterogeneous",),
    axis="k",
    points=(1, 2, 3, 4),
    quick_points=(1, 2),
    measure=_measure_table1_spanner,
    columns=("k", "stretch_bound=6k-1", "stretch_measured", "size",
             "size_budget~n^(1+1/k)", "m", "rounds"),
    check=_check_table1_spanner,
    paper_ref="Theorem 1.3 / Section 4",
))


def _measure_table1_matching(density: int, rng: random.Random, quick: bool) -> dict:
    n = 40 if quick else 80
    local = random.Random(density)
    m = min(n * (n - 1) // 2, n * density)
    graph = generators.random_connected_graph(n, m, local)
    het = heterogeneous_matching(graph, rng=random.Random(density + 1))
    assert is_maximal_matching(graph, het.matching)
    sub = sublinear_matching(graph, rng=random.Random(density + 2))
    assert is_maximal_matching(graph, sub.matching)
    return {
        "avg_degree": round(graph.average_degree, 1),
        "het_rounds": het.rounds,
        "phase1_iters": het.phase1_iterations,
        "gu_charge": round(low_degree_phase_rounds(graph.max_degree), 1),
        "sub_rounds": sub.rounds,
        "theory_het~sqrt": predicted_rounds("matching", "heterogeneous", n=n, m=m),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_table1_matching(rows) -> None:
    het = [row["het_rounds"] for row in rows]
    assert het[-1] <= 3 * het[0]  # sqrt-log growth, never linear


_register(Scenario(
    name="table1_matching",
    title="Table 1 / maximal matching: O(sqrt(log d log log d)) heterogeneous",
    group="table1",
    problem="matching",
    graph_family="random_connected",
    regimes=("heterogeneous", "sublinear"),
    axis="m/n",
    points=(2, 8, 24),
    quick_points=(2, 8),
    measure=_measure_table1_matching,
    columns=("avg_degree", "het_rounds", "phase1_iters", "gu_charge",
             "sub_rounds", "theory_het~sqrt"),
    check=_check_table1_matching,
    paper_ref="Theorem 5.1",
))


def _measure_table1_mis(density: int, rng: random.Random, quick: bool) -> dict:
    n = 48 if quick else 90
    local = random.Random(density)
    m = min(n * (n - 1) // 2, n * density)
    graph = generators.random_connected_graph(n, m, local)
    result = heterogeneous_mis(graph, rng=random.Random(density + 1))
    assert is_maximal_independent_set(graph, result.vertices)
    return {
        "n": n,
        "max_degree": graph.max_degree,
        "mis_size": result.size,
        "iterations": result.iterations,
        "theory_iters~loglogΔ": len(prefix_thresholds(n, graph.max_degree)),
        "rounds": result.rounds,
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_table1_mis(rows) -> None:
    iterations = [row["iterations"] for row in rows]
    # log log growth: quadrupling the degree adds at most a few iterations.
    assert iterations[-1] <= iterations[0] + 4


_register(Scenario(
    name="table1_mis",
    title="Table 1 / MIS: O(log log Δ) iterations of O(1) rounds each",
    group="table1",
    problem="mis",
    graph_family="random_connected",
    regimes=("heterogeneous",),
    axis="m/n",
    points=(3, 10, 30),
    quick_points=(3, 10),
    measure=_measure_table1_mis,
    columns=("n", "max_degree", "mis_size", "iterations",
             "theory_iters~loglogΔ", "rounds"),
    check=_check_table1_mis,
    paper_ref="Theorem C.6 via [26]",
))


def _measure_table1_coloring(n: int, rng: random.Random, quick: bool) -> dict:
    local = random.Random(n)
    graph = generators.random_connected_graph(n, 6 * n, local)
    result = heterogeneous_coloring(graph, rng=random.Random(n + 1))
    assert is_proper_coloring(graph, result.colors, result.num_colors_allowed)
    return {
        "n": n,
        "m": graph.m,
        "delta+1": result.num_colors_allowed,
        "colors_used": len(set(result.colors)),
        "conflict_edges": result.conflict_edges,
        "attempts": result.attempts,
        "rounds": result.rounds,
        "theory": "O(1)",
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_table1_coloring(rows) -> None:
    assert all(row["rounds"] <= 30 for row in rows)
    assert all(row["colors_used"] <= row["delta+1"] for row in rows)


_register(Scenario(
    name="table1_coloring",
    title="Table 1 / (Δ+1)-coloring: O(1) rounds via palette sparsification",
    group="table1",
    problem="coloring",
    graph_family="random_connected",
    regimes=("heterogeneous",),
    axis="n",
    points=(40, 80, 120),
    quick_points=(32, 48),
    measure=_measure_table1_coloring,
    columns=("n", "m", "delta+1", "colors_used", "conflict_edges",
             "attempts", "rounds", "theory"),
    check=_check_table1_coloring,
    paper_ref="Theorem C.7 via [6]",
))


def _measure_table1_mincut(cut: int, rng: random.Random, quick: bool) -> dict:
    n = 30 if quick else 40
    local = random.Random(cut)
    graph = generators.planted_cut_graph(n, cut, 4.0, local)
    truth = min_cut_value(graph.n, graph.edges)
    exact = exact_unweighted_mincut(graph, rng=random.Random(cut + 1), attempts=14)
    weighted = graph.with_unique_weights(local)
    wtruth = min_cut_value(weighted.n, weighted.edges)
    approx = approximate_weighted_mincut(
        weighted, epsilon=0.4, rng=random.Random(cut + 2)
    )
    return {
        "planted_cut": cut,
        "true_cut": truth,
        "exact_value": exact.value,
        "exact_rounds": exact.rounds,
        "w_true": wtruth,
        "w_estimate": approx.value,
        "w_ratio": approx.value / wtruth,
        "w_rounds": approx.rounds,
        "_ledgers": {"exact": exact.cluster.ledger, "w": approx.cluster.ledger},
    }


def _check_table1_mincut(rows) -> None:
    for row in rows:
        assert row["exact_value"] == row["true_cut"]
        assert 0.55 <= row["w_ratio"] <= 1.45
        assert row["w_rounds"] <= 12


_register(Scenario(
    name="table1_mincut",
    title="Table 1 / min-cut: exact unweighted O(1) + (1±eps) weighted O(1)",
    group="table1",
    problem="mincut",
    graph_family="planted_cut",
    regimes=("heterogeneous",),
    axis="planted_cut",
    points=(2, 4, 6),
    quick_points=(2, 4),
    measure=_measure_table1_mincut,
    columns=("planted_cut", "true_cut", "exact_value", "exact_rounds",
             "w_true", "w_estimate", "w_ratio", "w_rounds"),
    check=_check_table1_mincut,
    paper_ref="Theorems C.3 / C.4",
))


# ----------------------------------------------------------------------
# Figures and per-theorem experiments
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _fig1_setup(n: int, m: int, k: int):
    """The fixed-seed graph and classic Baswana–Sen reference, shared by
    every sweep point of ``fig1_baswana_sen``."""
    graph = generators.gnm_random_graph(n, m, random.Random(31))
    return graph, baswana_sen(graph, k, random.Random(0))


def _measure_fig1(p, rng: random.Random, quick: bool) -> dict:
    n, k, m = (40, 2, 400) if quick else (70, 2, 1500)
    trials = 2 if quick else 5
    graph, classic = _fig1_setup(n, m, k)
    edges = [(e[0], e[1]) for e in graph.edges]
    if p == "classic":
        return {
            "p": "classic",
            "recluster": len(classic.reclustered_edges),
            "removal": len(classic.removal_edges),
            "size": classic.size,
            "blowup_vs_classic": 1.0,
            "stretch": spanner_stretch(graph, classic.spanner),
        }
    sizes, reclusters, removals = [], [], []
    for seed in range(trials):
        result = modified_baswana_sen_local(n, edges, k, p, random.Random(seed))
        sizes.append(len(result["spanner"]))
        reclusters.append(len(result["recluster_edges"]))
        removals.append(len(result["removal_edges"]))
    stretch = spanner_stretch(
        graph, modified_baswana_sen_local(n, edges, k, p, random.Random(99))["spanner"]
    )
    return {
        "p": p,
        "recluster": sum(reclusters) / trials,
        "removal": sum(removals) / trials,
        "size": sum(sizes) / trials,
        "blowup_vs_classic": (sum(sizes) / trials) / classic.size,
        "stretch": stretch,
    }


def _check_fig1(rows) -> None:
    sampled = rows[1:]
    # Re-cluster edges shrink and removal edges grow as p decreases.
    assert sampled[-1]["recluster"] <= sampled[0]["recluster"]
    assert sampled[-1]["removal"] >= sampled[0]["removal"]
    # Stretch bound (2k-1 = 3) holds at every p.
    assert all(row["stretch"] <= 3.0 for row in rows)
    # Blow-up stays far below the worst-case 1/p envelope.
    assert sampled[-1]["blowup_vs_classic"] <= 1.0 / 0.1


_register(Scenario(
    name="fig1_baswana_sen",
    title="Figure 1 / Lemma 4.3: smaller p => fewer re-clusterings, more "
          "removal edges, ~1/p size blow-up, stretch still 2k-1",
    group="figure",
    problem="spanner",
    graph_family="gnm",
    regimes=("heterogeneous",),
    axis="p",
    points=("classic", 1.0, 0.5, 0.25, 0.1),
    quick_points=("classic", 1.0, 0.25),
    measure=_measure_fig1,
    columns=("p", "recluster", "removal", "size", "blowup_vs_classic",
             "stretch"),
    check=_check_fig1,
    paper_ref="Figure 1 / Lemma 4.3",
))


def _measure_corollary42(n: int, rng: random.Random, quick: bool) -> dict:
    graph = generators.random_connected_graph(n, 5 * n, random.Random(n))
    oracle = build_apsp_oracle(graph, rng=random.Random(n + 1))
    worst = 1.0
    total_ratio = 0.0
    pairs = 0
    for source in range(0, n, max(1, n // 10)):
        truth = bfs_distances(graph, source)
        approx = oracle.distances_from(source)
        for v in range(n):
            if truth[v] > 0 and not math.isinf(truth[v]):
                ratio = approx[v] / truth[v]
                worst = max(worst, ratio)
                total_ratio += ratio
                pairs += 1
    return {
        "n": n,
        "spanner_size": oracle.spanner.size,
        "m": graph.m,
        "k": oracle.spanner.k,
        "stretch_bound": oracle.stretch_bound,
        "worst_stretch": worst,
        "mean_stretch": total_ratio / pairs,
        "rounds": oracle.rounds,
    }


def _check_corollary42(rows) -> None:
    for row in rows:
        assert row["worst_stretch"] <= row["stretch_bound"]
        assert row["spanner_size"] <= row["m"]


_register(Scenario(
    name="corollary42_apsp",
    title="Corollary 4.2: O(log n)-approx APSP from an O~(n)-size spanner",
    group="theorem",
    problem="spanner",
    graph_family="random_connected",
    regimes=("heterogeneous",),
    axis="n",
    points=(40, 80),
    quick_points=(30,),
    measure=_measure_corollary42,
    columns=("n", "spanner_size", "m", "k", "stretch_bound", "worst_stretch",
             "mean_stretch", "rounds"),
    check=_check_corollary42,
    paper_ref="Corollary 4.2",
))


def _measure_cycle(n: int, rng: random.Random, quick: bool) -> dict:
    local = random.Random(n)
    graph, truth = generators.one_or_two_cycles(n, local)
    het = solve_one_vs_two_cycles(graph, rng=random.Random(n + 1))
    assert het.num_cycles == truth
    sub = sublinear_connectivity(graph, rng=random.Random(n + 2))
    assert len(set(sub.labels)) == truth
    return {
        "n": n,
        "true_cycles": truth,
        "het_rounds": het.rounds,
        "sub_rounds": sub.rounds,
        "theory_sub~log n": round(math.log2(n), 1),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_cycle(rows) -> None:
    assert all(row["het_rounds"] == 1 for row in rows)
    sub_rounds = [row["sub_rounds"] for row in rows]
    assert sub_rounds[-1] > sub_rounds[0]  # grows with n


_register(Scenario(
    name="cycle_problem",
    title="1-vs-2 cycles: trivial (1 round) with one near-linear machine",
    group="theorem",
    problem="cycle",
    graph_family="cycles",
    regimes=("heterogeneous", "sublinear"),
    axis="n",
    points=(32, 64, 128, 256),
    quick_points=(32, 64),
    measure=_measure_cycle,
    columns=("n", "true_cycles", "het_rounds", "sub_rounds",
             "theory_sub~log n"),
    check=_check_cycle,
    paper_ref="Section 1 (the 1-vs-2 cycle problem)",
))


def _measure_theorem31(f, rng: random.Random, quick: bool) -> dict:
    n, m = (48, 700) if quick else (90, 2700)
    local = random.Random(37)
    graph = generators.random_connected_graph(n, m, local).with_unique_weights(local)
    if f is None:
        config = ModelConfig.heterogeneous(n=n, m=m)
        label = "1/log n"
    else:
        config = ModelConfig.heterogeneous_superlinear(n=n, m=m, f=f)
        label = f
    seed = 3100 + round((f or 0.0) * 100)
    result = heterogeneous_mst(graph, config=config, rng=random.Random(seed))
    assert verify_mst(graph, result.edges)
    return {
        "f": label,
        "planned_steps": planned_boruvka_steps(n, m, config.f),
        "measured_steps": result.boruvka_steps,
        "rounds": result.rounds,
        "theory~log(log(m/n)/(f log n))": predicted_rounds(
            "mst", "heterogeneous", n=n, m=m, f=config.f
        ),
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_theorem31(rows) -> None:
    steps = [row["measured_steps"] for row in rows]
    assert steps == sorted(steps, reverse=True)
    assert steps[-1] == 0  # f = 1: pure sampling, O(1) rounds


_register(Scenario(
    name="theorem31_superlinear_mst",
    title="Theorem 3.1: larger large-machine memory (f) => fewer Borůvka steps",
    group="theorem",
    problem="mst",
    graph_family="random_connected",
    regimes=("heterogeneous", "superlinear"),
    axis="f",
    points=(None, 0.25, 0.5, 1.0),  # None = near-linear (f = 1/log n)
    quick_points=(None, 1.0),
    measure=_measure_theorem31,
    columns=("f", "planned_steps", "measured_steps", "rounds",
             "theory~log(log(m/n)/(f log n))"),
    check=_check_theorem31,
    paper_ref="Theorem 3.1",
))


def _measure_theorem55(f: float, rng: random.Random, quick: bool) -> dict:
    n, m = (40, 600) if quick else (70, 2000)
    graph = generators.random_connected_graph(n, m, random.Random(41))
    config = ModelConfig.heterogeneous_superlinear(n=n, m=m, f=f)
    result = filtering_matching(graph, config=config, rng=random.Random(int(f * 10)))
    assert is_maximal_matching(graph, result.matching)
    return {
        "f": f,
        "levels": result.levels,
        "rounds": result.rounds,
        "theory~1/f": math.ceil(1.0 / f),
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_theorem55(rows) -> None:
    levels = [row["levels"] for row in rows]
    assert levels == sorted(levels, reverse=True)
    rounds = [row["rounds"] for row in rows]
    assert rounds == sorted(rounds, reverse=True)


_register(Scenario(
    name="theorem55_filtering",
    title="Theorem 5.5: filtering matching, recursion depth ~ 1/f",
    group="theorem",
    problem="matching",
    graph_family="random_connected",
    regimes=("superlinear",),
    axis="f",
    points=(0.25, 0.5, 1.0),
    quick_points=(0.5, 1.0),
    measure=_measure_theorem55,
    columns=("f", "levels", "rounds", "theory~1/f"),
    check=_check_theorem55,
    paper_ref="Theorem 5.5",
))


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------

def _measure_ablation_gamma(gamma: float, rng: random.Random, quick: bool) -> dict:
    n, m = (48, 600) if quick else (100, 2000)
    local = random.Random(59)
    graph = generators.random_connected_graph(n, m, local).with_unique_weights(local)
    config = ModelConfig.heterogeneous(n=n, m=m, gamma=gamma)
    cluster = Cluster(config, rng=random.Random(int(gamma * 100)))
    store = EdgeStore.create(cluster, graph.edges)

    before = cluster.ledger.rounds
    store.sort(key=lambda e: e[2])
    sort_rounds = cluster.ledger.rounds - before

    before = cluster.ledger.rounds
    store.aggregate(lambda e: (e[0], 1), "sum")
    aggregate_rounds = cluster.ledger.rounds - before

    before = cluster.ledger.rounds
    store.annotate({v: v for v in range(n)})
    annotate_rounds = cluster.ledger.rounds - before

    return {
        "gamma": gamma,
        "machines": config.num_small,
        "capacity": config.small_capacity,
        "fanout": config.tree_fanout,
        "sort_rounds": sort_rounds,
        "aggregate_rounds": aggregate_rounds,
        "annotate_rounds": annotate_rounds,
        "_ledgers": {"": cluster.ledger},
    }


def _check_ablation_gamma(rows) -> None:
    machines = [row["machines"] for row in rows]
    assert machines == sorted(machines, reverse=True)  # fewer, fatter machines
    # Deeper trees at small gamma: aggregation cannot get cheaper as gamma
    # shrinks.
    assert rows[0]["aggregate_rounds"] >= rows[-1]["aggregate_rounds"]


_register(Scenario(
    name="ablation_gamma",
    title="Ablation / γ: machine count vs capacity vs primitive round costs",
    group="ablation",
    problem="primitives",
    graph_family="random_connected",
    regimes=("heterogeneous",),
    axis="gamma",
    points=(0.25, 0.5, 0.75),
    quick_points=(0.25, 0.75),
    measure=_measure_ablation_gamma,
    columns=("gamma", "machines", "capacity", "fanout", "sort_rounds",
             "aggregate_rounds", "annotate_rounds"),
    check=_check_ablation_gamma,
    paper_ref="Section 2 / Claims 2-3",
))


def _measure_ablation_kkt(p: float, rng: random.Random, quick: bool) -> dict:
    n, m = (40, 600) if quick else (80, 1600)
    trials = 2 if quick else 5
    local = random.Random(47)
    graph = generators.random_connected_graph(n, m, local).with_unique_weights(local)
    sampled_sizes, light_counts = [], []
    for seed in range(trials):
        coin = random.Random(seed)
        sample = [e for e in graph.edges if coin.random() < p]
        forest = kruskal_edges(n, sample)
        light = f_light_edges(n, forest, graph.edges)
        sampled_sizes.append(len(sample))
        light_counts.append(len(light))
    return {
        "p": p,
        "sampled_edges~pm": sum(sampled_sizes) / trials,
        "pm": p * m,
        "f_light~n/p": sum(light_counts) / trials,
        "n/p": n / p,
        "total_on_large": sum(sampled_sizes) / trials + sum(light_counts) / trials,
    }


def _check_ablation_kkt(rows) -> None:
    for row in rows:
        # KKT expectation bound with a generous constant.
        assert row["f_light~n/p"] <= 3 * row["n/p"]
    # The two curves move in opposite directions.
    assert rows[0]["sampled_edges~pm"] < rows[-1]["sampled_edges~pm"]
    assert rows[0]["f_light~n/p"] > rows[-1]["f_light~n/p"]


_register(Scenario(
    name="ablation_kkt_sampling",
    title="Ablation / Lemma 3.2: sampled edges ~ pm vs F-light edges ~ n/p",
    group="ablation",
    problem="mst",
    graph_family="random_connected",
    regimes=("heterogeneous",),
    axis="p",
    points=(0.05, 0.1, 0.25, 0.5),
    quick_points=(0.1, 0.5),
    measure=_measure_ablation_kkt,
    columns=("p", "sampled_edges~pm", "pm", "f_light~n/p", "n/p",
             "total_on_large"),
    check=_check_ablation_kkt,
    paper_ref="Lemma 3.2 (KKT sampling)",
))


def _measure_ablation_copies(copies: int, rng: random.Random, quick: bool) -> dict:
    n = 40
    trials = 4 if quick else 12
    graph = generators.planted_components_graph(n, 4, 40, random.Random(53))
    truth = component_labels(graph)
    successes = 0
    for seed in range(trials):
        local = random.Random(1000 * copies + seed)
        spec = GraphSketchSpec.generate(n, local, copies=copies)
        sketches = {v: VertexSketch(spec, v) for v in range(n)}
        for u, v in graph.edges:
            sketches[u].add_edge(u, v)
            sketches[v].add_edge(u, v)
        if components_from_sketches(spec, sketches) == truth:
            successes += 1
    words = VertexSketch(
        GraphSketchSpec.generate(n, random.Random(0), copies=copies), 0
    ).word_size()
    return {
        "copies": copies,
        "success_rate": successes / trials,
        "sketch_words_per_vertex": words,
    }


def _check_ablation_copies(rows) -> None:
    rates = [row["success_rate"] for row in rows]
    assert rates[-1] >= rates[0]
    assert rates[-1] >= 0.9  # the default (3 copies) is reliable
    words = [row["sketch_words_per_vertex"] for row in rows]
    assert words == sorted(words)  # the price: linearly larger sketches


_register(Scenario(
    name="ablation_sketch_copies",
    title="Ablation / Theorem C.1: sampler copies vs connectivity success rate",
    group="ablation",
    problem="connectivity",
    graph_family="planted_components",
    regimes=("heterogeneous",),
    axis="copies",
    points=(1, 2, 3),
    quick_points=(1, 3),
    measure=_measure_ablation_copies,
    columns=("copies", "success_rate", "sketch_words_per_vertex"),
    check=_check_ablation_copies,
    paper_ref="Theorem C.1 (ℓ₀-sampler copies)",
))


# ----------------------------------------------------------------------
# Workload matrix: new graph families x ModelConfig regimes
# ----------------------------------------------------------------------

_WORKLOAD_REGIMES = ("heterogeneous", "sublinear", "near_linear", "superlinear")


def _workload_point(graph, regime: str, rng: random.Random) -> dict:
    """Connectivity (the paper's flagship O(1) result) on one workload
    graph under one regime; every regime must label components exactly."""
    truth = component_labels(graph)
    config = regime_config(regime, n=graph.n, m=graph.m)
    if regime == "sublinear":
        result = sublinear_connectivity(graph, config=config, rng=rng)
    else:
        result = heterogeneous_connectivity(graph, config=config, rng=rng)
    assert result.labels == truth
    return {
        "regime": regime,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "components": len(set(truth)),
        "rounds": result.rounds,
        "_ledgers": {"": result.cluster.ledger},
    }


def _check_workload(rows) -> None:
    by_regime = {row["regime"]: row for row in rows}
    # A large machine turns connectivity into O(1) rounds; the sublinear
    # regime pays for Borůvka iterations.
    het = by_regime["heterogeneous"]["rounds"]
    assert het <= 8
    assert by_regime["sublinear"]["rounds"] > het


_WORKLOAD_COLUMNS = ("regime", "n", "m", "max_degree", "components", "rounds")


def _register_workload(
    name: str, family: str, title: str, build, group: str = "workload"
) -> None:
    def measure(regime: str, rng: random.Random, quick: bool) -> dict:
        return _workload_point(build(rng, quick), regime, rng)

    _register(Scenario(
        name=name,
        title=title,
        group=group,
        problem="connectivity",
        graph_family=family,
        regimes=_WORKLOAD_REGIMES,
        axis="regime",
        points=_WORKLOAD_REGIMES,
        quick_points=_WORKLOAD_REGIMES,
        measure=measure,
        columns=_WORKLOAD_COLUMNS,
        check=_check_workload,
        paper_ref="Theorem C.1 across Section 2 / Section 6 regimes",
    ))


_register_workload(
    "workload_power_law",
    "power_law",
    "Workload matrix / power-law (Chung–Lu) graphs across regimes",
    lambda rng, quick: generators.power_law_graph(
        64 if quick else 128, random.Random(7), exponent=2.5, avg_degree=4.0
    ),
)

_register_workload(
    "workload_grid",
    "grid",
    "Workload matrix / 2D torus grid across regimes",
    lambda rng, quick: generators.torus_graph(*( (6, 8) if quick else (11, 12) )),
)

_register_workload(
    "workload_community",
    "planted_community",
    "Workload matrix / planted-community graphs across regimes",
    lambda rng, quick: generators.planted_community_graph(
        60 if quick else 120, 6, 0.3, 10, random.Random(11)
    ),
)

_register_workload(
    "workload_multi_component",
    "multi_component",
    "Workload matrix / disconnected multi-component graphs across regimes",
    lambda rng, quick: generators.multi_component_graph(
        60 if quick else 120, 5, 4.0, random.Random(13)
    ),
)

_register_workload(
    "workload_near_clique",
    "near_clique",
    "Workload matrix / dense near-clique graphs across regimes",
    lambda rng, quick: generators.near_clique_graph(
        32 if quick else 48, 20, random.Random(19)
    ),
)


# ----------------------------------------------------------------------
# Large-n regime: the columnar round engine makes sweeps 10-50x the
# classic sizes affordable, where the heterogeneous curves visibly
# separate from the sublinear baselines.
# ----------------------------------------------------------------------

def _check_large_connectivity(rows) -> None:
    het_rounds = [row["het_rounds"] for row in rows]
    assert max(het_rounds) <= 8  # O(1) stays flat across a 4x n sweep
    # At large n the sublinear Boruvka baseline is far above the constant.
    assert all(row["sub_rounds"] > max(het_rounds) for row in rows)


_register(Scenario(
    name="table1_connectivity_large",
    title="Large-n / connectivity: O(1) heterogeneous vs ~log n sublinear "
          "at 10-50x classic sweep sizes",
    group="large",
    problem="connectivity",
    graph_family="planted_components",
    regimes=("heterogeneous", "sublinear"),
    axis="n",
    points=(320, 640, 1280),
    quick_points=(160, 320),
    measure=_measure_table1_connectivity,
    columns=("n", "m", "het_rounds", "sub_rounds", "theory_het", "theory_sub"),
    check=_check_large_connectivity,
    paper_ref="Theorem C.1 vs [11], large-n regime",
))


def _measure_large_mst(ratio: int, rng: random.Random, quick: bool) -> dict:
    n = 320 if quick else 960
    local = random.Random(ratio)
    m = min(n * (n - 1) // 2, n * ratio)
    graph = generators.random_connected_graph(n, m, local).with_unique_weights(local)
    het = heterogeneous_mst(graph, rng=random.Random(ratio + 1))
    assert verify_mst(graph, het.edges)
    sub = sublinear_boruvka_mst(graph, rng=random.Random(ratio + 2))
    assert verify_mst(graph, sub.edges)
    return {
        "m/n": ratio,
        "het_steps": het.boruvka_steps,
        "het_rounds": het.rounds,
        "sub_iters": sub.iterations,
        "sub_rounds": sub.rounds,
        "theory_het~loglog(m/n)": predicted_rounds("mst", "heterogeneous", n=n, m=m),
        "theory_sub~log(n)": predicted_rounds("mst", "sublinear", n=n, m=m),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_large_mst(rows) -> None:
    steps = [row["het_steps"] for row in rows]
    assert steps == sorted(steps)  # the log log curve survives scale
    assert steps[-1] <= 5
    # Borůvka phase structure: O(log log(m/n)) heterogeneous steps stay
    # below the sublinear baseline's ~log n iterations at every density.
    assert all(row["sub_iters"] > row["het_steps"] for row in rows)
    assert all(row["sub_rounds"] > 0 for row in rows)


_register(Scenario(
    name="table1_mst_large",
    title="Large-n / MST: O(log log(m/n)) heterogeneous vs O(log n) "
          "sublinear at n=960",
    group="large",
    problem="mst",
    graph_family="random_connected",
    regimes=("heterogeneous", "sublinear"),
    axis="m/n",
    points=(2, 8, 32),
    quick_points=(2, 8),
    measure=_measure_large_mst,
    columns=("m/n", "het_steps", "het_rounds", "sub_iters", "sub_rounds",
             "theory_het~loglog(m/n)", "theory_sub~log(n)"),
    check=_check_large_mst,
    paper_ref="Theorem 1.2 / Theorem 3.1, large-n regime",
))


def _measure_large_matching(density: int, rng: random.Random, quick: bool) -> dict:
    n = 320 if quick else 800
    local = random.Random(density)
    m = min(n * (n - 1) // 2, n * density)
    graph = generators.random_connected_graph(n, m, local)
    het = heterogeneous_matching(graph, rng=random.Random(density + 1))
    assert is_maximal_matching(graph, het.matching)
    sub = sublinear_matching(graph, rng=random.Random(density + 2))
    assert is_maximal_matching(graph, sub.matching)
    return {
        "avg_degree": round(graph.average_degree, 1),
        "het_rounds": het.rounds,
        "phase1_iters": het.phase1_iterations,
        "gu_charge": round(low_degree_phase_rounds(graph.max_degree), 1),
        "sub_rounds": sub.rounds,
        "theory_het~sqrt": predicted_rounds("matching", "heterogeneous", n=n, m=m),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_large_matching(rows) -> None:
    het = [row["het_rounds"] for row in rows]
    assert het[-1] <= 3 * het[0]  # sqrt-log growth, never linear


_register(Scenario(
    name="table1_matching_large",
    title="Large-n / maximal matching: O(sqrt(log d log log d)) "
          "heterogeneous at n=800",
    group="large",
    problem="matching",
    graph_family="random_connected",
    regimes=("heterogeneous", "sublinear"),
    axis="m/n",
    points=(2, 8, 24),
    quick_points=(2, 8),
    measure=_measure_large_matching,
    columns=("avg_degree", "het_rounds", "phase1_iters", "gu_charge",
             "sub_rounds", "theory_het~sqrt"),
    check=_check_large_matching,
    paper_ref="Theorem 5.1, large-n regime",
))


_register_workload(
    "workload_power_law_large",
    "power_law",
    "Large-n workload / power-law (Chung-Lu) graphs across regimes",
    lambda rng, quick: generators.power_law_graph(
        320 if quick else 1280, random.Random(107), exponent=2.5, avg_degree=4.0
    ),
    group="large",
)

_register_workload(
    "workload_grid_large",
    "grid",
    "Large-n workload / 2D torus grid across regimes",
    lambda rng, quick: generators.torus_graph(*( (12, 16) if quick else (30, 40) )),
    group="large",
)

_register_workload(
    "workload_community_large",
    "planted_community",
    "Large-n workload / planted-community graphs across regimes",
    lambda rng, quick: generators.planted_community_graph(
        *( (240, 6, 0.1, 12) if quick else (1200, 12, 0.04, 40) ),
        random.Random(111)
    ),
    group="large",
)

_register_workload(
    "workload_multi_component_large",
    "multi_component",
    "Large-n workload / disconnected multi-component graphs across regimes",
    lambda rng, quick: generators.multi_component_graph(
        *( (240, 5) if quick else (1200, 8) ), 4.0, random.Random(113)
    ),
    group="large",
)

_register_workload(
    "workload_near_clique_large",
    "near_clique",
    "Large-n workload / dense near-clique graphs across regimes "
    "(~25x the classic edge count)",
    lambda rng, quick: generators.near_clique_graph(
        64 if quick else 160, 40, random.Random(119)
    ),
    group="large",
)


# ----------------------------------------------------------------------
# Huge regime: 10-100x beyond `large`.  The array-native primitives
# (columnar record batches end to end) plus the vectorized sketch
# substrate push single-host sweeps to n ~ 10^4-10^5; the connectivity
# row additionally uses gamma = 0.75 (fewer, fatter small machines — an
# in-model choice of the Section 2 memory exponent) so per-machine
# batches are large enough to amortize the kernel dispatch.
# Regenerating the full artifacts is minutes-scale.
# ----------------------------------------------------------------------

def _measure_huge_connectivity(n: int, rng: random.Random, quick: bool) -> dict:
    local = random.Random(n)
    graph = generators.planted_components_graph(n, 4, 2 * n, local)
    truth = component_labels(graph)
    config = ModelConfig(n=n, m=graph.m, gamma=0.75)
    # A single sketch instance suffices at this scale (failure is
    # one-sided and the seeds are pinned; the assertion below would
    # catch a miss at pin time).
    het = heterogeneous_connectivity(
        graph, config=config, rng=random.Random(n + 1), instances=1
    )
    assert het.labels == truth
    sub = sublinear_connectivity(graph, rng=random.Random(n + 2))
    assert sub.labels == truth
    return {
        "n": n,
        "m": graph.m,
        "het_rounds": het.rounds,
        "sub_rounds": sub.rounds,
        "theory_het": "O(1)",
        "theory_sub": "~log n",
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_huge_connectivity(rows) -> None:
    het_rounds = [row["het_rounds"] for row in rows]
    assert max(het_rounds) <= 8  # O(1) survives the 10^4-vertex jump
    assert all(row["sub_rounds"] > max(het_rounds) for row in rows)


_register(Scenario(
    name="table1_connectivity_huge",
    title="Huge-n / connectivity: O(1) heterogeneous vs ~log n sublinear "
          "at n=12800 (10x the large sweep)",
    group="huge",
    problem="connectivity",
    graph_family="planted_components",
    regimes=("heterogeneous", "sublinear"),
    axis="n",
    points=(12800,),
    quick_points=(1600,),
    measure=_measure_huge_connectivity,
    columns=("n", "m", "het_rounds", "sub_rounds", "theory_het", "theory_sub"),
    check=_check_huge_connectivity,
    paper_ref="Theorem C.1 vs [11], huge-n regime",
))


def _measure_huge_mst(ratio: int, rng: random.Random, quick: bool) -> dict:
    n = 3000 if quick else 24000
    local = random.Random(ratio)
    m = min(n * (n - 1) // 2, n * ratio)
    graph = generators.random_connected_graph(n, m, local).with_unique_weights(local)
    het = heterogeneous_mst(graph, rng=random.Random(ratio + 1))
    assert verify_mst(graph, het.edges)
    sub = sublinear_boruvka_mst(graph, rng=random.Random(ratio + 2))
    assert verify_mst(graph, sub.edges)
    return {
        "m/n": ratio,
        "het_steps": het.boruvka_steps,
        "het_rounds": het.rounds,
        "sub_iters": sub.iterations,
        "sub_rounds": sub.rounds,
        "theory_het~loglog(m/n)": predicted_rounds("mst", "heterogeneous", n=n, m=m),
        "theory_sub~log(n)": predicted_rounds("mst", "sublinear", n=n, m=m),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_huge_mst(rows) -> None:
    steps = [row["het_steps"] for row in rows]
    assert steps == sorted(steps)
    assert steps[-1] <= 5
    assert all(row["sub_iters"] > row["het_steps"] for row in rows)


_register(Scenario(
    name="table1_mst_huge",
    title="Huge-n / MST: O(log log(m/n)) heterogeneous vs O(log n) "
          "sublinear at n=24000 (25x the large sweep)",
    group="huge",
    problem="mst",
    graph_family="random_connected",
    regimes=("heterogeneous", "sublinear"),
    axis="m/n",
    points=(2, 8),
    quick_points=(2,),
    measure=_measure_huge_mst,
    columns=("m/n", "het_steps", "het_rounds", "sub_iters", "sub_rounds",
             "theory_het~loglog(m/n)", "theory_sub~log(n)"),
    check=_check_huge_mst,
    paper_ref="Theorem 1.2 / Theorem 3.1, huge-n regime",
))


def _measure_huge_matching(density: int, rng: random.Random, quick: bool) -> dict:
    n = 2500 if quick else 10000
    local = random.Random(density)
    m = min(n * (n - 1) // 2, n * density)
    graph = generators.random_connected_graph(n, m, local)
    het = heterogeneous_matching(graph, rng=random.Random(density + 1))
    assert is_maximal_matching(graph, het.matching)
    sub = sublinear_matching(graph, rng=random.Random(density + 2))
    assert is_maximal_matching(graph, sub.matching)
    return {
        "avg_degree": round(graph.average_degree, 1),
        "het_rounds": het.rounds,
        "phase1_iters": het.phase1_iterations,
        "gu_charge": round(low_degree_phase_rounds(graph.max_degree), 1),
        "sub_rounds": sub.rounds,
        "theory_het~sqrt": predicted_rounds("matching", "heterogeneous", n=n, m=m),
        "_ledgers": {"het": het.cluster.ledger, "sub": sub.cluster.ledger},
    }


def _check_huge_matching(rows) -> None:
    het = [row["het_rounds"] for row in rows]
    assert het[-1] <= 3 * het[0]  # sqrt-log growth, never linear


_register(Scenario(
    name="table1_matching_huge",
    title="Huge-n / maximal matching: O(sqrt(log d log log d)) "
          "heterogeneous at n=10000 (12x the large sweep)",
    group="huge",
    problem="matching",
    graph_family="random_connected",
    regimes=("heterogeneous", "sublinear"),
    axis="m/n",
    points=(2, 8),
    quick_points=(2,),
    measure=_measure_huge_matching,
    columns=("avg_degree", "het_rounds", "phase1_iters", "gu_charge",
             "sub_rounds", "theory_het~sqrt"),
    check=_check_huge_matching,
    paper_ref="Theorem 5.1, huge-n regime",
))


def _measure_huge_workload(regime: str, rng: random.Random, quick: bool) -> dict:
    """The workload-matrix row at huge scale.  Same shape as
    :func:`_workload_point`, but the sketch regimes run a single
    amplification instance — failure is one-sided, the seeds are pinned,
    and the exactness assertion would catch a miss at pin time."""
    graph = generators.power_law_graph(
        800 if quick else 12800, random.Random(127), exponent=2.5, avg_degree=4.0
    )
    truth = component_labels(graph)
    config = regime_config(regime, n=graph.n, m=graph.m)
    if regime == "sublinear":
        result = sublinear_connectivity(graph, config=config, rng=rng)
    else:
        result = heterogeneous_connectivity(
            graph, config=config, rng=rng, instances=1
        )
    assert result.labels == truth
    return {
        "regime": regime,
        "n": graph.n,
        "m": graph.m,
        "max_degree": graph.max_degree,
        "components": len(set(truth)),
        "rounds": result.rounds,
        "_ledgers": {"": result.cluster.ledger},
    }


_register(Scenario(
    name="workload_power_law_huge",
    title="Huge workload / power-law (Chung-Lu) graphs across regimes "
          "(10x the large sweep)",
    group="huge",
    problem="connectivity",
    graph_family="power_law",
    regimes=_WORKLOAD_REGIMES,
    axis="regime",
    points=_WORKLOAD_REGIMES,
    quick_points=_WORKLOAD_REGIMES,
    measure=_measure_huge_workload,
    columns=_WORKLOAD_COLUMNS,
    check=_check_workload,
    paper_ref="Theorem C.1 across Section 2 / Section 6 regimes, huge-n",
))


# ----------------------------------------------------------------------
# Robustness: adaptive communication throttling on adversarial inputs
# ----------------------------------------------------------------------
# Each scenario builds an adversarially dense workload, then *calibrates*
# the capacity window against it: a first run under the default generous
# capacities (throttle mode "advise") measures the workload's peak
# per-round load fraction, and the scenario tightens ``ModelConfig.
# constant`` so that the same peak lands at ``_ROBUSTNESS_BREACH`` times
# the (smallest binding) capacity — over the hard limit, inside 2x of it.
# Three arms then run in that tight window with identical inputs and
# seeds: ``off`` records the violations an oblivious protocol incurs,
# ``advise`` must behave byte-identically to ``off`` while logging the
# throttling decisions it *would* take, and ``enforce`` must finish with
# **zero** violations at a round inflation of at most 2x (the split of an
# over-budget round lands at ``<= breach / headroom`` chunks).  Only the
# enforce arm's ledger feeds the artifact totals, so ``bench --strict``
# holds this group to zero recorded violations; the off arm's toll is
# reported as plain row columns.
#
# The workloads are transport-heavy by design (payloads broadcast or
# disseminated but not stored): plan splitting re-schedules traffic, it
# cannot shrink resident state, so a comm-only breach window is exactly
# the regime the controller is built for (memory stays ~an order of
# magnitude below capacity — asserted via the calibration digest).

_ROBUSTNESS_BREACH = 1.3
_ROBUSTNESS_DEFAULT_CONSTANT = 4.0


def _run_throttle_arm(pipeline, n, m, gamma, constant, mode, seed):
    config = ModelConfig.heterogeneous(
        n=n, m=m, gamma=gamma, constant=constant
    ).with_throttle(mode)
    cluster = Cluster(config, rng=random.Random(seed))
    output = pipeline(cluster)
    return cluster, output


def _measure_robustness_point(n, gamma, make_pipeline):
    """The shared calibrate-then-three-arms protocol (see section comment)."""
    m, pipeline = make_pipeline(n)
    seed = n + 1

    calib, _ = _run_throttle_arm(
        pipeline, n, m, gamma, _ROBUSTNESS_DEFAULT_CONSTANT, "advise", seed
    )
    peak = calib.throttle.peak_traffic_frac
    mem_peak = calib.throttle.peak_memory_frac
    assert peak > 0.0, "calibration run moved no words"
    # Comm-only breach window: tightening to put *traffic* at BREACH must
    # leave *memory* clearly inside the hard limit.
    assert mem_peak < 0.7 * peak, (
        f"workload is memory-bound (mem {mem_peak:.3f} vs traffic {peak:.3f}); "
        "splitting could not fix its violations"
    )
    tight = _ROBUSTNESS_DEFAULT_CONSTANT * peak / _ROBUSTNESS_BREACH

    off, off_out = _run_throttle_arm(pipeline, n, m, gamma, tight, "off", seed)
    adv, adv_out = _run_throttle_arm(pipeline, n, m, gamma, tight, "advise", seed)
    enf, enf_out = _run_throttle_arm(pipeline, n, m, gamma, tight, "enforce", seed)

    off_violations = list(off.ledger.violations)
    assert off_violations, "the tight window must breach without throttling"
    assert all(
        v.kind in ("sent", "received") for v in off_violations
    ), "robustness scenarios must breach communication budgets only"
    assert not enf.ledger.violations, (
        "enforce mode must keep every round under the hard limits: "
        f"{list(enf.ledger.violations)[:3]}"
    )
    # Advise mode observes but never intervenes: same behaviour as off,
    # and it must have logged at least one would-be decision.
    assert adv.ledger.summary() == off.ledger.summary()
    assert adv.throttle.events, "advise arm logged no throttling decisions"
    # Graceful degradation, not silent degradation: identical outputs and
    # total words across all three arms, bounded round inflation.
    assert off_out == adv_out == enf_out
    assert off.ledger.total_words == adv.ledger.total_words == enf.ledger.total_words
    assert enf.ledger.rounds <= 2 * off.ledger.rounds, (
        f"round inflation {enf.ledger.rounds}/{off.ledger.rounds} exceeds 2x"
    )

    enf_summary = enf.throttle.summary()
    return {
        "n": n,
        "m": m,
        "peak_frac": round(peak, 3),
        "cap_small": off.config.small_capacity,
        "off_rounds": off.ledger.rounds,
        "off_violations": len(off_violations),
        "advise_events": len(adv.throttle.events),
        "enf_rounds": enf.ledger.rounds,
        "enf_violations": len(enf.ledger.violations),
        "inflation": round(enf.ledger.rounds / max(1, off.ledger.rounds), 3),
        "splits": enf_summary["splits"],
        "_ledgers": {"enforce": enf.ledger},
        "_throttle": enf_summary,
    }


_ROBUSTNESS_COLUMNS = (
    "n", "m", "peak_frac", "cap_small", "off_rounds", "off_violations",
    "advise_events", "enf_rounds", "enf_violations", "inflation", "splits",
)


def _check_robustness(rows) -> None:
    assert all(row["off_violations"] >= 1 for row in rows)
    assert all(row["enf_violations"] == 0 for row in rows)
    assert all(row["inflation"] <= 2.0 for row in rows)


def _measure_robustness_near_clique(n: int, rng: random.Random, quick: bool) -> dict:
    """Hot-vertex list pushed to every machine of a near-clique: each
    relay of the broadcast tree forwards ``fanout`` copies of an
    ~n-word payload in one round — the classic fan-out burst."""

    def make(n: int):
        local = random.Random(n)
        graph = generators.near_clique_graph(n, n // 4, local)
        degrees = [0] * n
        for edge in graph.edges:
            degrees[edge[0]] += 1
            degrees[edge[1]] += 1
        hotlist = tuple(v for v in range(n) if degrees[v] >= n // 2)
        edges = [(e[0], e[1]) for e in graph.edges]

        def pipeline(cluster):
            cluster.distribute_edges(edges)
            rounds = broadcast(
                cluster, cluster.large.machine_id, hotlist, cluster.small_ids,
                note="hotlist",
            )
            return (len(hotlist), rounds >= 1)

        return graph.m, pipeline

    return _measure_robustness_point(n, 0.5, make)


_register(Scenario(
    name="robustness_near_clique",
    title="Throttled hot-list broadcast over a near-clique "
          "(off / advise / enforce in a tight capacity window)",
    group="robustness",
    problem="connectivity",
    graph_family="near_clique",
    regimes=("heterogeneous",),
    axis="n",
    points=(48, 64, 96),
    quick_points=(48, 64),
    measure=_measure_robustness_near_clique,
    columns=_ROBUSTNESS_COLUMNS,
    check=_check_robustness,
    paper_ref="Section 2 capacity budgets under adversarial density",
))


def _measure_robustness_heavy_components(
    n: int, rng: random.Random, quick: bool
) -> dict:
    """Two dissemination waves (component labels, then component sizes)
    over planted heavy components: the per-key trees concentrate their
    roots on the low machine ids, whose push rounds relay every tree at
    once — the hot-spot sender burst."""

    def make(n: int):
        local = random.Random(n)
        graph = generators.planted_components_graph(n, 4, 2 * n, local)
        edges = [(e[0], e[1]) for e in graph.edges]
        labels = component_labels(graph)
        sizes: dict[int, int] = {}
        for v in range(n):
            sizes[labels[v]] = sizes.get(labels[v], 0) + 1

        def pipeline(cluster):
            cluster.distribute_edges(edges)
            holders = holders_by_key(cluster, "edges", lambda e: (e[0], e[1]))
            wave1 = disseminate(
                cluster, {v: labels[v] for v in range(n)}, holders, note="labels"
            )
            wave2 = disseminate(
                cluster,
                {v: sizes[labels[v]] for v in range(n)},
                holders,
                note="sizes",
            )
            return (
                sorted((mid, len(got)) for mid, got in wave1.items()),
                sorted((mid, len(got)) for mid, got in wave2.items()),
            )

        return graph.m, pipeline

    return _measure_robustness_point(n, 0.5, make)


_register(Scenario(
    name="robustness_heavy_components",
    title="Throttled label dissemination over planted heavy components "
          "(off / advise / enforce in a tight capacity window)",
    group="robustness",
    problem="connectivity",
    graph_family="planted_components",
    regimes=("heterogeneous",),
    axis="n",
    points=(48, 64, 96),
    quick_points=(48, 64),
    measure=_measure_robustness_heavy_components,
    columns=_ROBUSTNESS_COLUMNS,
    check=_check_robustness,
    paper_ref="Claim 3 dissemination under adversarial concentration",
))


def _measure_robustness_power_law_gamma(
    n: int, rng: random.Random, quick: bool
) -> dict:
    """Degree-census converge onto the large machine of a power-law graph
    at the regime-boundary ``gamma = 0.75`` (few, fat small machines),
    followed by a sample-sort of the edges: the census gather is the
    fan-in burst at the large machine; the sort runs inside budget and
    exercises the sample-rate throttle hook after the breach."""

    def make(n: int):
        local = random.Random(n)
        graph = generators.power_law_graph(n, local, exponent=2.2, avg_degree=6.0)
        edges = [(e[0], e[1]) for e in graph.edges]

        def pipeline(cluster):
            cluster.distribute_edges(edges)
            pairs_by_src = {}
            for machine in cluster.smalls:
                counts: dict[int, int] = {}
                for u, v in machine.get("edges", []):
                    counts[u] = counts.get(u, 0) + 1
                    counts[v] = counts.get(v, 0) + 1
                pairs_by_src[machine.machine_id] = sorted(counts.items())
            large = cluster.large.machine_id
            received = cluster.gather(large, pairs_by_src, note="census")
            census: dict[int, int] = {}
            for v, c in received:
                census[v] = census.get(v, 0) + c
            layout = sample_sort(cluster, "edges", key=(0, 1), note="rank")
            return (sorted(census.items()), tuple(layout.counts))

        return graph.m, pipeline

    return _measure_robustness_point(n, 0.75, make)


_register(Scenario(
    name="robustness_power_law_gamma",
    title="Throttled degree census + sort on a power-law graph at "
          "boundary gamma (off / advise / enforce in a tight capacity window)",
    group="robustness",
    problem="sort",
    graph_family="power_law",
    regimes=("heterogeneous",),
    axis="n",
    points=(64, 96, 128),
    quick_points=(64, 96),
    measure=_measure_robustness_power_law_gamma,
    columns=_ROBUSTNESS_COLUMNS,
    check=_check_robustness,
    paper_ref="Claim 5 sorting + Claim 2 aggregation at the gamma boundary",
))
