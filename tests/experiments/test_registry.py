"""Registry completeness and scenario metadata invariants."""

import pathlib

import pytest

from repro.experiments import (
    GROUPS,
    REGIMES,
    SCENARIOS,
    Runner,
    all_scenarios,
    get_scenario,
    load_artifact,
    scenario_names,
)

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def test_every_table1_bench_script_has_a_scenario():
    """The bench_table1_* wrappers must stay in sync with the registry."""
    scripts = sorted(p.stem for p in BENCH_DIR.glob("bench_table1_*.py"))
    assert scripts, "no table1 benchmark scripts found"
    for script in scripts:
        name = script.removeprefix("bench_")
        assert name in SCENARIOS, f"{script}.py has no registry scenario"


def test_every_migrated_bench_script_has_a_scenario():
    """All bench scripts except the stand-alone throughput/overhead
    benches are registry wrappers."""
    standalone = {
        "bench_engine_throughput",
        "bench_primitive_throughput",
        "bench_serve_throughput",
        "bench_sketch_throughput",
        "bench_throttle_overhead",
    }
    for path in BENCH_DIR.glob("bench_*.py"):
        if path.stem in standalone:
            continue
        assert path.stem.removeprefix("bench_") in SCENARIOS


def test_scenario_metadata_is_well_formed():
    for scenario in all_scenarios():
        assert scenario.group in GROUPS
        assert set(scenario.regimes) <= set(REGIMES)
        assert scenario.points
        assert scenario.sweep(quick=True)
        assert scenario.columns
        # quick sweeps never exceed the full sweep.
        assert len(scenario.sweep(quick=True)) <= len(scenario.sweep(quick=False))


def test_registry_spans_the_acceptance_matrix():
    """>= 12 scenarios over >= 4 graph families and >= 3 regimes."""
    scenarios = all_scenarios()
    assert len(scenarios) >= 12
    assert len({s.graph_family for s in scenarios}) >= 4
    assert len({r for s in scenarios for r in s.regimes}) >= 3


def test_workload_matrix_covers_new_families_and_all_regimes():
    families = {s.graph_family for s in all_scenarios() if s.group == "workload"}
    assert families == {
        "power_law", "grid", "planted_community", "multi_component",
        "near_clique",
    }
    for scenario in all_scenarios():
        if scenario.group == "workload":
            assert set(scenario.regimes) == set(REGIMES)


def test_get_scenario_unknown_name():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("not_a_scenario")


def test_names_are_unique_and_ordered():
    names = scenario_names()
    assert len(names) == len(set(names))
    assert names[0].startswith("table1_")


def test_ablation_sketch_copies_rows_match_the_committed_artifact():
    """The full-size sweep reproduces the committed rows exactly."""
    committed = load_artifact(BENCH_DIR / "results" / "ablation_sketch_copies.json")
    run = Runner(seed=0).run(get_scenario("ablation_sketch_copies"), quick=False)
    assert run.rows == committed["rows"]
