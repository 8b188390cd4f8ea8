"""Runner execution and the repro.bench/2 artifact schema round-trip."""

import json

import pytest

from repro.experiments import (
    ArtifactError,
    ParallelRunner,
    Runner,
    SCHEMA_VERSION,
    Scenario,
    get_scenario,
    load_artifact,
    load_results_dir,
    load_suite,
    point_rng,
    validate_artifact,
    validate_suite,
    write_artifact,
)
from repro.mpc import Cluster, ModelConfig


def _toy_scenario(**overrides):
    def measure(point, rng, quick):
        cluster = Cluster(ModelConfig.heterogeneous(n=16, m=32), rng=rng)
        cluster.ledger.charge(point, note="toy")
        return {"x": point, "doubled": 2 * point, "_ledgers": {"": cluster.ledger}}

    fields = dict(
        name="toy",
        title="Toy scenario",
        group="ablation",
        problem="connectivity",
        graph_family="gnm",
        regimes=("heterogeneous",),
        axis="x",
        points=(1, 2, 3),
        quick_points=(1,),
        measure=measure,
        columns=("x", "doubled"),
    )
    fields.update(overrides)
    return Scenario(**fields)


def test_runner_runs_sweep_and_appends_ledger_columns(tmp_path):
    runner = Runner(results_dir=tmp_path)
    run = runner.run(_toy_scenario())
    assert [row["x"] for row in run.rows] == [1, 2, 3]
    assert all("words" in row and "max_memory" in row for row in run.rows)
    assert run.columns == ("x", "doubled", "words", "max_memory")
    # Totals roll up the per-point ledgers: 1+2+3 charged rounds.
    assert run.totals["rounds"] == 6
    assert run.totals["words"] == 0
    assert run.totals["violations"] == 0


def test_runner_quick_uses_quick_points_and_skips_checks(tmp_path):
    def failing_check(rows):
        raise AssertionError("must not run on quick sweeps")

    runner = Runner(results_dir=tmp_path)
    run = runner.run(_toy_scenario(check=failing_check), quick=True)
    assert [row["x"] for row in run.rows] == [1]
    assert run.quick


def test_runner_check_runs_on_full_sweeps():
    seen = []
    runner = Runner()
    runner.run(_toy_scenario(check=seen.append))
    assert len(seen) == 1 and len(seen[0]) == 3


def test_artifact_round_trip(tmp_path):
    runner = Runner(results_dir=tmp_path)
    run = runner.run(_toy_scenario())
    paths = runner.persist(run)
    assert [p.name for p in paths] == ["toy.txt", "toy.json"]
    loaded = load_artifact(tmp_path / "toy.json")
    assert loaded == run.to_artifact()
    # And a second write is byte-identical (deterministic serialization).
    before = (tmp_path / "toy.json").read_bytes()
    write_artifact(tmp_path / "toy.json", loaded)
    assert (tmp_path / "toy.json").read_bytes() == before


def test_text_artifact_carries_schema_header(tmp_path):
    from repro.experiments.artifacts import text_header

    runner = Runner(results_dir=tmp_path)
    runner.persist(runner.run(_toy_scenario()))
    text = (tmp_path / "toy.txt").read_text()
    assert text.startswith(text_header("toy"))
    assert SCHEMA_VERSION in text


def test_validate_rejects_missing_key():
    artifact = Runner().run(_toy_scenario()).to_artifact()
    artifact.pop("rows")
    with pytest.raises(ArtifactError, match="rows"):
        validate_artifact(artifact)


def test_validate_rejects_wrong_schema_version():
    artifact = Runner().run(_toy_scenario()).to_artifact()
    artifact["schema"] = "repro.bench/99"
    with pytest.raises(ArtifactError, match="schema"):
        validate_artifact(artifact)


def test_validate_rejects_non_scalar_row_values():
    artifact = Runner().run(_toy_scenario()).to_artifact()
    artifact["rows"][0]["bad"] = [1, 2]
    with pytest.raises(ArtifactError, match="non-scalar"):
        validate_artifact(artifact)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ArtifactError, match="invalid JSON"):
        load_artifact(path)


def test_load_results_dir_sorts_by_scenario(tmp_path):
    runner = Runner(results_dir=tmp_path)
    for name in ("zeta", "alpha"):
        runner.persist(runner.run(_toy_scenario(name=name)))
    loaded = load_results_dir(tmp_path)
    assert [a["scenario"] for a in loaded] == ["alpha", "zeta"]


def test_registered_scenario_quick_run_validates(tmp_path):
    """A real registry scenario produces a schema-valid artifact."""
    runner = Runner(results_dir=tmp_path, seed=0)
    run = runner.run(get_scenario("workload_grid"), quick=True)
    runner.persist(run)
    artifact = load_artifact(tmp_path / "workload_grid.json")
    assert artifact["quick"] is True
    assert artifact["graph_family"] == "grid"
    assert len(artifact["regimes"]) == 4
    json.dumps(artifact)  # fully JSON-serializable


def test_suite_rollup_round_trip(tmp_path):
    runner = Runner(results_dir=tmp_path)
    runs = runner.run_many([_toy_scenario(), _toy_scenario(name="toy2")])
    path = runner.persist_suite(runs)
    assert path == tmp_path / "suite.json"
    suite = load_suite(path)
    assert [row["scenario"] for row in suite["scenarios"]] == ["toy", "toy2"]
    assert suite["scenarios"][0]["rounds"] == 6
    assert suite["quick"] is False
    # suite.json is not picked up as a per-scenario artifact.
    assert [a["scenario"] for a in load_results_dir(tmp_path)] == ["toy", "toy2"]


def test_validate_suite_rejects_bad_rows():
    with pytest.raises(ArtifactError, match="schema"):
        validate_suite({"schema": "nope", "quick": False, "scenarios": []})
    with pytest.raises(ArtifactError, match="rounds"):
        validate_suite({
            "schema": "repro.bench.suite/1", "quick": False,
            "scenarios": [{"scenario": "x", "group": "table1", "points": 1}],
        })
    with pytest.raises(ArtifactError, match="points"):
        validate_suite({
            "schema": "repro.bench.suite/1", "quick": False,
            "scenarios": [{
                "scenario": "x", "group": "table1", "points": True,
                "rounds": 0, "words": 0, "max_memory": 0, "violations": 0,
            }],
        })


def test_validate_rejects_missing_totals_key():
    artifact = Runner().run(_toy_scenario()).to_artifact()
    del artifact["totals"]["max_memory"]
    with pytest.raises(ArtifactError, match="max_memory"):
        validate_artifact(artifact)


def test_parallel_runner_artifacts_are_byte_identical_to_serial(tmp_path):
    """The acceptance contract of `bench --jobs N`: same bytes as serial.

    Uses registry scenarios (pool workers re-resolve scenarios by name, so
    unregistered toys cannot cross the process boundary).
    """
    names = ["ablation_kkt_sampling", "cycle_problem"]
    scenarios = [get_scenario(name) for name in names]

    serial_dir = tmp_path / "serial"
    serial = Runner(results_dir=serial_dir, seed=0)
    serial.persist_suite(serial.run_many(scenarios, quick=True))

    parallel_dir = tmp_path / "parallel"
    parallel = ParallelRunner(results_dir=parallel_dir, seed=0, jobs=2)
    parallel.persist_suite(parallel.run_many(scenarios, quick=True))

    serial_files = sorted(p.name for p in serial_dir.iterdir())
    assert serial_files == sorted(p.name for p in parallel_dir.iterdir())
    assert "suite.json" in serial_files
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (
            parallel_dir / name
        ).read_bytes(), f"{name} differs between serial and parallel runs"


def test_point_rng_is_deterministic():
    scenario = _toy_scenario()
    a = point_rng(7, scenario, 0).random()
    b = point_rng(7, scenario, 0).random()
    assert a == b
    assert point_rng(7, scenario, 1).random() != a
    # It is the RNG every sweep point is measured with.
    drawn = []

    def measure(point, rng, quick):
        drawn.append(rng.random())
        return {"x": point, "doubled": 2 * point}

    Runner(seed=7).run(_toy_scenario(measure=measure))
    assert drawn == [point_rng(7, scenario, index).random() for index in range(3)]


def test_scenario_rejects_unknown_group_and_regime():
    with pytest.raises(ValueError, match="group"):
        _toy_scenario(group="nope")
    with pytest.raises(ValueError, match="regimes"):
        _toy_scenario(regimes=("warp",))
