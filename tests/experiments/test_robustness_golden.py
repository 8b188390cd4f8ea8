"""Golden pins and determinism checks for the robustness scenario group.

Each robustness scenario runs its adversarial workload four times per
point (capacity calibration, then throttle off / advise / enforce in the
tightened window) and asserts the acceptance contract *inside* measure:
the off arm records >= 1 communication violation, the enforce arm
records zero, outputs and total words match across arms, and round
inflation stays <= 2x.  The pins below freeze the quick-mode rows —
including the enforce-arm ledger columns and the artifact's ``throttle``
block — and the determinism tests extend the `--jobs` byte-identity
contract to throttled runs across process pools and engine backends.
"""

import json

import pytest

from repro.experiments import ParallelRunner, Runner, get_scenario

ROBUSTNESS_SCENARIOS = (
    "robustness_near_clique",
    "robustness_heavy_components",
    "robustness_power_law_gamma",
)

GOLDEN_QUICK_ROWS = {
    "robustness_near_clique": [
        {"n": 48, "m": 1116, "peak_frac": 0.333, "cap_small": 221,
         "off_rounds": 3, "off_violations": 24, "advise_events": 1,
         "enf_rounds": 5, "enf_violations": 0, "inflation": 1.667,
         "splits": 2, "enforce_words": 7776, "enforce_max_memory": 14},
        {"n": 64, "m": 2000, "peak_frac": 0.444, "cap_small": 393,
         "off_rounds": 3, "off_violations": 28, "advise_events": 1,
         "enf_rounds": 5, "enf_violations": 0, "inflation": 1.667,
         "splits": 2, "enforce_words": 16000, "enforce_max_memory": 16},
    ],
    "robustness_heavy_components": [
        {"n": 48, "m": 139, "peak_frac": 0.127, "cap_small": 84,
         "off_rounds": 6, "off_violations": 4, "advise_events": 1,
         "enf_rounds": 8, "enf_violations": 0, "inflation": 1.333,
         "splits": 2, "enforce_words": 1000, "enforce_max_memory": 14},
        {"n": 64, "m": 186, "peak_frac": 0.13, "cap_small": 115,
         "off_rounds": 4, "off_violations": 4, "advise_events": 1,
         "enf_rounds": 6, "enf_violations": 0, "inflation": 1.5,
         "splits": 2, "enforce_words": 1348, "enforce_max_memory": 16},
    ],
    "robustness_power_law_gamma": [
        {"n": 64, "m": 182, "peak_frac": 0.051, "cap_small": 128,
         "off_rounds": 5, "off_violations": 1, "advise_events": 3,
         "enf_rounds": 6, "enf_violations": 0, "inflation": 1.2,
         "splits": 1, "enforce_words": 1238, "enforce_max_memory": 240},
        {"n": 96, "m": 239, "peak_frac": 0.036, "cap_small": 146,
         "off_rounds": 5, "off_violations": 1, "advise_events": 3,
         "enf_rounds": 6, "enf_violations": 0, "inflation": 1.2,
         "splits": 1, "enforce_words": 1406, "enforce_max_memory": 202},
    ],
}


@pytest.mark.parametrize("name", ROBUSTNESS_SCENARIOS)
def test_quick_rows_match_golden(name):
    run = Runner(seed=0).run(get_scenario(name), quick=True)
    assert run.rows == GOLDEN_QUICK_ROWS[name]


@pytest.mark.parametrize("name", ROBUSTNESS_SCENARIOS)
def test_acceptance_contract_on_quick_rows(name):
    """The ISSUE's acceptance criteria, pinned directly: unthrottled runs
    breach (>= 1 violation), enforced runs never do, inflation <= 2x."""
    run = Runner(seed=0).run(get_scenario(name), quick=True)
    for row in run.rows:
        assert row["off_violations"] >= 1
        assert row["enf_violations"] == 0
        assert row["inflation"] <= 2.0
    # Only the enforce arm's ledger feeds the totals, so the artifact
    # (and `bench --strict`) sees a violation-free scenario.
    assert run.totals["violations"] == 0


@pytest.mark.parametrize("name", ROBUSTNESS_SCENARIOS)
def test_artifact_carries_enforce_throttle_block(name, tmp_path):
    runner = Runner(results_dir=tmp_path, seed=0)
    runner.persist(runner.run(get_scenario(name), quick=True))
    artifact = json.loads((tmp_path / f"{name}.json").read_text())
    block = artifact["throttle"]
    assert block["mode"] == "enforce"
    assert block["headroom"] == 0.9
    assert block["splits"] >= 1
    assert block["extra_rounds"] >= 1
    # Enforcement held every executed round under the headroom line.
    assert block["peak_traffic_frac"] <= 0.9


def test_unthrottled_artifacts_have_no_throttle_block(tmp_path):
    """Classic scenarios must stay byte-identical: no ``throttle`` key."""
    runner = Runner(results_dir=tmp_path, seed=0)
    runner.persist(runner.run(get_scenario("table1_connectivity"), quick=True))
    artifact = json.loads((tmp_path / "table1_connectivity.json").read_text())
    assert "throttle" not in artifact


def test_throttled_artifacts_byte_identical_serial_vs_parallel(tmp_path):
    """The `--jobs N` byte-identity contract extends to throttled runs:
    controller state lives per measurement, so process placement cannot
    leak into the artifact."""
    scenarios = [get_scenario(name) for name in ROBUSTNESS_SCENARIOS]
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    Runner(results_dir=serial_dir, seed=0).run_many(scenarios, quick=True)
    ParallelRunner(results_dir=parallel_dir, seed=0, jobs=2).run_many(
        scenarios, quick=True
    )
    for name in ROBUSTNESS_SCENARIOS:
        assert (serial_dir / f"{name}.json").read_bytes() == (
            parallel_dir / f"{name}.json"
        ).read_bytes(), f"{name} differs between serial and parallel runs"
