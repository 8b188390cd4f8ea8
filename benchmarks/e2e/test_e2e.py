"""Self-test of the end-to-end benchmark, on the ``--quick`` sizing.

    python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, env: dict | None = None) -> dict:
    """Run ``run.py --quick`` and return its last-line result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seconds", "1", *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=300,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One untraced and one traced run per workload."""
    before = git_status()
    out = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            directory = tmp_path_factory.mktemp(f"{workload}-{trace}")
            line = bench("--workload", workload, "--seed", "1", "--trace", trace,
                         "--out", str(directory))
            report = json.loads((directory / "metrics.json").read_text())
            out[workload, trace] = (line, report, directory)
    return out, before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_benchmark_metric_is_emitted_with_its_unit(runs, workload):
    out, _ = runs
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        line, _, _ = out[workload, trace]
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_bounds_match_the_benchmark_file(runs, workload):
    _, report, _ = runs[0][workload, "0"]
    metrics = report["workloads"][workload]["metrics"]
    for spec in SPEC["end_to_end"]:
        entry = metrics[spec["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            spec["unit"], spec["better"], spec["bound"]
        )
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_covers_the_traced_window(runs, workload):
    line, _, directory = runs[0][workload, "1"]
    assert abs(line["metrics"]["trace.coverage"]["value"] - 1) <= 0.05
    spans = json.loads((directory / "trace.json").read_text())[workload]
    assert spans["spans"], "no spans recorded"


def test_compare_flags_a_2x_regression(runs, tmp_path):
    _, report, directory = runs[0]["mst_dense", "0"]
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(directory / "metrics.json")] * 2,
                          stdout=subprocess.PIPE, text=True)
    assert same.returncode == 0, same.stdout
    slower = json.loads(json.dumps(report))
    solve = slower["workloads"]["mst_dense"]["metrics"]["solve_s"]
    for stat in ("value", "q1", "q3", "min", "max"):
        solve[stat] *= 2
    path = tmp_path / "slower.json"
    path.write_text(json.dumps(slower))
    flagged = subprocess.run(compare + [str(directory / "metrics.json"), str(path)],
                             stdout=subprocess.PIPE, text=True)
    assert flagged.returncode == 1
    assert "worse" in flagged.stdout


def _entry(value, q1, q3, low, high, better="lower"):
    return {"value": value, "q1": q1, "q3": q3, "min": low, "max": high,
            "bound": 0.25, "better": better}


def _compare_module():
    sys.path.insert(0, str(HERE))
    try:
        import compare
    finally:
        sys.path.remove(str(HERE))
    return compare


def test_compare_calls_a_metric_wider_than_its_bound_unresolved():
    verdict = _compare_module().verdict
    steady = _entry(10.0, 9.5, 10.5, 9.0, 11.0)
    noisy = _entry(10.0, 8.0, 12.0, 7.0, 13.0)  # spread 40% > 25%
    assert verdict(steady, _entry(14.0, 13.5, 14.5, 13.0, 15.0)) == "worse"
    assert verdict(steady, _entry(11.0, 10.5, 11.5, 10.0, 12.0)) == "within"
    assert verdict(noisy, _entry(13.0, 12.5, 13.5, 12.0, 14.0)) == "unresolved"
    assert verdict(noisy, _entry(20.0, 19.0, 21.0, 18.0, 22.0)) == "worse"
    fast = _entry(20.0, 16.0, 24.0, 15.0, 25.0, better="higher")
    assert verdict(fast, _entry(10.0, 9.5, 10.5, 9.0, 11.0, better="higher")) == "worse"
    assert verdict(fast, _entry(14.0, 13.5, 14.5, 13.0, 15.0, better="higher")) == "unresolved"


def test_compare_pools_runs_and_matches_exact_counts_by_seed():
    compare = _compare_module()

    def run(seed, solve_s, rounds):
        metrics = {
            "solve_s": _entry(solve_s, solve_s, solve_s, solve_s, solve_s),
            "rounds": dict(_entry(rounds, rounds, rounds, rounds, rounds), bound=None),
        }
        return {"seed": seed, "workloads": {"w": {"metrics": metrics}}}

    parent = [run(0, 10.0, 80), run(1, 12.0, 81), run(2, 11.0, 82)]
    drifted = [run(0, 12.5, 80), run(1, 14.0, 81), run(2, 13.0, 82)]
    verdicts = {row[1]: row[4] for row in compare.compare(parent, drifted)}
    # The parent's run medians spread by 18%, under the 25% bound, and
    # the drifted median is 18% slower: within.
    assert verdicts == {"solve_s": "within", "rounds": "same"}
    shuffled = [run(1, 10.0, 80), run(0, 12.0, 81), run(2, 11.0, 82)]
    assert {row[1]: row[4] for row in compare.compare(parent, shuffled)}["rounds"] == "differs"


def test_speed_probe_runs_inside_the_work_and_takes_its_time_out():
    sys.path.insert(0, str(HERE))
    try:
        from speed import SpeedProbe
    finally:
        sys.path.remove(str(HERE))
    probe = SpeedProbe()
    probe.start()
    try:
        mark = probe.mark()
        total = 0
        for i in range(2_000_000):
            total += i * i % 7
        seconds = probe.cpu_seconds(mark)
    finally:
        probe.stop()
    compute, memory = probe.durations
    assert compute and memory, "no probe fired"
    assert 0 < probe.total < 0.2 * (seconds * probe.slowdown(mark.counts) + probe.total)
    assert seconds > 0


def test_repro_env_knobs_do_not_reach_the_samples(runs, tmp_path):
    _, clean, _ = runs[0]["mst_dense", "0"]
    env = dict(os.environ, REPRO_EXECUTOR="process", REPRO_BENCH_SMOKE="1",
               REPRO_ENGINE_BACKEND="numpy")
    bench("--workload", "mst_dense", "--seed", "1", "--out", str(tmp_path), env=env)
    dirty = json.loads((tmp_path / "metrics.json").read_text())
    assert dirty["env_removed"] == [
        "REPRO_BENCH_SMOKE", "REPRO_ENGINE_BACKEND", "REPRO_EXECUTOR"
    ]
    for report in (clean, dirty):
        assert report["workloads"]["mst_dense"]["env"]["engine_backend"] in ("pure", None)
    for count in ("rounds", "words"):
        assert (dirty["workloads"]["mst_dense"]["metrics"][count]["value"]
                == clean["workloads"]["mst_dense"]["metrics"][count]["value"])


def test_runs_leave_the_checkout_unchanged(runs):
    out, before = runs
    if before is None:
        pytest.skip("not a git checkout")
    assert git_status() == before
