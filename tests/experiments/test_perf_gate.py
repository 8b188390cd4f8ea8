"""The perf-gate comparator: hypothesis property sweep, pinned synthetic
regressions against the committed baselines, and the CLI wrapper."""

import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.perfgate import (
    DEFAULT_TOLERANCE,
    METRIC_KEYS,
    PERF_SCHEMA_VERSION,
    compare_perf,
    load_perf_dir,
    row_identity,
    update_baseline,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
PERF_DIR = REPO_ROOT / "benchmarks" / "results" / "perf"
SCRIPT = REPO_ROOT / "scripts" / "perf_gate.py"


def _artifact(name, rows):
    return {
        "schema": PERF_SCHEMA_VERSION,
        "benchmark": name,
        "params": {},
        "rows": rows,
    }


def _single(value, key="items_per_sec"):
    return {"bench": _artifact("bench", [{"engine": "x", key: value}])}


# --- property sweep -----------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    base=st.floats(1.0, 1e9),
    ratio=st.floats(0.0, 3.0),
    tolerance=st.floats(0.01, 0.9),
)
def test_gate_fires_iff_drop_exceeds_tolerance(base, ratio, tolerance):
    measured_value = base * ratio
    result = compare_perf(
        _single(base), _single(measured_value), tolerance=tolerance
    )
    assert result.matched == 1
    fired = bool(result.failures)
    assert fired == (measured_value < base * (1.0 - tolerance))
    assert result.ok(min_matched=1) == (not fired)


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(1.0, 1e9),
    gain=st.floats(1.0, 100.0),
    tolerance=st.floats(0.01, 0.9),
)
def test_improvements_never_fire(base, gain, tolerance):
    result = compare_perf(
        _single(base), _single(base * gain), tolerance=tolerance
    )
    assert result.failures == []


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(1.0, 1e9),
    slack=st.floats(0.0, 1.0),
    tolerance=st.floats(0.01, 0.9),
)
def test_drop_within_tolerance_passes(base, slack, tolerance):
    # ratio in [1 - tolerance, 1]: within the allowance, boundary included.
    ratio = (1.0 - tolerance) + slack * tolerance
    result = compare_perf(
        _single(base), _single(base * ratio), tolerance=tolerance
    )
    assert result.failures == []


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(1.0, 1e9),
    margin=st.floats(0.0, 0.98),
    tolerance=st.floats(0.01, 0.9),
)
def test_clear_drop_always_fires(base, margin, tolerance):
    ratio = (1.0 - tolerance) * (1.0 - 0.01 - margin * 0.98)
    result = compare_perf(
        _single(base), _single(base * ratio), tolerance=tolerance
    )
    assert len(result.failures) == 1


_scalar = st.one_of(
    st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.booleans(),
    st.none(),
)


@settings(max_examples=100, deadline=None)
@given(
    base_rows=st.lists(
        st.dictionaries(st.text(max_size=6), _scalar, max_size=4), max_size=3
    ),
    meas_rows=st.lists(
        st.dictionaries(st.text(max_size=6), _scalar, max_size=4), max_size=3
    ),
)
def test_arbitrary_rows_never_raise(base_rows, meas_rows):
    """Missing/new benchmarks, rows, and metric keys degrade to notes —
    the comparator must never throw on schema-valid artifacts."""
    baseline = {"a": _artifact("a", base_rows), "b": _artifact("b", [])}
    measured = {"a": _artifact("a", meas_rows), "c": _artifact("c", [])}
    result = compare_perf(baseline, measured)
    assert isinstance(result.failures, list)
    assert any("no measured artifact" in n for n in result.notes)  # b
    assert any("new benchmark" in n for n in result.notes)  # c


def test_sizing_mismatch_is_a_note_not_a_failure():
    baseline = {
        "bench": _artifact(
            "bench", [{"engine": "x", "items": 100000, "items_per_sec": 100.0}]
        )
    }
    measured = {
        "bench": _artifact(
            "bench", [{"engine": "x", "items": 4000, "items_per_sec": 1.0}]
        )
    }
    result = compare_perf(baseline, measured)
    assert result.failures == []
    assert result.matched == 0
    assert any("no matching measured row" in n for n in result.notes)
    assert not result.ok(min_matched=1)  # but --min-matched can demand it
    assert result.ok(min_matched=0)


def test_derived_keys_are_not_identity_or_gated():
    row = {"engine": "x", "items_per_sec": 10.0, "speedup": 3.0,
           "overhead_pct": 1.0}
    assert row_identity(row) == (("engine", "x"),)
    baseline = {"bench": _artifact("bench", [row])}
    measured = {
        "bench": _artifact(
            "bench",
            [{"engine": "x", "items_per_sec": 10.0, "speedup": 0.001}],
        )
    }
    assert compare_perf(baseline, measured).failures == []


# --- pinned tests against the committed baselines -----------------------

def _halved(artifacts):
    halved = {}
    for name, artifact in artifacts.items():
        obj = json.loads(json.dumps(artifact))
        for row in obj["rows"]:
            for key in METRIC_KEYS:
                if isinstance(row.get(key), (int, float)):
                    row[key] = row[key] / 2
        halved[name] = obj
    return halved


def test_committed_baselines_self_check():
    baseline = load_perf_dir(PERF_DIR)
    assert len(baseline) == 5
    assert "serve_throughput" in baseline
    result = compare_perf(baseline, baseline)
    assert result.failures == []
    assert result.matched >= 20
    assert result.ok(min_matched=1)


def test_synthetic_2x_drop_fails_every_metric():
    """A 2x throughput regression must fail the gate on every matched
    metric at the default 30% tolerance."""
    baseline = load_perf_dir(PERF_DIR)
    result = compare_perf(baseline, _halved(baseline))
    assert result.matched > 0
    assert len(result.failures) == result.matched
    assert not result.ok(min_matched=0)


def test_update_baseline_round_trip(tmp_path):
    measured_dir = tmp_path / "measured"
    baseline_dir = tmp_path / "baseline"
    measured_dir.mkdir()
    obj = _artifact("bench", [{"engine": "x", "items_per_sec": 42.0}])
    (measured_dir / "bench.json").write_text(json.dumps(obj))
    updated = update_baseline(measured_dir, baseline_dir)
    assert [p.name for p in updated] == ["bench.json"]
    result = compare_perf(
        load_perf_dir(baseline_dir), load_perf_dir(measured_dir)
    )
    assert result.failures == [] and result.matched == 1


def test_load_perf_dir_rejects_wrong_schema(tmp_path):
    (tmp_path / "bad.json").write_text('{"schema": "repro.bench/2"}')
    with pytest.raises(ValueError):
        load_perf_dir(tmp_path)


# --- the CLI wrapper ----------------------------------------------------

def _run_script(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True, text=True,
    )


def test_script_passes_on_committed_baselines():
    proc = _run_script()
    assert proc.returncode == 0, proc.stderr
    assert "perf gate: OK" in proc.stdout


def test_script_fails_on_synthetic_2x_drop(tmp_path):
    baseline = load_perf_dir(PERF_DIR)
    for name, obj in _halved(baseline).items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    proc = _run_script("--measured", str(tmp_path))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    # ... and a loose enough tolerance lets the same drop through.
    proc = _run_script("--measured", str(tmp_path), "--tolerance", "0.6")
    assert proc.returncode == 0


def test_script_update_baseline_requires_measured():
    proc = _run_script("--update-baseline")
    assert proc.returncode == 2
