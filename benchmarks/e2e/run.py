"""End-to-end benchmark of the heterogeneous-MPC simulator.

    python benchmarks/e2e/run.py --seed 0 [--workload W ...] [--trace 0|1]
                                 [--seconds S] [--out DIR] [--quick]

Runs each workload (all by default) for ``--seconds`` seconds as a series
of samples.  Every sample is a fresh child process, started one at a
time with every ``REPRO_*`` variable removed, so it measures the
defaults and pays the per-process set-up that a CLI run pays.  After
each full sample come ``SETUP_REPEATS`` set-up-only samples, so
``setup_s`` has more values than the other timings.
A new round of samples starts only if it is expected to end within
``--seconds``; the first always runs.  Timings are medians across
samples.  Every sample checks its outputs; failed operations are
counted, not raised.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``trace.py`` instead of the end-to-end ones, plus
``trace.overhead``: the median, over adjacent untraced/traced pairs, of
traced ``solve_s`` over untraced ``solve_s``, minus 1.

The program prints a table of every metric with its unit, sample count
and bound, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--out DIR`` also
writes ``DIR/metrics.json`` (the input of ``compare.py``) and, with
``--trace 1``, the spans of one traced sample per workload to
``DIR/trace.json``.  A sample that crashes ends the run with exit code 1
and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

from trace import LAYER_METRICS  # this directory's trace.py, not the stdlib's

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("mst_dense", "connectivity_sketch", "serve_stream")
ALL = frozenset(WORKLOADS)
BATCH = frozenset({"mst_dense", "connectivity_sketch"})
SERVE = frozenset({"serve_stream"})

#: End-to-end metrics: name -> (unit, better, bound, workloads).  The
#: bound is the share of the reference median by which the metric may
#: get worse; ``None`` means the value must repeat exactly.  ``solve_s``
#: and ``setup_s`` are probed seconds (see ``speed.py``): on a shared
#: host, run medians of raw seconds over ten seeds spread by up to a
#: third, so ``solve_wall_s`` is kept out of ``BENCHMARK.json``.  Timings
#: get 25%, peak RSS 15%: it spreads by at most 3.4%.
METRICS = {
    "solve_s": ("s", "lower", 0.25, ALL),
    "solve_wall_s": ("s", "lower", 0.25, ALL),
    "setup_s": ("s", "lower", 0.25, ALL),
    "peak_rss_mb": ("MB", "lower", 0.15, ALL),
    "rounds": ("count", "lower", None, BATCH),
    "words": ("count", "lower", None, BATCH),
    "error_rate": ("ratio", "lower", 0.0, ALL),
    "updates_per_s": ("1/s", "higher", 0.25, SERVE),
    "refresh_s": ("s", "lower", 0.25, SERVE),
    "query_p50_us": ("us", "lower", 0.25, SERVE),
    "query_p99_us": ("us", "lower", 0.25, SERVE),
}

#: The metrics that every workload reports and that never read 0: the
#: ones the last output line carries (``end_to_end`` in BENCHMARK.json).
HEADLINE = ("solve_s", "setup_s", "peak_rss_mb")


#: A sample that runs longer than this is stopped and the run fails.
SAMPLE_TIMEOUT_S = 150

#: Set-up-only samples taken after each full sample.
SETUP_REPEATS = 1


class SampleError(RuntimeError):
    """A child sample crashed or printed no result."""


def child_env() -> tuple[dict[str, str], list[str]]:
    """The environment of a sample, and the ``REPRO_*`` names removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    removed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # Fixed str hashing: set and dict orders repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env, removed


def run_sample(workload: str, args, trace: bool = False, spans: bool = False,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "sample.py"),
           "--workload", workload, "--seed", str(args.seed)]
    cmd += ["--quick"] * args.quick + ["--trace"] * trace + ["--spans"] * spans
    cmd += ["--setup-only"] * setup_only
    env, _ = child_env()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{workload}: sample exceeded {SAMPLE_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"{workload}: sample exited with code {proc.returncode}")
    return json.loads(lines[-1])


def collect(workload: str, args) -> tuple[list[dict], list[dict], list[float]]:
    """Rounds of one untraced sample (with ``--trace``, then one traced
    sample) and ``SETUP_REPEATS`` set-up-only samples, until the next
    round is not expected to end within ``--seconds``."""
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        plain.append(run_sample(workload, args))
        if args.trace:
            keep_spans = args.out is not None and not traced
            traced.append(run_sample(workload, args, trace=True, spans=keep_spans))
        for _ in range(SETUP_REPEATS):
            setups.append(run_sample(workload, args, setup_only=True)["setup_s"])
        now = time.perf_counter()
        if now - began + (now - start) > args.seconds:
            return plain, traced, setups


def _stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "value": statistics.median(values),
        "samples": len(values),
        "min": min(values),
        "max": max(values),
        "q1": q1,
        "q3": q3,
    }


def summarize(workload: str, plain: list[dict], traced: list[dict],
              setups: list[float]) -> dict:
    everything = plain + traced
    attempted = sum(s["attempted"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    metrics = {}
    for name, (unit, better, bound, where) in METRICS.items():
        if workload not in where:
            continue
        if name == "error_rate":
            values = [s["failed"] / s["attempted"] for s in everything]
            entry = _stats(values)
            entry["value"] = failed / attempted
        elif name == "setup_s":
            entry = _stats([s["setup_s"] for s in plain] + setups)
        else:
            values = [s[name] for s in plain if s.get(name) is not None]
            if not values:
                continue
            entry = _stats(values)
            if bound is None:  # an exact count: report a value it took
                entry["value"] = statistics.median_low(values)
        entry.update(unit=unit, better=better, bound=bound)
        metrics[name] = entry
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": len(plain),
        # How much slower than the probe's reference the machine ran.
        "slowdown": statistics.median(s["slowdown"] for s in plain),
        "env": plain[0]["env"],
        "metrics": metrics,
    }
    if traced:
        layers = {}
        for name, unit in LAYER_METRICS.items():
            if name == "trace.overhead":
                # Per adjacent pair, so slow spells of the machine cancel.
                entry = _stats([
                    t["solve_s"] / p["solve_s"] - 1 for p, t in zip(plain, traced)
                ])
            else:
                entry = _stats([s["trace"][name] for s in traced])
            entry["unit"] = unit
            layers[name] = entry
        out["layers"] = layers
    return out


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()
                                  and abs(value) >= 1000):
        return str(int(value))
    return f"{value:.6g}"


def print_report(workload: str, seed: int, summary: dict) -> None:
    status = "correct" if summary["correct"] else "INCORRECT"
    print(f"\n{workload}  seed={seed}  samples={summary['samples']}  "
          f"attempted={summary['attempted']}  failed={summary['failed']}  {status}  "
          f"slowdown={summary['slowdown']:.3g}")
    print(f"  {'metric':<16} {'median':>14} {'unit':<6} {'n':>3} "
          f"{'min':>14} {'max':>14}  bound")
    for name, m in summary["metrics"].items():
        bound = "exact" if m["bound"] is None else f"{m['bound']:.0%}"
        print(f"  {name:<16} {_fmt(m['value']):>14} {m['unit']:<6} {m['samples']:>3} "
              f"{_fmt(m['min']):>14} {_fmt(m['max']):>14}  {bound} ({m['better']})")
    if "layers" in summary:
        print(f"  {'layer metric':<36} {'median':>14} {'unit':<6} {'n':>3}")
        for name, m in summary["layers"].items():
            print(f"  {name:<36} {_fmt(m['value']):>14} {m['unit']:<6} {m['samples']:>3}")


def result_line(summaries: dict, trace: bool) -> dict:
    """The contract line: headline (or per-layer) metrics by name, or by
    ``<workload>.<name>`` when the run covered several workloads."""
    metrics = {}
    for workload, summary in summaries.items():
        prefix = f"{workload}." if len(summaries) > 1 else ""
        chosen = (
            summary["layers"] if trace
            else {name: summary["metrics"][name] for name in HEADLINE}
        )
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="per-layer pass (bare --trace means 1)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write metrics.json (and trace.json) here")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # running sample instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    summaries = {}
    spans = {}
    try:
        for workload in args.workload or WORKLOADS:
            plain, traced, setups = collect(workload, args)
            summaries[workload] = summarize(workload, plain, traced, setups)
            if traced and "spans" in traced[0]:
                spans[workload] = traced[0].pop("spans")
            print_report(workload, args.seed, summaries[workload])
    except SampleError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        report = {
            "schema": "repro.e2e/1",
            "seed": args.seed,
            "seconds": args.seconds,
            "quick": args.quick,
            "trace": bool(args.trace),
            "env_removed": child_env()[1],
            "workloads": summaries,
        }
        (args.out / "metrics.json").write_text(json.dumps(report, indent=1) + "\n")
        if spans:
            (args.out / "trace.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
