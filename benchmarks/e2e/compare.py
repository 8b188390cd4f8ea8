"""Compare end-to-end benchmark runs of two commits.

    python benchmarks/e2e/compare.py A/metrics.json B/metrics.json
    python benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

``A`` is the reference (the parent commit), ``B`` the candidate.  With
one run per side, a side's statistics are its run's own, over the
samples of that run.  With several runs per side (run with the same
seeds on both sides, alternating which side runs first), they are the
median, quartiles and extremes of the run medians, which also show the
drift of the machine between runs.

For every workload and end-to-end metric of ``A`` it prints both medians
with their quartiles and a verdict:

* ``within`` — no worse than the metric's bound allows;
* ``better`` — better by more than the bound;
* ``worse`` — worse by more than the bound (for ``error_rate``, whose
  bound is 0: any rise);
* ``unresolved`` — the spread of either side, ``(q3 - q1) / median``, is
  wider than the bound, so the runs cannot tell a change from noise.
  Such a metric is ``worse`` or ``better`` only if its median moved by
  more than the bound and every value of ``B`` lies beyond every value of
  ``A`` in that direction;
* ``same`` / ``differs`` — for exact counts (``rounds``, ``words``):
  the runs of each seed must read the same on both sides;
* ``missing`` — ``B`` does not report it.

Exits 1 if any metric is worse, differs or is missing, else 0.  An
unresolved metric does not fail the comparison; it needs more runs
before it counts either way.
"""

from __future__ import annotations

import json
import statistics
import sys

FAILING = ("worse", "differs", "missing")


def pool(entries: list[dict], seeds: list[int]) -> dict:
    """One side's entry for a metric, from its runs and their seeds."""
    entry = dict(entries[0])
    values = [e["value"] for e in entries]
    if entry["bound"] is None:
        # An exact count: runs of one seed must agree, and are matched
        # against the other side's runs of the same seed.
        by_seed: dict | None = {}
        for seed, value in zip(seeds, values):
            if by_seed.setdefault(seed, value) != value:
                by_seed = None
                break
        entry["by_seed"] = by_seed
    if len(entries) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(value=statistics.median_low(values) if entry["bound"] is None
                     else statistics.median(values),
                     q1=q1, q3=q3, min=min(values), max=max(values),
                     samples=len(values))
    return entry


def spread(entry: dict) -> float:
    """Distance between the quartiles, over the median."""
    return (entry["q3"] - entry["q1"]) / abs(entry["value"]) if entry["value"] else 0.0


def verdict(a: dict, b: dict | None) -> str:
    if b is None:
        return "missing"
    old, new, bound = a["value"], b["value"], a["bound"]
    if bound is None:
        same = a["by_seed"] is not None and a["by_seed"] == b["by_seed"]
        return "same" if same else "differs"
    if new is None:
        return "missing"
    lo_a, hi_a, lo_b, hi_b = a["min"], a["max"], b["min"], b["max"]
    if a["better"] == "higher":
        # Negate both sides: lower is better from here on.
        old, new = -old, -new
        lo_a, hi_a, lo_b, hi_b = -hi_a, -lo_a, -hi_b, -lo_b
    slack = abs(old) * bound
    moved = "worse" if new > old + slack else "better" if new < old - slack else "within"
    if bound == 0 or max(spread(a), spread(b)) <= bound:
        return moved
    apart = {"worse": lo_b > hi_a, "better": hi_b < lo_a}.get(moved, False)
    return moved if apart else "unresolved"


def compare(a_runs: list[dict], b_runs: list[dict]) -> list[tuple]:
    """``(workload, metric, a entry, b entry, verdict)`` rows."""
    a_seeds = [run["seed"] for run in a_runs]
    b_seeds = [run["seed"] for run in b_runs]
    rows = []
    for workload, ref in a_runs[0]["workloads"].items():
        for name in ref["metrics"]:
            a = pool([run["workloads"][workload]["metrics"][name] for run in a_runs],
                     a_seeds)
            found = [
                run["workloads"].get(workload, {}).get("metrics", {}).get(name)
                for run in b_runs
            ]
            b = pool(found, b_seeds) if None not in found else None
            rows.append((workload, name, a, b, verdict(a, b)))
    return rows


def _cell(entry: dict | None) -> str:
    if entry is None:
        return "-"
    return f"{entry['value']:.6g} [{entry['q1']:.4g}, {entry['q3']:.4g}]"


def _load(paths: list[str]) -> list[dict]:
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.load(handle))
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        cut = argv.index("--")
        a_paths, b_paths = argv[:cut], argv[cut + 1:]
    elif len(argv) == 2:
        a_paths, b_paths = argv[:1], argv[1:]
    else:
        a_paths = b_paths = []
    if not a_paths or not b_paths:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(_load(a_paths), _load(b_paths))
    print(f"{'workload':<20} {'metric':<14} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'bound':>6}  verdict")
    for workload, name, ea, eb, result in rows:
        bound = "exact" if ea["bound"] is None else f"{ea['bound']:.0%}"
        print(f"{workload:<20} {name:<14} {_cell(ea):<34} {_cell(eb):<34} "
              f"{bound:>6}  {result}")
    failing = [row for row in rows if row[4] in FAILING]
    unresolved = [row for row in rows if row[4] == "unresolved"]
    print(f"{len(rows)} metrics compared, {len(failing)} outside their bounds, "
          f"{len(unresolved)} unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    raise SystemExit(main())
