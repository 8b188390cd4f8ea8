"""Executes :class:`~repro.experiments.scenario.Scenario` objects.

One :class:`Runner` replaces the hand-rolled sweep loop every benchmark
script used to carry: it iterates the scenario's sweep axis, seeds a
deterministic RNG per point, lets the scenario measure the point, pulls
round/word/memory aggregates out of any :class:`~repro.mpc.ledger.
RoundLedger` the measurement hands back, and packages the rows as a text
table plus a schema-versioned JSON artifact (see ``artifacts.py``).

:class:`ParallelRunner` fans the same work out over a process pool — the
unit of work is one ``(scenario, sweep index)`` point, measured by the
exact function the serial path uses with the exact per-point RNG
derivation, so serial and parallel runs produce **byte-identical**
artifacts.  Scenario objects hold closures and never cross the process
boundary; workers re-resolve them by name from the registry.
"""

from __future__ import annotations

import pathlib
import random
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..analysis import render_table
from .artifacts import (
    SCHEMA_VERSION,
    SUITE_SCHEMA_VERSION,
    THROTTLE_COUNT_KEYS,
    TOTAL_KEYS,
    artifact_path,
    suite_path,
    text_header,
    write_artifact,
    write_suite,
)
from .scenario import Scenario

__all__ = [
    "MeasuredPoint",
    "ParallelRunner",
    "Runner",
    "ScenarioRun",
    "ledger_columns",
    "measure_point",
    "merge_throttle",
]


def ledger_columns(ledger: Any, prefix: str = "") -> dict[str, Any]:
    """Word and memory aggregates of one :class:`RoundLedger`, as
    artifact-ready columns.  Model-level quantities only — deterministic
    by construction, which is what keeps artifacts byte-identical across
    serial and parallel runs (wall-clock stays in the in-process ledger,
    see ``RoundLedger.hottest_notes``)."""
    tag = f"{prefix}_" if prefix else ""
    return {
        f"{tag}words": ledger.total_words,
        f"{tag}max_memory": ledger.max_memory,
    }


@dataclass
class MeasuredPoint:
    """One sweep point's outcome: the row, the ledger-derived columns (in
    first-seen order), the model-level totals for the suite roll-up, and
    the throttle digest (``None`` for unthrottled measurements)."""

    row: dict[str, Any]
    ledger_cols: dict[str, Any]
    totals: dict[str, int]
    throttle: dict[str, Any] | None = None


def merge_throttle(
    blocks: Iterable[dict[str, Any] | None]
) -> dict[str, Any] | None:
    """Fold per-point throttle digests into one artifact block: the policy
    fields come from the first digest (one policy per scenario), counters
    are summed and the peak load fractions maxed over the sweep.  Returns
    ``None`` when no point produced a digest — the artifact then carries
    no ``throttle`` key at all, keeping unthrottled artifacts
    byte-identical to pre-throttle builds."""
    blocks = [block for block in blocks if block]
    if not blocks:
        return None
    merged: dict[str, Any] = {
        key: blocks[0][key] for key in ("mode", "headroom", "window")
    }
    for key in THROTTLE_COUNT_KEYS:
        merged[key] = sum(int(block.get(key, 0)) for block in blocks)
    for key in ("peak_traffic_frac", "peak_memory_frac"):
        merged[key] = round(max(float(block.get(key, 0.0)) for block in blocks), 6)
    return merged


def measure_point(
    scenario: Scenario, index: int, point: Any, seed: int, quick: bool
) -> MeasuredPoint:
    """Measure one sweep point — the shared unit of work of both runners.

    The per-point RNG is derived from ``(seed, scenario, index)`` alone,
    so execution order (and process placement) cannot change results.
    """
    rng = random.Random(f"{seed}:{scenario.name}:{index}")
    row = scenario.measure(point, rng, quick)
    ledgers = row.pop("_ledgers", None) or {}
    throttle = row.pop("_throttle", None)
    ledger_cols: dict[str, Any] = {}
    totals = dict.fromkeys(TOTAL_KEYS, 0)
    for prefix, ledger in ledgers.items():
        ledger_cols.update(ledger_columns(ledger, prefix))
        summary = ledger.summary()
        totals["rounds"] += summary["rounds"]
        totals["words"] += summary["total_words"]
        totals["violations"] += summary["violations"]
        totals["max_memory"] = max(totals["max_memory"], summary["max_memory"])
    return MeasuredPoint(
        row=row, ledger_cols=ledger_cols, totals=totals, throttle=throttle
    )


def _pool_measure(name: str, index: int, seed: int, quick: bool) -> MeasuredPoint:
    """Process-pool entry point: re-resolve the scenario by name (Scenario
    objects hold closures and are not picklable) and measure one point."""
    from .registry import get_scenario

    scenario = get_scenario(name)
    point = scenario.sweep(quick)[index]
    return measure_point(scenario, index, point, seed, quick)


@dataclass
class ScenarioRun:
    """The outcome of running one scenario: rows plus render helpers."""

    scenario: Scenario
    rows: list[dict[str, Any]]
    quick: bool
    columns: tuple[str, ...] = field(default=())
    totals: dict[str, int] = field(default_factory=lambda: dict.fromkeys(TOTAL_KEYS, 0))
    throttle: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.columns:
            self.columns = tuple(self.scenario.columns)

    def to_artifact(self) -> dict[str, Any]:
        s = self.scenario
        artifact = {
            "schema": SCHEMA_VERSION,
            "scenario": s.name,
            "title": s.title,
            "group": s.group,
            "problem": s.problem,
            "graph_family": s.graph_family,
            "regimes": list(s.regimes),
            "axis": s.axis,
            "quick": self.quick,
            "columns": list(self.columns),
            "rows": self.rows,
            "totals": dict(self.totals),
        }
        if self.throttle is not None:
            artifact["throttle"] = dict(self.throttle)
        return artifact

    def render_text(self) -> str:
        """The legacy text-table artifact, now carrying a schema header so
        text and JSON outputs stay correlated."""
        title = self.scenario.title
        return (
            f"{text_header(self.scenario.name)}{title}\n{'=' * len(title)}\n"
            f"{render_table(self.rows, self.columns)}\n"
        )


class Runner:
    """Runs scenarios serially and persists their artifacts.

    Args:
        results_dir: where ``<scenario>.txt`` / ``<scenario>.json`` land
            (``benchmarks/results`` for real runs, a scratch directory for
            smoke runs).
        seed: base seed mixed into every per-point RNG.
    """

    def __init__(self, results_dir: pathlib.Path | str | None = None, seed: int = 0):
        self.results_dir = pathlib.Path(results_dir) if results_dir else None
        self.seed = seed

    def point_rng(self, scenario: Scenario, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{scenario.name}:{index}")

    def _assemble(
        self, scenario: Scenario, measured: list[MeasuredPoint], quick: bool
    ) -> ScenarioRun:
        """Merge per-point outcomes (in sweep order) into one run — the
        single code path both runners go through, so artifact bytes cannot
        depend on how the points were executed."""
        rows = []
        extra_columns: list[str] = []
        totals = dict.fromkeys(TOTAL_KEYS, 0)
        for outcome in measured:
            row = outcome.row
            for key, value in outcome.ledger_cols.items():
                row[key] = value
                if key not in extra_columns:
                    extra_columns.append(key)
            rows.append(row)
            for key in TOTAL_KEYS:
                if key == "max_memory":
                    totals[key] = max(totals[key], outcome.totals[key])
                else:
                    totals[key] += outcome.totals[key]
        columns = tuple(scenario.columns) + tuple(
            c for c in extra_columns if c not in scenario.columns
        )
        run = ScenarioRun(
            scenario=scenario, rows=rows, quick=quick, columns=columns,
            totals=totals,
            throttle=merge_throttle(outcome.throttle for outcome in measured),
        )
        if scenario.check is not None and not quick:
            scenario.check(rows)
        return run

    def run(self, scenario: Scenario, quick: bool = False) -> ScenarioRun:
        """Execute one scenario's sweep; returns the collected rows.

        Shape checks (``scenario.check``) run on full sweeps only: quick
        sweeps are sized for smoke coverage, not asymptotics.
        """
        measured = [
            measure_point(scenario, index, point, self.seed, quick)
            for index, point in enumerate(scenario.sweep(quick))
        ]
        return self._assemble(scenario, measured, quick)

    def persist(self, run: ScenarioRun, json_artifact: bool = True) -> list[pathlib.Path]:
        """Write the text table and (optionally) the JSON artifact."""
        if self.results_dir is None:
            return []
        self.results_dir.mkdir(parents=True, exist_ok=True)
        written = []
        text_path = self.results_dir / f"{run.scenario.name}.txt"
        text_path.write_text(run.render_text())
        written.append(text_path)
        if json_artifact:
            json_path = artifact_path(self.results_dir, run.scenario.name)
            write_artifact(json_path, run.to_artifact())
            written.append(json_path)
        return written

    def persist_suite(self, runs: Iterable[ScenarioRun]) -> pathlib.Path | None:
        """Write the cross-scenario ``suite.json`` roll-up: one row per
        scenario with its rounds/words/max-memory/violations totals."""
        if self.results_dir is None:
            return None
        runs = sorted(runs, key=lambda run: run.scenario.name)
        obj = {
            "schema": SUITE_SCHEMA_VERSION,
            "quick": any(run.quick for run in runs),
            "scenarios": [
                {
                    "scenario": run.scenario.name,
                    "group": run.scenario.group,
                    "points": len(run.rows),
                    **{key: run.totals[key] for key in TOTAL_KEYS},
                }
                for run in runs
            ],
        }
        path = suite_path(self.results_dir)
        write_suite(path, obj)
        return path

    def run_many(
        self, scenarios: Iterable[Scenario], quick: bool = False,
        json_artifact: bool = True, echo=None,
    ) -> list[ScenarioRun]:
        """Run several scenarios, persisting each as it completes."""
        runs = []
        for scenario in scenarios:
            run = self.run(scenario, quick=quick)
            self.persist(run, json_artifact=json_artifact)
            if echo is not None:
                echo(run)
            runs.append(run)
        return runs


class ParallelRunner(Runner):
    """Runs scenario sweeps across a process pool (``bench --jobs N``).

    Every ``(scenario, index)`` pair is one pool task; results are
    reassembled in sweep order through the same ``_assemble`` path as the
    serial runner, so the persisted artifacts are byte-identical to a
    serial run with the same seed and sizing.  This pool is the only one:
    a cluster runs its machines' local steps inline.
    """

    def __init__(
        self,
        results_dir: pathlib.Path | str | None = None,
        seed: int = 0,
        jobs: int = 2,
    ):
        super().__init__(results_dir=results_dir, seed=seed)
        self.jobs = max(1, int(jobs))

    def run_many(
        self, scenarios: Iterable[Scenario], quick: bool = False,
        json_artifact: bool = True, echo=None,
    ) -> list[ScenarioRun]:
        scenarios = list(scenarios)
        tasks = [
            (scenario.name, index)
            for scenario in scenarios
            for index in range(len(scenario.sweep(quick)))
        ]
        measured: dict[tuple[str, int], MeasuredPoint] = {}
        with ProcessPoolExecutor(max_workers=self.jobs) as pool:
            pending = {
                pool.submit(_pool_measure, name, index, self.seed, quick): (name, index)
                for name, index in tasks
            }
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    measured[pending.pop(future)] = future.result()
        runs = []
        for scenario in scenarios:
            outcomes = [
                measured[(scenario.name, index)]
                for index in range(len(scenario.sweep(quick)))
            ]
            run = self._assemble(scenario, outcomes, quick)
            self.persist(run, json_artifact=json_artifact)
            if echo is not None:
                echo(run)
            runs.append(run)
        return runs
