"""Declarative experiment subsystem.

``Scenario`` (scenario.py) describes one benchmark as data; the registry
(registry.py) declares every Table-1 / figure / theorem / ablation
benchmark plus the workload matrix; ``Runner`` (runner.py) executes
scenarios serially and ``ParallelRunner`` fans the sweep points out over
a process pool (byte-identical artifacts either way); both emit text
tables plus ``repro.bench/2`` JSON artifacts and the ``suite.json``
roll-up (artifacts.py); report.py regenerates ``docs/REPRODUCTION.md``
from those artifacts.  The CLI front ends are ``python -m repro bench``
(``--jobs N`` for the parallel path) and ``python -m repro report``.
"""

from .artifacts import (
    SCHEMA_VERSION,
    SUITE_SCHEMA_VERSION,
    ArtifactError,
    load_artifact,
    load_results_dir,
    load_suite,
    suite_path,
    validate_artifact,
    validate_suite,
    write_artifact,
    write_suite,
)
from .registry import SCENARIOS, all_scenarios, get_scenario, scenario_names
from .report import check_report, render_report, write_report
from .runner import (
    MeasuredPoint,
    ParallelRunner,
    Runner,
    ScenarioRun,
    ledger_columns,
    measure_point,
    point_rng,
)
from .scenario import GROUPS, REGIMES, Scenario, regime_config

__all__ = [
    "SCHEMA_VERSION",
    "SUITE_SCHEMA_VERSION",
    "ArtifactError",
    "load_artifact",
    "load_results_dir",
    "load_suite",
    "suite_path",
    "validate_artifact",
    "validate_suite",
    "write_artifact",
    "write_suite",
    "SCENARIOS",
    "all_scenarios",
    "get_scenario",
    "scenario_names",
    "check_report",
    "render_report",
    "write_report",
    "MeasuredPoint",
    "ParallelRunner",
    "Runner",
    "ScenarioRun",
    "ledger_columns",
    "measure_point",
    "point_rng",
    "GROUPS",
    "REGIMES",
    "Scenario",
    "regime_config",
]
