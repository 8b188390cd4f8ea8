#!/usr/bin/env python3
"""Call census: which functions in ``src/`` does the program run?

Drives every entry point :func:`drive` lists, in this process, with a
``sys.setprofile`` hook that records each Python function called. Then
it prints every function defined under ``src/`` (nested ones included)
that no entry point called, with its line count. The entry points are:

- every registered scenario in quick mode, with its JSON artifacts and
  the suite roll-up, and a report and a cost model written from them;
- each algorithm subcommand of the CLI at a small size, ``bench --list``,
  ``report --check`` and ``costmodel --check``;
- the requests of ``tests/serve/golden_transcript.jsonl``, piped through
  ``repro serve`` on stdio;
- every script in ``examples/``.

``DECLARED`` lists what the census cannot reach, grouped by reason. The
script exits 1 if an uncalled function is missing from it — code that
only tests call belongs in ``tests/``, not in ``src/`` — or if it names
a function that was called or is gone (a stale declaration).

Run it with::

    python scripts/call_census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import runpy
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Functions the entry points cannot reach, as ``module:qualname``, by
#: reason.
DECLARED = {
    "the TCP daemon, and the client, which runs the daemon in its own process": [
        "repro.cli:_listen_address",
        "repro.serve.daemon:serve_tcp",
        *(
            f"repro.serve.client:ServeClient.{name}"
            for name in (
                "__init__", "spawn", "connect", "request", "call", "ping",
                "init", "update", "connected", "components", "mst_weight",
                "stats", "shutdown", "close", "__enter__", "__exit__",
            )
        ),
    ],
    "the --jobs pool, whose workers are other processes": [
        "repro.experiments.runner:_pool_measure",
        "repro.experiments.runner:ParallelRunner.__init__",
        "repro.experiments.runner:ParallelRunner.run_many",
    ],
    "the perf gate, which scripts/perf_gate.py runs": [
        "repro.experiments.perfgate:row_identity",
        "repro.experiments.perfgate:load_perf_dir",
        "repro.experiments.perfgate:GateResult.ok",
        "repro.experiments.perfgate:GateResult.render",
        "repro.experiments.perfgate:compare_perf",
        "repro.experiments.perfgate:update_baseline",
    ],
    "the shape checks, which only full-size sweeps run": [
        f"repro.experiments.registry:_check_{name}"
        for name in (
            "table1_connectivity", "table1_mst", "table1_mst_approx",
            "table1_spanner", "matching", "table1_mis", "table1_coloring",
            "table1_mincut", "fig1", "corollary42", "cycle", "theorem31",
            "theorem55", "ablation_gamma", "ablation_kkt", "ablation_copies",
            "workload", "large_connectivity", "large_mst", "robustness",
        )
    ],
    "env_flag, which only benchmarks call": [
        "repro.env:env_flag",
    ],
    "branches no quick sweep takes": [
        # The enforcing throttle splits a plan through RoundPlan.runs; no
        # sweep overloads a scatter under it.
        "repro.mpc.plan:_Scatter.runs",
        # Theorem C.1 under a throttle.
        "repro.mpc.throttle:ThrottleController.note_bank",
        # Banks of two equal specs that are not one object.
        "repro.sketches.field:KWiseHash.__eq__",
        "repro.sketches.field:KWiseHash.__hash__",
    ],
    "error paths and __repr__s": [
        "repro.mpc.errors:CapacityExceeded.__init__",
        "repro.mpc.machine:Machine._round",
        "repro.mpc.machine:memory_limit",
        "repro.primitives.join:_pair_error",
        "repro.graph.graph:Graph.__repr__",
        "repro.mpc.cluster:Cluster.__repr__",
        "repro.mpc.machine:Machine.__repr__",
        "repro.mpc.plan:RoundPlan.__repr__",
        "repro.primitives.columnar:EdgeBlock.__repr__",
    ],
    "checkers and generators that tests use as references": [
        "repro.graph.validation:_endpoints",
        "repro.graph.validation:is_spanning_forest",
        "repro.graph.validation:is_spanning_tree",
        "repro.graph.validation:verify_spanner",
        "repro.graph.validation:cut_value",
        "repro.graph.validation:verify_components",
        "repro.graph.traversal:all_pairs_distances",
        "repro.graph.traversal:is_connected",
        "repro.graph.traversal:graph_diameter",
        "repro.graph.generators:weighted",
        "repro.graph.generators:complete_graph",
        "repro.graph.generators:random_bipartite_graph",
    ],
    "container methods and accessors of public types, which tests read": [
        "repro.sketches.bank:SketchBank.__contains__",
        "repro.sketches.bank:SketchBank.__iter__",
        "repro.sketches.bank:SketchBank.__len__",
        "repro.graph.union_find:UnionFind.__len__",
        "repro.primitives.columnar:EdgeBlock.__bool__",
        "repro.primitives.columnar:EdgeBlock.__eq__",
        "repro.mpc.machine:Machine.datasets",
        "repro.mpc.machine:Machine.__contains__",
        "repro.mpc.machine:Machine.is_large",
        # The engine reads usage as a vector; this is one machine's entry.
        "repro.mpc.machine:Machine.usage",
        "repro.graph.graph:Graph.vertices",
        "repro.graph.graph:Graph.total_weight",
        "repro.mpc.ledger:RoundLedger.hottest_notes",
        "repro.core.spanner.apsp:ApproximateAPSP.distance",
        "repro.experiments.artifacts:load_suite",
        "repro.experiments.registry:scenario_names",
    ],
    "GraphService.surviving_edges, which benchmarks/e2e calls": [
        "repro.serve.service:GraphService.surviving_edges",
    ],
}


@dataclass(frozen=True)
class Function:
    name: str  # ``module:qualname``
    path: pathlib.Path
    first: int  # first line, decorators included
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def defined_functions(root: pathlib.Path) -> list[Function]:
    """Every ``def`` in the ``.py`` files under *root*, nested ones
    included, in file and line order; a function nested in another one is
    named ``outer.<locals>.inner``, as ``__qualname__`` names it."""
    found = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    found.append(
                        Function(f"{module}:{qualname}", path, first, child.end_lineno)
                    )
                    visit(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def called_code(run: Callable[[], None]) -> set[tuple[str, int]]:
    """``(file, first line)`` of every Python function *run* calls."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}


def uncalled(root: pathlib.Path, run: Callable[[], None]) -> list[Function]:
    """The functions under *root* that *run* never calls."""
    called = called_code(run)
    return [
        f
        for f in defined_functions(root)
        if (os.path.realpath(f.path), f.first) not in called
    ]


def verdict(
    missed: list[Function], declared: set[str]
) -> tuple[list[Function], list[str]]:
    """The uncalled functions *declared* does not name, and the declared
    names that are not uncalled functions (called, or gone): the census
    passes when both are empty."""
    undeclared = [f for f in missed if f.name not in declared]
    stale = sorted(declared - {f.name for f in missed})
    return undeclared, stale


def drive() -> None:
    """Run every entry point of the census, output discarded; a CLI
    invocation that exits non-zero stops the census."""
    from repro import cli

    def run(argv: list[str]) -> None:
        code = cli.main(argv)
        if code:
            raise RuntimeError(f"repro {' '.join(argv)} exited {code}")

    golden = REPO_ROOT / "tests" / "serve" / "golden_transcript.jsonl"
    requests = "".join(
        json.loads(line)["request"]
        for line in golden.read_text(encoding="ascii").splitlines()
    )
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(
        io.StringIO()
    ):
        out = pathlib.Path(scratch)
        for argv in (
            ["bench", "all", "--quick", "--json", "--out", scratch],
            ["report", "--results", scratch, "--out", str(out / "REPRODUCTION.md")],
            ["costmodel", "--results", scratch, "--out", str(out / "COST_MODEL.md")],
            ["bench", "--list"],
            ["report", "--check"],
            ["costmodel", "--check"],
            ["mst", "--n", "60", "--m", "400"],
            ["mst", "--n", "60", "--m", "400", "--f", "0.5"],
            ["spanner", "--n", "60", "--m", "400", "--k", "3"],
            ["spanner", "--n", "60", "--m", "400", "--weighted"],
            ["apsp", "--n", "60", "--m", "400"],
            ["matching", "--n", "60", "--m", "400"],
            ["matching", "--n", "60", "--m", "400", "--f", "0.5"],
            ["connectivity", "--n", "60", "--m", "200", "--components", "4"],
            ["mis", "--n", "60", "--m", "400"],
            ["coloring", "--n", "60", "--m", "400"],
            ["mincut", "--n", "24", "--cut", "2"],
            ["cycle", "--n", "32"],
            ["compare", "--n", "60", "--m", "400"],
        ):
            run(argv)
        stdin, sys.stdin = sys.stdin, io.StringIO(requests)
        try:
            run(["serve"])
        finally:
            sys.stdin = stdin
        for example in sorted((REPO_ROOT / "examples").glob("*.py")):
            runpy.run_path(str(example), run_name="__main__")


def main() -> int:
    sys.path.insert(0, str(SRC))
    missed = uncalled(SRC, drive)
    declared = {name for names in DECLARED.values() for name in names}
    undeclared, stale = verdict(missed, declared)
    for f in missed:
        mark = " " if f.name in declared else "!"
        path = f.path.relative_to(REPO_ROOT)
        print(f"{mark} {path}:{f.first} {f.name} ({f.lines} lines)")
    for name in stale:
        print(f"stale: {name} is declared but was called or is gone")
    total = len(defined_functions(SRC))
    print(
        f"{len(missed)} of {total} src/ functions uncalled "
        f"({sum(f.lines for f in missed)} lines), {len(undeclared)} undeclared, "
        f"{len(stale)} stale"
    )
    if undeclared:
        print("undeclared (marked !): move them to tests/, delete them, or "
              "declare why the census cannot reach them", file=sys.stderr)
    if stale:
        print("stale: take them out of DECLARED", file=sys.stderr)
    return 1 if undeclared or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
