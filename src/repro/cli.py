"""Command-line interface: run any of the paper's algorithms on generated
workloads and print what the simulator measured.

Examples::

    python -m repro mst --n 200 --m 3200 --seed 7
    python -m repro mst --n 200 --m 3200 --f 0.5       # Theorem 3.1
    python -m repro spanner --n 100 --m 1500 --k 3
    python -m repro matching --n 120 --m 2400
    python -m repro connectivity --n 100 --m 300 --components 4
    python -m repro mis --n 100 --m 800
    python -m repro coloring --n 100 --m 800
    python -m repro mincut --n 40 --cut 3
    python -m repro cycle --n 64
    python -m repro compare --n 96 --m 1500             # regime table
    python -m repro bench --list                        # scenario registry
    python -m repro bench all --quick --json            # smoke all scenarios
    python -m repro bench all --json --jobs 4           # process-pool sweep
    python -m repro serve --n 64 --seed 7               # dynamic-graph daemon
    python -m repro report --check                      # docs/REPRODUCTION.md
    python -m repro costmodel --check                   # docs/COST_MODEL.md
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager

from .analysis import render_table
from .baselines import sublinear_boruvka_mst, sublinear_connectivity
from .core import (
    approximate_weighted_mincut,
    build_apsp_oracle,
    exact_unweighted_mincut,
    filtering_matching,
    heterogeneous_coloring,
    heterogeneous_connectivity,
    heterogeneous_matching,
    heterogeneous_mis,
    heterogeneous_mst,
    heterogeneous_spanner,
    solve_one_vs_two_cycles,
)
from .graph import generators
from .graph.validation import (
    is_maximal_independent_set,
    is_maximal_matching,
    is_proper_coloring,
    spanner_stretch,
    verify_mst,
)
from .local.mincut import min_cut_value
from .mpc import ModelConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Heterogeneous MPC (PODC 2022) — algorithm runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, default_m: int | None = None, gamma: bool = False
    ) -> None:
        p.add_argument("--n", type=int, default=100, help="number of vertices")
        if default_m is not None:
            p.add_argument("--m", type=int, default=default_m, help="number of edges")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        if gamma:
            p.add_argument("--gamma", type=float, default=0.5,
                           help="small-machine exponent")

    p = sub.add_parser("mst", help="Section 3 MST")
    common(p, default_m=1600, gamma=True)
    p.add_argument("--f", type=float, default=None, help="superlinear memory exponent (Thm 3.1)")

    p = sub.add_parser("spanner", help="Section 4 O(k)-spanner")
    common(p, default_m=1500)
    p.add_argument("--k", type=_at_least_one, default=2, help="stretch parameter")
    p.add_argument("--weighted", action="store_true")

    p = sub.add_parser("apsp", help="Corollary 4.2 approximate APSP")
    common(p, default_m=600)

    p = sub.add_parser("matching", help="Section 5 maximal matching")
    common(p, default_m=1600, gamma=True)
    p.add_argument("--f", type=float, default=None, help="use Thm 5.5 filtering with n^{1+f} memory")

    p = sub.add_parser("connectivity", help="Theorem C.1 connectivity")
    common(p, default_m=300)
    p.add_argument("--components", type=_at_least_one, default=3)

    p = sub.add_parser("mis", help="Theorem C.6 MIS")
    common(p, default_m=800)

    p = sub.add_parser("coloring", help="Theorem C.7 (Δ+1)-coloring")
    common(p, default_m=800)

    p = sub.add_parser("mincut", help="Theorems C.3/C.4 min-cut")
    common(p)
    p.add_argument("--cut", type=int, default=3, help="planted cut size")

    p = sub.add_parser("cycle", help="the 1-vs-2 cycle problem")
    common(p)

    p = sub.add_parser("compare", help="sublinear vs heterogeneous table")
    common(p, default_m=1500)

    p = sub.add_parser(
        "bench",
        help="run registered benchmark scenarios (text + JSON artifacts)",
    )
    p.add_argument(
        "scenarios", nargs="*",
        help="scenario names from the registry, or 'all'",
    )
    p.add_argument("--list", action="store_true", dest="list_scenarios",
                   help="list registered scenarios and exit")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke sizing; artifacts go to "
                        "benchmarks/results/quick/")
    p.add_argument("--json", action="store_true", dest="json_artifacts",
                   help="also write repro.bench/2 JSON artifacts")
    p.add_argument("--jobs", type=_at_least_one, default=1,
                   help="run sweep points on a process pool of N workers; "
                        "artifacts are byte-identical to a serial run")
    p.add_argument("--out", default=None,
                   help="results directory (default benchmarks/results, "
                        "or benchmarks/results/quick with --quick)")
    p.add_argument("--seed", type=int, default=0, help="runner base seed")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero if any selected scenario run recorded "
                        "capacity violations in its artifact totals")

    p = sub.add_parser(
        "serve",
        help="dynamic-graph query daemon (JSONL over stdio or TCP)",
    )
    p.add_argument("--n", type=int, default=None,
                   help="pre-initialize the service with N vertices "
                        "(otherwise the first client sends an 'init' op)")
    p.add_argument("--seed", type=int, default=0,
                   help="sketch seed; answers replay a from-scratch "
                        "sketch_components run with the same seed")
    p.add_argument("--copies", type=int, default=3,
                   help="l0-sampler copies per phase")
    p.add_argument("--shards", type=int, default=4,
                   help="sketch bank shards (edge id mod shards)")
    p.add_argument("--max-weight", type=int, default=None, dest="max_weight",
                   help="enable approximate-MST-weight queries for weights "
                        "in [1, MAX_WEIGHT]")
    p.add_argument("--epsilon", type=float, default=0.5,
                   help="MST-weight approximation parameter")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   type=_listen_address,
                   help="serve over TCP instead of stdio (port 0 picks an "
                        "ephemeral port, announced on stdout; an empty "
                        "host means 127.0.0.1)")

    p = sub.add_parser(
        "report",
        help="regenerate docs/REPRODUCTION.md from the JSON artifacts",
    )
    p.add_argument("--check", action="store_true",
                   help="verify the committed guide matches the artifacts "
                        "(exit 1 when stale)")
    p.add_argument("--results", default=None,
                   help="artifact directory (default benchmarks/results)")
    p.add_argument("--out", default=None,
                   help="output path (default docs/REPRODUCTION.md)")

    p = sub.add_parser(
        "costmodel",
        help="regenerate docs/COST_MODEL.md (asymptotic fits) from the "
             "JSON artifacts",
    )
    p.add_argument("--check", action="store_true",
                   help="verify the committed cost model matches the "
                        "artifacts (exit 1 when stale)")
    p.add_argument("--results", default=None,
                   help="artifact directory (default benchmarks/results)")
    p.add_argument("--out", default=None,
                   help="output path (default docs/COST_MODEL.md)")
    return parser


def _at_least_one(value: str) -> int:
    """Parse a count flag: an integer of at least 1."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value!r}")
    return number


def _listen_address(value: str) -> tuple[str, int]:
    """Parse ``serve --listen HOST:PORT`` into ``(host, port)``."""
    host, sep, port = value.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 0-65535, got {value!r}"
        )
    return host or "127.0.0.1", int(port)


@contextmanager
def _usage_errors(parser: argparse.ArgumentParser, command: str):
    """Report a ``ValueError`` raised while building *command*'s input
    graph or config as a usage error: exit 2, one line naming the
    subcommand."""
    try:
        yield
    except ValueError as exc:
        parser.error(f"{command}: {exc}")


def _config(args, m: int) -> ModelConfig:
    f = getattr(args, "f", None)
    if f:
        return ModelConfig.heterogeneous_superlinear(
            n=args.n, m=m, f=f, gamma=args.gamma
        )
    return ModelConfig.heterogeneous(n=args.n, m=m, gamma=args.gamma)


def _default_config(graph) -> ModelConfig:
    """The paper's model for *graph*, as the algorithms build it when
    given no config; built here so a graph it rejects is a usage error."""
    return ModelConfig.heterogeneous(n=graph.n, m=max(graph.m, 1))


def _bench_command(args) -> int:
    from . import experiments

    if args.list_scenarios:
        for scenario in experiments.all_scenarios():
            print(f"{scenario.name:28s} [{scenario.group}] {scenario.title}")
        return 0
    if not args.scenarios:
        print("bench: name scenarios to run, or 'all' (see --list)",
              file=sys.stderr)
        return 2
    if args.scenarios == ["all"]:
        selected = experiments.all_scenarios()
    else:
        try:
            selected = [experiments.get_scenario(name) for name in args.scenarios]
        except KeyError as exc:
            print(f"bench: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.out is not None:
        results_dir = args.out
    else:
        results_dir = experiments.report.DEFAULT_RESULTS_DIR
        if args.quick:
            results_dir = results_dir / "quick"
    if args.jobs > 1:
        runner = experiments.ParallelRunner(
            results_dir=results_dir, seed=args.seed, jobs=args.jobs
        )
    else:
        runner = experiments.Runner(results_dir=results_dir, seed=args.seed)
    runs = runner.run_many(
        selected,
        quick=args.quick,
        json_artifact=args.json_artifacts,
        echo=lambda run: print(run.render_text()),
    )
    if args.scenarios == ["all"] and args.json_artifacts:
        # The cross-scenario roll-up only makes sense (and is only safe to
        # overwrite) when the whole registry ran.
        suite = runner.persist_suite(runs)
        if suite is not None:
            print(f"wrote suite roll-up to {suite}")
    print(f"wrote {len(selected)} scenario artifact(s) to {results_dir}")
    if args.strict:
        violating = [
            (run.scenario.name, run.totals["violations"])
            for run in runs
            if run.totals["violations"] > 0
        ]
        if violating:
            for name, count in violating:
                print(
                    f"bench --strict: {name} recorded {count} capacity "
                    "violation(s)",
                    file=sys.stderr,
                )
            return 1
    return 0


def _report_command(args) -> int:
    from . import experiments

    results = args.results or experiments.report.DEFAULT_RESULTS_DIR
    doc = args.out or experiments.report.DEFAULT_DOC_PATH
    if args.check:
        problems = experiments.check_report(results_dir=results, doc_path=doc)
        for problem in problems:
            print(f"report --check: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{doc} is up to date with {results}")
        return 0
    path = experiments.write_report(results_dir=results, doc_path=doc)
    print(f"wrote {path}")
    return 0


def _costmodel_command(args) -> int:
    from .analysis import costmodel

    results = args.results or costmodel.DEFAULT_RESULTS_DIR
    doc = args.out or costmodel.DEFAULT_DOC_PATH
    if args.check:
        problems = costmodel.check_cost_model(results_dir=results, doc_path=doc)
        for problem in problems:
            print(f"costmodel --check: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"{doc} is up to date with {results}")
        return 0
    path = costmodel.write_cost_model(results_dir=results, doc_path=doc)
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench":
        return _bench_command(args)
    if args.command == "serve":
        from .serve.daemon import build_session, run_daemon
        from .serve.service import ServiceError

        try:
            session = build_session(args)
        except ServiceError as exc:
            parser.error(f"serve: {exc}")
        return run_daemon(args, session)
    if args.command == "report":
        return _report_command(args)
    if args.command == "costmodel":
        return _costmodel_command(args)
    rng = random.Random(args.seed)
    out = sys.stdout
    inputs = _usage_errors(parser, args.command)

    if args.command == "mst":
        with inputs:
            graph = generators.random_connected_graph(args.n, args.m, rng)
            graph = graph.with_unique_weights(rng)
            config = _config(args, args.m)
        result = heterogeneous_mst(graph, config=config, rng=rng)
        print(f"MST weight {result.total_weight}, "
              f"verified={verify_mst(graph, result.edges)}", file=out)
        print(f"boruvka steps {result.boruvka_steps}, rounds {result.rounds}", file=out)

    elif args.command == "spanner":
        with inputs:
            graph = generators.random_connected_graph(args.n, args.m, rng)
            config = _default_config(graph)
        if args.weighted:
            graph = graph.with_unique_weights(rng)
        result = heterogeneous_spanner(graph, k=args.k, config=config, rng=rng)
        stretch = spanner_stretch(graph, result.edges)
        print(f"spanner size {result.size} (m={graph.m}), "
              f"stretch {stretch:.2f} <= {result.stretch_bound}, "
              f"rounds {result.rounds}", file=out)

    elif args.command == "apsp":
        with inputs:
            graph = generators.random_connected_graph(args.n, args.m, rng)
            config = _default_config(graph)
        oracle = build_apsp_oracle(graph, config=config, rng=rng)
        print(f"APSP oracle: k={oracle.spanner.k}, "
              f"spanner size {oracle.spanner.size}, "
              f"stretch bound {oracle.stretch_bound}, "
              f"rounds {oracle.rounds}", file=out)

    elif args.command == "matching":
        with inputs:
            graph = generators.random_connected_graph(args.n, args.m, rng)
            config = _config(args, args.m)
        if args.f:
            result = filtering_matching(graph, config=config, rng=rng)
            print(f"filtering levels {result.levels}", file=out)
        else:
            result = heterogeneous_matching(graph, config=config, rng=rng)
            print(f"phase-1 iterations {result.phase1_iterations}", file=out)
        print(f"matching size {result.size}, "
              f"maximal={is_maximal_matching(graph, result.matching)}, "
              f"rounds {result.rounds}", file=out)

    elif args.command == "connectivity":
        with inputs:
            graph = generators.planted_components_graph(
                args.n, args.components, args.m, rng
            )
            config = _default_config(graph)
        result = heterogeneous_connectivity(graph, config=config, rng=rng)
        print(f"components {result.num_components} "
              f"(planted {args.components}), rounds {result.rounds}", file=out)

    elif args.command == "mis":
        with inputs:
            graph = generators.random_connected_graph(args.n, args.m, rng)
            config = _default_config(graph)
        result = heterogeneous_mis(graph, config=config, rng=rng)
        print(f"MIS size {result.size}, "
              f"maximal={is_maximal_independent_set(graph, result.vertices)}, "
              f"iterations {result.iterations}, rounds {result.rounds}", file=out)

    elif args.command == "coloring":
        with inputs:
            graph = generators.random_connected_graph(args.n, args.m, rng)
            config = _default_config(graph)
        result = heterogeneous_coloring(graph, config=config, rng=rng)
        print(f"colors used {len(set(result.colors))} / "
              f"allowed {result.num_colors_allowed}, "
              f"proper={is_proper_coloring(graph, result.colors, result.num_colors_allowed)}, "
              f"rounds {result.rounds}", file=out)

    elif args.command == "mincut":
        with inputs:
            graph = generators.planted_cut_graph(args.n, args.cut, 4.0, rng)
        truth = min_cut_value(graph.n, graph.edges)
        exact = exact_unweighted_mincut(graph, rng=rng)
        weighted = graph.with_unique_weights(rng)
        wtruth = min_cut_value(weighted.n, weighted.edges)
        approx = approximate_weighted_mincut(weighted, rng=rng)
        print(f"exact cut {exact.value} (true {truth}), rounds {exact.rounds}", file=out)
        print(f"weighted estimate {approx.value:.0f} (true {wtruth}), "
              f"rounds {approx.rounds}", file=out)

    elif args.command == "cycle":
        with inputs:
            graph, truth = generators.one_or_two_cycles(args.n, rng)
        result = solve_one_vs_two_cycles(graph, rng=rng)
        print(f"cycles {result.num_cycles} (true {truth}), "
              f"rounds {result.rounds}", file=out)

    elif args.command == "compare":
        with inputs:
            weighted = generators.random_connected_graph(args.n, args.m, rng)
            weighted = weighted.with_unique_weights(rng)
            unweighted = weighted.unweighted()
            het_config = _default_config(weighted)
            sub_config = ModelConfig.sublinear(n=weighted.n, m=max(weighted.m, 1))
        rows = []
        sub = sublinear_connectivity(
            unweighted, config=sub_config, rng=random.Random(args.seed + 1)
        )
        het = heterogeneous_connectivity(
            unweighted, config=het_config, rng=random.Random(args.seed + 2)
        )
        rows.append({"problem": "connectivity", "sublinear": sub.rounds,
                     "heterogeneous": het.rounds})
        sub = sublinear_boruvka_mst(
            weighted, config=sub_config, rng=random.Random(args.seed + 3)
        )
        het = heterogeneous_mst(
            weighted, config=het_config, rng=random.Random(args.seed + 4)
        )
        rows.append({"problem": "MST", "sublinear": sub.rounds,
                     "heterogeneous": het.rounds})
        print(render_table(rows, ["problem", "sublinear", "heterogeneous"]), file=out)

    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
