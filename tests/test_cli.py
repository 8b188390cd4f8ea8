"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import load_artifact


def run(capsys, argv):
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_mst_command(capsys):
    out = run(capsys, ["mst", "--n", "40", "--m", "200", "--seed", "1"])
    assert "verified=True" in out
    assert "rounds" in out


def test_mst_with_superlinear_f(capsys):
    out = run(capsys, ["mst", "--n", "40", "--m", "400", "--f", "1.0"])
    assert "boruvka steps 0" in out


def test_spanner_command(capsys):
    out = run(capsys, ["spanner", "--n", "40", "--m", "300", "--k", "2"])
    assert "stretch" in out and "<= 11" in out


def test_spanner_weighted(capsys):
    out = run(capsys, ["spanner", "--n", "30", "--m", "120", "--k", "2", "--weighted"])
    assert "<= 22" in out


def test_apsp_command(capsys):
    out = run(capsys, ["apsp", "--n", "30", "--m", "100"])
    assert "APSP oracle" in out


def test_matching_command(capsys):
    out = run(capsys, ["matching", "--n", "40", "--m", "200"])
    assert "maximal=True" in out


def test_matching_filtering(capsys):
    out = run(capsys, ["matching", "--n", "40", "--m", "400", "--f", "0.5"])
    assert "filtering levels" in out
    assert "maximal=True" in out


def test_connectivity_command(capsys):
    out = run(capsys, ["connectivity", "--n", "40", "--m", "60", "--components", "4"])
    assert "components 4 (planted 4)" in out


def test_mis_command(capsys):
    out = run(capsys, ["mis", "--n", "40", "--m", "200"])
    assert "maximal=True" in out


def test_coloring_command(capsys):
    out = run(capsys, ["coloring", "--n", "40", "--m", "200"])
    assert "proper=True" in out


def test_mincut_command(capsys):
    out = run(capsys, ["mincut", "--n", "30", "--cut", "2"])
    assert "exact cut" in out
    assert "weighted estimate" in out


def test_cycle_command(capsys):
    out = run(capsys, ["cycle", "--n", "40", "--seed", "3"])
    assert "cycles" in out and "rounds 1" in out


def test_compare_command(capsys):
    out = run(capsys, ["compare", "--n", "40", "--m", "200"])
    assert "sublinear" in out and "heterogeneous" in out
    assert "MST" in out


def test_gamma_flag(capsys):
    out = run(capsys, ["mst", "--n", "36", "--m", "150", "--gamma", "0.3"])
    assert "verified=True" in out


def usage_error(capsys, argv) -> str:
    """Run *argv*, expect a usage error and return its last stderr line."""
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.splitlines()[-1]


#: Input a subcommand cannot build its graph or config from, and the
#: start of the usage error it reports.
BAD_INPUTS = {
    "mst --n 0": "mst: graph needs at least one vertex",
    "mst --n 5 --m 100": "mst: cannot place 96 edges",
    "mst --gamma 1.5": "mst: gamma must lie in (0, 1)",
    "matching --f -1": "matching: f must be non-negative",
    "connectivity --n 4 --components 5": "connectivity: more components",
    "cycle --n 2": "cycle: need n >= 6",
    "mincut --n 1": "mincut: ",
    "compare --n 0": "compare: graph needs at least one vertex",
    "mincut --n 4 --cut 100": "mincut: cannot plant 100 crossing edges",
    "mincut --n 0": "mincut: cannot plant 3 crossing edges",
    "mincut --cut -1": "mincut: cannot plant -1 crossing edges",
    "mis --n 1 --m 0": "mis: need at least 2 vertices",
    "coloring --n 1 --m 0": "coloring: need at least 2 vertices",
    "matching --gamma -1": "matching: gamma must lie in (0, 1)",
    "matching --gamma 7": "matching: gamma must lie in (0, 1)",
    "matching --gamma nan": "matching: gamma must lie in (0, 1)",
    "connectivity --m -5": "connectivity: extra edge count must be non-negative",
    "connectivity --n 10 --m 1000000": "connectivity: cannot plant 1000000 extra edges",
    "mincut --n 3 --cut 1": "mincut: each half needs at least two vertices, so n >= 4",
    "spanner --n 1 --m 0": "spanner: need at least 2 vertices",
    "apsp --n 1 --m 0": "apsp: need at least 2 vertices",
    "compare --n 1 --m 0": "compare: need at least 2 vertices",
    "connectivity --n 1 --m 0 --components 1": "connectivity: need at least 2 vertices",
    "mst --f nan": "mst: f must be finite, got nan",
    "mst --f inf": "mst: f must be finite, got inf",
    "mst --f 1e308": "mst: f=1e+308 makes the large machine's capacity n^(1+f) overflow",
    "matching --f nan": "matching: f must be finite, got nan",
    "matching --f inf": "matching: f must be finite, got inf",
    "matching --f 1e308": "matching: f=1e+308 makes the large machine's capacity",
}


@pytest.mark.parametrize("line", BAD_INPUTS)
def test_bad_input_is_a_usage_error(capsys, line):
    assert f"error: {BAD_INPUTS[line]}" in usage_error(capsys, line.split())


@pytest.mark.parametrize(
    "line",
    [
        "spanner --k 0",
        "connectivity --components 0",
        "bench --jobs 0",
        "bench --jobs -1",
        "bench --jobs two",
    ],
)
def test_count_flags_reject_values_below_one(capsys, line):
    argv = line.split()
    assert usage_error(capsys, argv).endswith(
        f"argument {argv[1]}: expected an integer >= 1, got {argv[2]!r}"
    )


@pytest.mark.parametrize(
    "command",
    ["spanner", "apsp", "connectivity", "mis", "coloring", "mincut", "cycle", "compare"],
)
def test_gamma_only_where_it_is_read(capsys, command):
    assert "unrecognized arguments: --gamma 0.9" in usage_error(
        capsys, [command, "--gamma", "0.9"]
    )


def test_bench_list(capsys):
    out = run(capsys, ["bench", "--list"])
    assert "table1_mst" in out and "workload_near_clique" in out


def test_bench_requires_scenarios(capsys):
    assert main(["bench"]) == 2
    assert "bench:" in capsys.readouterr().err


def test_bench_unknown_scenario(capsys):
    assert main(["bench", "no_such_scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_bench_quick_smoke_writes_schema_valid_artifacts(capsys, tmp_path):
    out = run(capsys, [
        "bench", "workload_grid", "ablation_kkt_sampling",
        "--quick", "--json", "--out", str(tmp_path),
    ])
    assert "wrote 2 scenario artifact(s)" in out
    artifact = load_artifact(tmp_path / "workload_grid.json")
    assert artifact["quick"] is True
    assert {row["regime"] for row in artifact["rows"]} == {
        "heterogeneous", "sublinear", "near_linear", "superlinear",
    }
    text = (tmp_path / "ablation_kkt_sampling.txt").read_text()
    assert text.startswith("# schema: repro.bench/2")


def test_bench_jobs_matches_serial_bytes(capsys, tmp_path):
    """--jobs N is wired to the ParallelRunner and reproduces the serial
    artifacts byte for byte."""
    args = ["bench", "ablation_kkt_sampling", "cycle_problem",
            "--quick", "--json"]
    run(capsys, args + ["--out", str(tmp_path / "serial")])
    out = run(capsys, args + ["--jobs", "2", "--out", str(tmp_path / "par")])
    assert "wrote 2 scenario artifact(s)" in out
    for path in sorted((tmp_path / "serial").iterdir()):
        assert path.read_bytes() == (tmp_path / "par" / path.name).read_bytes()


def test_bench_all_writes_suite_rollup(capsys, tmp_path, monkeypatch):
    """`bench all --json` maintains suite.json; subsets leave it alone."""
    from repro import experiments

    # Shrink "all" to two scenarios so the smoke test stays fast.
    names = ["ablation_kkt_sampling", "cycle_problem"]
    monkeypatch.setattr(
        experiments, "all_scenarios",
        lambda: [experiments.get_scenario(n) for n in names],
    )
    out = run(capsys, ["bench", "all", "--quick", "--json",
                       "--out", str(tmp_path)])
    assert "suite roll-up" in out
    suite = experiments.load_suite(tmp_path / "suite.json")
    assert [row["scenario"] for row in suite["scenarios"]] == sorted(names)
    assert suite["quick"] is True


def test_report_generates_and_checks(capsys, tmp_path):
    run(capsys, ["bench", "workload_near_clique", "--quick", "--json",
                 "--out", str(tmp_path)])
    doc = tmp_path / "GUIDE.md"
    out = run(capsys, ["report", "--results", str(tmp_path), "--out", str(doc)])
    assert "wrote" in out
    assert "workload_near_clique" in doc.read_text()
    out = run(capsys, ["report", "--check", "--results", str(tmp_path),
                       "--out", str(doc)])
    assert "up to date" in out


def test_report_check_fails_on_stale_doc(capsys, tmp_path):
    run(capsys, ["bench", "workload_near_clique", "--quick", "--json",
                 "--out", str(tmp_path)])
    doc = tmp_path / "GUIDE.md"
    run(capsys, ["report", "--results", str(tmp_path), "--out", str(doc)])
    doc.write_text(doc.read_text() + "drift\n")
    assert main(["report", "--check", "--results", str(tmp_path),
                 "--out", str(doc)]) == 1
    assert "stale" in capsys.readouterr().err


def test_report_check_fails_on_schema_violation(capsys, tmp_path):
    (tmp_path / "bad.json").write_text(json.dumps({"schema": "repro.bench/1"}))
    assert main(["report", "--check", "--results", str(tmp_path),
                 "--out", str(tmp_path / "GUIDE.md")]) == 1
    assert "validation failed" in capsys.readouterr().err


def test_costmodel_generates_and_checks(capsys, tmp_path):
    run(capsys, ["bench", "table1_mst", "--quick", "--json",
                 "--out", str(tmp_path)])
    doc = tmp_path / "COST_MODEL.md"
    out = run(capsys, ["costmodel", "--results", str(tmp_path),
                       "--out", str(doc)])
    assert "wrote" in out
    assert "table1_mst" in doc.read_text()
    out = run(capsys, ["costmodel", "--check", "--results", str(tmp_path),
                       "--out", str(doc)])
    assert "up to date" in out


def test_costmodel_check_fails_on_stale_doc(capsys, tmp_path):
    run(capsys, ["bench", "table1_mst", "--quick", "--json",
                 "--out", str(tmp_path)])
    doc = tmp_path / "COST_MODEL.md"
    run(capsys, ["costmodel", "--results", str(tmp_path), "--out", str(doc)])
    doc.write_text(doc.read_text() + "drift\n")
    assert main(["costmodel", "--check", "--results", str(tmp_path),
                 "--out", str(doc)]) == 1
    assert "stale" in capsys.readouterr().err
