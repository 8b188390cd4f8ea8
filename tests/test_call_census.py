"""The collector of ``scripts/call_census.py``: a function the driven
code never calls is reported, and only that one; and its verdict, which
fails on an undeclared uncalled function and on a stale declaration."""

import importlib.util
import pathlib
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "call_census.py"


def load(name: str, path: pathlib.Path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_collector_reports_exactly_the_uncalled_function(tmp_path, monkeypatch):
    census = load("call_census", SCRIPT, monkeypatch)
    (tmp_path / "pkg").mkdir()
    source = tmp_path / "pkg" / "mod.py"
    source.write_text("def called():\n    return 1\n\n\ndef uncalled():\n    return 2\n")
    module = load("pkg.mod", source, monkeypatch)
    missed = census.uncalled(tmp_path, module.called)
    assert [(f.name, f.first, f.lines) for f in missed] == [("pkg.mod:uncalled", 5, 2)]


def test_verdict_fails_undeclared_and_stale_names(monkeypatch):
    census = load("call_census", SCRIPT, monkeypatch)

    def missed(*names):
        return [census.Function(name, SCRIPT, 1, 2) for name in names]

    assert census.verdict(missed("m:a", "m:b"), {"m:a", "m:b"}) == ([], [])
    assert census.verdict([], set()) == ([], [])
    undeclared, stale = census.verdict(missed("m:a", "m:new"), {"m:a"})
    assert [f.name for f in undeclared] == ["m:new"] and stale == []
    # Declared, but called now or deleted: stale.
    assert census.verdict(missed("m:a"), {"m:a", "m:gone", "m:called"}) == (
        [], ["m:called", "m:gone"]
    )
