"""Outside-in span tracer for the end-to-end benchmark.

The tracer wraps public entry points of the ``repro`` layers from outside
the program, so the code under test is unchanged:

* a class method is patched on the class that defines it;
* a module function is patched at every ``repro.*`` module attribute that
  is the same function object, because ``from x import f`` binds a copy
  of the name in the importing module.

Every call of a wrapped boundary records one span ``(name, start, end,
parent span, request id)`` in memory.  A span opened with no span around
it starts a new request, and its children share that request's id, so
each serve request gets its own id.  A span's *self time* is its duration
minus the time its child spans cover; since spans nest, the self times of
all spans add up to the time the root spans cover.

A boundary whose module or attribute no longer exists is skipped, and
its metrics then read 0 calls and 0 seconds: the benchmark keeps running
on commits that delete a layer's entry point.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

#: ``(metric prefix, module, attribute path)``.  Several targets may share
#: one prefix (one boundary implemented by two backend classes).
BOUNDARIES = (
    ("mpc.execute", "repro.mpc.cluster", "Cluster.execute"),
    ("mpc.word_size_many", "repro.mpc.words", "word_size_many"),
    ("mpc.machine_put", "repro.mpc.machine", "Machine.put"),
    ("mpc.run_local_steps", "repro.mpc.cluster", "Cluster.run_local_steps"),
    ("primitives.sample_sort", "repro.primitives.sort", "sample_sort"),
    ("primitives.aggregate", "repro.primitives.aggregate", "aggregate"),
    ("primitives.broadcast", "repro.primitives.broadcast", "broadcast"),
    ("primitives.converge_cast", "repro.primitives.broadcast", "converge_cast"),
    ("primitives.disseminate", "repro.primitives.disseminate", "disseminate"),
    ("primitives.join", "repro.primitives.join", "annotate_edges_with_vertex_values"),
    ("primitives.arrange", "repro.primitives.arrange", "arrange_directed"),
    ("primitives.dedup", "repro.primitives.dedup", "dedup_lightest"),
    ("sketches.update_edges", "repro.sketches.bank", "SketchBank.update_edges"),
    ("sketches.row", "repro.sketches.bank", "SketchBank.row"),
    ("sketches.merge", "repro.sketches.bank", "SketchRow.merge"),
    ("sketches.absorb", "repro.sketches.bank", "SketchBank.absorb"),
    ("sketches.boruvka", "repro.sketches.bank", "bank_boruvka"),
    ("sketches.pow_many", "repro.sketches.backend", "PureBackend.pow_many"),
    ("sketches.pow_many", "repro.sketches.backend", "NumpyBackend.pow_many"),
    ("sketches.poly_eval_many", "repro.sketches.backend", "PureBackend.poly_eval_many"),
    ("sketches.poly_eval_many", "repro.sketches.backend", "NumpyBackend.poly_eval_many"),
    ("serve.protocol", "repro.serve.protocol", "ServeSession.handle_line"),
    ("serve.update", "repro.serve.service", "GraphService.update"),
    ("serve.refresh", "repro.serve.service", "GraphService.refresh"),
    ("serve.connected", "repro.serve.service", "GraphService.connected"),
    ("serve.components", "repro.serve.service", "GraphService.components"),
)

#: Spans the benchmark opens itself around the calls it makes.
BENCH_SPANS = ("core.driver", "graph.generate", "graph.verify")

#: Every span name, in report order.
SPAN_NAMES = tuple(dict.fromkeys(
    [prefix for prefix, _, _ in BOUNDARIES] + list(BENCH_SPANS)
))


def _layer_metrics() -> dict[str, str]:
    out: dict[str, str] = {}
    for name in SPAN_NAMES:
        if name.startswith("graph."):
            out[f"{name}_s"] = "s"
        else:
            out[f"{name}.calls"] = "count"
            out[f"{name}.self_s"] = "s"
    out["serve.refreshes_per_query"] = "ratio"
    out["trace.coverage"] = "ratio"
    out["trace.overhead"] = "ratio"
    return out


#: Per-layer metric name -> unit, in report order.  ``trace.overhead``
#: needs untraced samples too, so ``run.py`` computes it; the tracer
#: gives every other one.
LAYER_METRICS = _layer_metrics()


def _resolve(module_name: str, path: str):
    """``(owner, attribute, function)`` for *path*, or ``None`` if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    # Patch a method only on the class that defines it, so an inherited
    # method is not wrapped twice.
    fn = vars(owner).get(attr)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """In-memory span recorder over :data:`BOUNDARIES`."""

    def __init__(self) -> None:
        self.spans: list = []  # (name id, start, end, parent index, request)
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._stack: list[int] = []
        self._request = -1
        self._muted = 0
        self._patches: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------------
    def _enter(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._request += 1
        self.spans.append((name_id, 0.0, 0.0, parent, self._request))
        self._stack.append(index)
        return index

    def _exit(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        name_id, _, _, parent, request = self.spans[index]
        self.spans[index] = (name_id, start, end, parent, request)

    def _wrap(self, name_id: int, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._muted:
                return fn(*args, **kwargs)
            index = tracer._enter(name_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index, start, clock())

        return traced

    @contextlib.contextmanager
    def span(self, name: str, mute: bool = False):
        """A benchmark-side span; ``mute`` records no spans inside it."""
        index = self._enter(self._ids[name])
        self._muted += mute
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._muted -= mute
            self._exit(index, start, end)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every boundary that exists in this checkout."""
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "repro" or name.startswith("repro."))
        ]
        for prefix, module_name, path in BOUNDARIES:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, fn = found
            traced = self._wrap(self._ids[prefix], fn)
            self._patch(owner, attr, fn, traced)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn and mod is not owner:
                        self._patch(mod, name, fn, traced)

    def _patch(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[list[int], list[float]]:
        """Per span name: call count and summed self time."""
        covered = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for (name_id, start, end, _, _), inner in zip(self.spans, covered):
            calls[name_id] += 1
            self_s[name_id] += end - start - inner
        return calls, self_s

    def metrics(self) -> dict[str, float]:
        """``<layer>.<boundary>.calls`` / ``.self_s`` for every span name,
        ``serve.refreshes_per_query``, and ``trace.coverage``: summed self
        time over the traced window."""
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        for name, count, seconds in zip(SPAN_NAMES, calls, self_s):
            if name.startswith("graph."):
                out[f"{name}_s"] = seconds
            else:
                out[f"{name}.calls"] = count
                out[f"{name}.self_s"] = seconds
        queries = out["serve.connected.calls"] + out["serve.components.calls"]
        refreshes = out["serve.refresh.calls"]
        out["serve.refreshes_per_query"] = refreshes / queries if queries else 0.0
        # The traced window runs from the first span's start to the last
        # span's end; benchmark code between spans is what it leaves out.
        wall = max(s[2] for s in self.spans) - self.spans[0][1] if self.spans else 0.0
        out["trace.coverage"] = sum(self_s) / wall if wall > 0 else 0.0
        return out

    def dump(self) -> dict:
        """The recorded spans, for ``trace.json``."""
        return {
            "names": list(SPAN_NAMES),
            "fields": ["name", "start", "end", "parent", "request"],
            "spans": [
                [SPAN_NAMES[name_id], start, end, parent, request]
                for name_id, start, end, parent, request in self.spans
            ],
        }
