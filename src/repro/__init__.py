"""repro — a reproduction of "Massively Parallel Computation in a
Heterogeneous Regime" (Fischer, Horowitz, Oshman; PODC 2022).

The package simulates the Heterogeneous MPC model — one near-linear-memory
machine plus many sublinear-memory machines — and implements the paper's
algorithms on top of it:

* :mod:`repro.mpc` — the simulator (machines, rounds, word accounting);
* :mod:`repro.primitives` — Claims 1-4 (sort, aggregate, disseminate,
  arrange) and supporting plumbing;
* :mod:`repro.graph` — graph types, generators, validators;
* :mod:`repro.local` — sequential algorithms (the large machine's local
  steps between rounds);
* :mod:`repro.labeling` — the KKKP flow-labeling scheme;
* :mod:`repro.sketches` — l0-samplers and AGM graph sketches;
* :mod:`repro.core` — the paper's algorithms (MST, spanners, matching,
  connectivity, min-cut, MIS, coloring, 1-vs-2 cycles);
* :mod:`repro.baselines` — sublinear-regime baselines (Table 1's left
  column);
* :mod:`repro.analysis` — theory predictions and the table harness;
* :mod:`repro.experiments` — the declarative scenario registry, runner,
  JSON benchmark artifacts, and the generated reproduction guide.

Quickstart::

    import random
    from repro.core import heterogeneous_mst
    from repro.graph import generators

    rng = random.Random(0)
    graph = generators.random_connected_graph(200, 2000, rng)
    graph = graph.with_unique_weights(rng)
    result = heterogeneous_mst(graph, rng=rng)
    print(result.total_weight, result.rounds)
"""

__version__ = "1.0.0"

from . import (
    analysis,
    baselines,
    core,
    experiments,
    graph,
    labeling,
    local,
    mpc,
    primitives,
    sketches,
)

__all__ = [
    "analysis",
    "baselines",
    "core",
    "experiments",
    "graph",
    "labeling",
    "local",
    "mpc",
    "primitives",
    "sketches",
    "__version__",
]
