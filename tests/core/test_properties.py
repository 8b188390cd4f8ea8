"""Cross-cutting hypothesis property tests over random workloads.

Each property runs a full distributed algorithm on a random graph and
checks the output certificate with the independent sequential validators.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    heterogeneous_coloring,
    heterogeneous_connectivity,
    heterogeneous_mis,
    heterogeneous_spanner,
    solve_one_vs_two_cycles,
)
from repro.graph import generators
from repro.graph.traversal import component_labels
from repro.graph.validation import (
    is_maximal_independent_set,
    is_proper_coloring,
    spanner_stretch,
)

SEED = st.integers(min_value=0, max_value=10**6)


def random_graph(seed: int, connected: bool = True):
    rng = random.Random(seed)
    n = rng.randrange(10, 32)
    m = rng.randrange(n - 1, min(4 * n, n * (n - 1) // 2))
    if connected:
        return generators.random_connected_graph(n, m, rng)
    components = rng.randrange(1, 4)
    # Cap the extra edges at what the components hold beside their trees
    # even when the split is as even as possible (the fewest pairs).
    sizes = [n // components + (i < n % components) for i in range(components)]
    room = sum((size - 1) * (size - 2) // 2 for size in sizes)
    return generators.planted_components_graph(n, components, min(m, room), rng)


@settings(max_examples=8, deadline=None)
@given(seed=SEED)
def test_connectivity_always_matches_ground_truth(seed):
    graph = random_graph(seed, connected=False)
    result = heterogeneous_connectivity(graph, rng=random.Random(seed + 1))
    assert result.labels == component_labels(graph)


@settings(max_examples=8, deadline=None)
@given(seed=SEED, k=st.integers(min_value=1, max_value=4))
def test_spanner_stretch_always_within_bound(seed, k):
    graph = random_graph(seed)
    result = heterogeneous_spanner(graph, k=k, rng=random.Random(seed + 1))
    assert spanner_stretch(graph, result.edges) <= result.stretch_bound


@settings(max_examples=8, deadline=None)
@given(seed=SEED)
def test_mis_always_maximal_independent(seed):
    graph = random_graph(seed)
    result = heterogeneous_mis(graph, rng=random.Random(seed + 1))
    assert is_maximal_independent_set(graph, result.vertices)


@settings(max_examples=8, deadline=None)
@given(seed=SEED)
def test_coloring_always_proper_delta_plus_one(seed):
    graph = random_graph(seed)
    result = heterogeneous_coloring(graph, rng=random.Random(seed + 1))
    assert is_proper_coloring(graph, result.colors, graph.max_degree + 1)


@settings(max_examples=10, deadline=None)
@given(seed=SEED)
def test_cycle_decision_always_correct(seed):
    rng = random.Random(seed)
    n = rng.randrange(8, 60)
    graph, truth = generators.one_or_two_cycles(max(n, 8), rng)
    result = solve_one_vs_two_cycles(graph, rng=random.Random(seed + 1))
    assert result.num_cycles == truth
    assert result.rounds == 1
