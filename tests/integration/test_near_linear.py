"""The near-linear regime (Table 1's right column).

The paper's heterogeneous algorithms run unchanged when every machine has
near-linear memory — that regime strictly dominates the heterogeneous one.
These tests run the suite under ``ModelConfig.near_linear`` and check both
correctness and that the large-machine-centric steps get *easier* (no
capacity violations even in strict-leaning accounting).
"""

import random

import pytest

from repro.core import (
    heterogeneous_coloring,
    heterogeneous_connectivity,
    heterogeneous_matching,
    heterogeneous_mst,
    heterogeneous_spanner,
)
from repro.graph import generators
from repro.graph.validation import (
    is_maximal_matching,
    is_proper_coloring,
    spanner_stretch,
    verify_mst,
)
from repro.mpc import Cluster, ModelConfig


@pytest.fixture
def rng():
    return random.Random(181)


def test_near_linear_cluster_shape():
    config = ModelConfig.near_linear(n=100, m=2000)
    cluster = Cluster(config)
    assert config.num_small == 20  # m/n machines
    assert cluster.larges
    # Every machine can hold the vertex set.
    assert all(m.capacity >= 100 for m in cluster.smalls)


def test_mst_under_near_linear(rng):
    g = generators.random_connected_graph(40, 400, rng).with_unique_weights(rng)
    config = ModelConfig.near_linear(n=g.n, m=g.m)
    result = heterogeneous_mst(g, config=config, rng=random.Random(1))
    assert verify_mst(g, result.edges)


def test_connectivity_under_near_linear(rng):
    g = generators.planted_components_graph(40, 3, 40, rng)
    config = ModelConfig.near_linear(n=g.n, m=g.m)
    result = heterogeneous_connectivity(g, config=config, rng=random.Random(2))
    assert result.num_components == 3


def test_matching_under_near_linear(rng):
    g = generators.random_connected_graph(40, 300, rng)
    config = ModelConfig.near_linear(n=g.n, m=g.m)
    result = heterogeneous_matching(g, config=config, rng=random.Random(3))
    assert is_maximal_matching(g, result.matching)


def test_spanner_under_near_linear(rng):
    g = generators.random_connected_graph(40, 300, rng)
    config = ModelConfig.near_linear(n=g.n, m=g.m)
    result = heterogeneous_spanner(g, k=2, config=config, rng=random.Random(4))
    assert spanner_stretch(g, result.edges) <= result.stretch_bound


def test_coloring_under_near_linear(rng):
    g = generators.random_connected_graph(40, 300, rng)
    config = ModelConfig.near_linear(n=g.n, m=g.m)
    result = heterogeneous_coloring(g, config=config, rng=random.Random(5))
    assert is_proper_coloring(g, result.colors, result.num_colors_allowed)


def test_near_linear_has_no_capacity_violations(rng):
    """With ~n-capacity workers, a full MST run stays inside every
    capacity at test scale."""
    g = generators.random_connected_graph(40, 300, rng).with_unique_weights(rng)
    config = ModelConfig.near_linear(n=g.n, m=g.m)
    result = heterogeneous_mst(g, config=config, rng=random.Random(6))
    assert not result.cluster.ledger.violations
