"""Model configurations."""

import math

import pytest

from repro.mpc import ModelConfig


def test_heterogeneous_defaults():
    config = ModelConfig.heterogeneous(n=100, m=1000)
    assert config.num_large == 1
    assert config.num_small == math.ceil(1000 / 100**0.5)
    assert config.small_capacity < config.large_capacity


def test_small_capacity_scales_with_gamma():
    low = ModelConfig.heterogeneous(n=10_000, m=100_000, gamma=0.3)
    high = ModelConfig.heterogeneous(n=10_000, m=100_000, gamma=0.7)
    assert low.small_capacity < high.small_capacity


def test_large_capacity_is_near_linear():
    config = ModelConfig.heterogeneous(n=1000, m=5000)
    # n * polylog: at least n, at most n * log^3 n for default settings.
    assert config.large_capacity >= 1000
    assert config.large_capacity <= 1000 * math.log2(1000) ** 3


def test_sublinear_regime_has_no_large_machine():
    config = ModelConfig.sublinear(n=100, m=500)
    assert config.num_large == 0


def test_superlinear_memory_exponent():
    config = ModelConfig.heterogeneous_superlinear(n=100, m=500, f=0.5)
    assert config.large_memory_exponent == 1.5
    assert config.f == 0.5


def test_f_defaults_to_one_over_log_n_for_near_linear():
    config = ModelConfig.heterogeneous(n=1024, m=5000)
    assert config.f == pytest.approx(1.0 / 10.0)


def test_near_linear_regime_machines_have_linear_memory():
    config = ModelConfig.near_linear(n=1000, m=10_000)
    # Every machine can hold ~n words (up to polylog).
    assert config.small_capacity >= 1000


def test_gamma_validation():
    with pytest.raises(ValueError):
        ModelConfig(n=10, m=10, gamma=0.0)
    with pytest.raises(ValueError):
        ModelConfig(n=10, m=10, gamma=1.5)


def test_negative_f_rejected():
    with pytest.raises(ValueError):
        ModelConfig.heterogeneous_superlinear(n=10, m=10, f=-0.1)


def test_tiny_graph_rejected():
    with pytest.raises(ValueError):
        ModelConfig(n=1, m=0)


def test_tree_fanout_is_n_to_gamma():
    config = ModelConfig.heterogeneous(n=10_000, m=100_000, gamma=0.5)
    assert config.tree_fanout == 100


def test_num_small_scales_with_edges():
    sparse = ModelConfig.heterogeneous(n=400, m=800)
    dense = ModelConfig.heterogeneous(n=400, m=8000)
    assert dense.num_small > sparse.num_small
