"""Union-find, including a hypothesis model check."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import UnionFind


def test_singletons_initially():
    uf = UnionFind(range(5))
    assert uf.num_components == 5
    assert all(uf.find(v) == v for v in range(5))


def test_union_merges_and_reports():
    uf = UnionFind(range(4))
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.connected(0, 1)
    assert not uf.connected(0, 2)
    assert uf.num_components == 3


def test_lazy_element_creation():
    uf = UnionFind()
    uf.union("a", "b")
    assert uf.connected("a", "b")
    assert uf.num_components == 1
    assert len(uf) == 2


def test_component_sizes():
    uf = UnionFind(range(6))
    uf.union(0, 1)
    uf.union(1, 2)
    assert uf.component_size(2) == 3
    assert uf.component_size(5) == 1


def test_groups_partition_everything():
    uf = UnionFind(range(6))
    uf.union(0, 1)
    uf.union(4, 5)
    groups = uf.groups()
    members = sorted(x for group in groups.values() for x in group)
    assert members == list(range(6))
    assert sorted(len(g) for g in groups.values()) == [1, 1, 2, 2]


def test_transitive_chain():
    uf = UnionFind(range(100))
    for v in range(99):
        uf.union(v, v + 1)
    assert uf.num_components == 1
    assert uf.connected(0, 99)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_matches_naive_partition_model(n, seed):
    """Union-find agrees with a naive set-merging model on random unions."""
    rng = random.Random(seed)
    uf = UnionFind(range(n))
    model = [{v} for v in range(n)]

    def model_find(x):
        for group in model:
            if x in group:
                return group
        raise AssertionError

    for _ in range(n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        ga, gb = model_find(a), model_find(b)
        uf.union(a, b)
        if ga is not gb:
            ga |= gb
            model.remove(gb)

    assert uf.num_components == len(model)
    for group in model:
        root = {uf.find(x) for x in group}
        assert len(root) == 1


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_labels_are_each_components_smallest_member(n, seed):
    rng = random.Random(seed)
    uf = UnionFind(range(n))
    for _ in range(n):
        uf.union(rng.randrange(n), rng.randrange(n))
    elements = rng.sample(range(n), n)
    smallest = {
        member: min(group) for group in uf.groups().values() for member in group
    }
    assert uf.labels(elements) == [smallest[element] for element in elements]
