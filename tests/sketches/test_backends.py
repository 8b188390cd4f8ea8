"""Kernel and bank equivalence: the array kernels and the array-native bank
must be bit-identical to the pure-Python oracle (``tests/sketch_oracle.py``)
and to the legacy object API — counters, samples, and component labels."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches import (
    GraphSketchSpec,
    KWiseHash,
    PRIME,
    SketchBank,
    VertexSketch,
    bank_boruvka,
    sketch_boruvka,
    trailing_zeros,
)
from repro.sketches import field
from sketch_oracle import ListBank, PureKernels, list_boruvka


class ArrayKernels:
    """The array kernels of :mod:`repro.sketches.field`, called with the
    oracle's list-in/list-out signatures."""

    name = "numpy"

    def poly_eval_many(self, coefficients, xs):
        residues = np.array([x % PRIME for x in xs], dtype=np.uint64)
        return field.poly_eval_many(coefficients, residues).tolist()

    def trailing_zeros_many(self, values):
        return field.trailing_zeros_many(values).tolist()

    def pow_many(self, z, exponents, max_exponent):
        table = field.PowerTable([z], max_exponent)
        return table(np.zeros(len(exponents), dtype=np.int64), exponents).tolist()


# ----------------------------------------------------------------------
# kernel equivalence
# ----------------------------------------------------------------------
def kernel_backends():
    return [PureKernels(), ArrayKernels()]


@pytest.mark.parametrize("backend", kernel_backends(), ids=lambda b: b.name)
def test_poly_eval_many_matches_pointwise(backend):
    hash_fn = KWiseHash(8, random.Random(3))
    xs = [0, 1, 2, PRIME - 1, PRIME, PRIME + 7, 12345, 2**60]
    assert backend.poly_eval_many(hash_fn.coefficients, xs) == [
        hash_fn(x) for x in xs
    ]
    assert hash_fn.eval_many(xs) == [hash_fn(x) for x in xs]
    assert backend.poly_eval_many(hash_fn.coefficients, []) == []


@pytest.mark.parametrize("backend", kernel_backends(), ids=lambda b: b.name)
def test_trailing_zeros_many_matches_scalar(backend):
    rng = random.Random(5)
    values = [0, 1, 2, 8, 12, PRIME - 1] + [rng.randrange(PRIME) for _ in range(200)]
    assert backend.trailing_zeros_many(values) == [trailing_zeros(v) for v in values]


@pytest.mark.parametrize("backend", kernel_backends(), ids=lambda b: b.name)
def test_pow_many_matches_pow(backend):
    rng = random.Random(7)
    z = rng.randrange(1, PRIME)
    exponents = [0, 1, 2, 63, 4095] + [rng.randrange(10**6) for _ in range(300)]
    expected = [pow(z, e, PRIME) for e in exponents]
    assert backend.pow_many(z, exponents, max_exponent=10**6) == expected
    assert backend.pow_many(z, [], max_exponent=10**6) == []


def test_pure_pow_many_table_path_is_exact():
    """Force the oracle's baby-step/giant-step table (large batch) and the
    direct path (tiny batch) to agree with pow, including out-of-hint
    exponents."""
    rng = random.Random(11)
    z = rng.randrange(1, PRIME)
    backend = PureKernels()
    big = [rng.randrange(5000) for _ in range(2000)]
    assert backend.pow_many(z, big, max_exponent=5000) == [
        pow(z, e, PRIME) for e in big
    ]
    assert z in backend._pow_tables
    # Exponents beyond the table's reach fall back to pow, exactly.
    beyond = [10**7 + 1, 3, 10**9]
    assert backend.pow_many(z, beyond, max_exponent=5000) == [
        pow(z, e, PRIME) for e in beyond
    ]
    fresh = PureKernels()
    small = [1, 2, 3]
    assert fresh.pow_many(z, small, max_exponent=10**12) == [
        pow(z, e, PRIME) for e in small
    ]
    assert z not in fresh._pow_tables  # tiny batch: no table built


def test_power_table_digits_cover_the_exponent_range():
    """Several bases at once, exponents up to the limit, and the largest
    universe a bank accepts (ids just below 2^63)."""
    rng = random.Random(13)
    bases = [rng.randrange(1, PRIME) for _ in range(5)]
    for max_exponent in (1, 255, 256, 10**6, (1 << 63) - 1):
        table = field.PowerTable(bases, max_exponent)
        assert table.limit > max_exponent
        which = [rng.randrange(5) for _ in range(64)]
        exps = [rng.randrange(max_exponent + 1) for _ in range(63)] + [max_exponent]
        got = table(np.array(which), np.array(exps, dtype=np.int64)).tolist()
        assert got == [pow(bases[w], e, PRIME) for w, e in zip(which, exps)]


def test_numpy_mulmod_extremes():
    values = [0, 1, 2, PRIME - 1, PRIME - 2, (1 << 60) + 12345]
    a = np.array(values, dtype=np.uint64)
    for other in values:
        got = field.mulmod(a, np.uint64(other))
        assert [int(x) for x in got] == [(v * other) % PRIME for v in values]


# ----------------------------------------------------------------------
# end-to-end equivalence: object API vs array bank vs list oracle
# ----------------------------------------------------------------------
def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 20)
    m = rng.randrange(0, 2 * n + 1)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return n, edges


def _labels_from_uf(uf, vertices):
    smallest = {}
    for v in vertices:
        smallest.setdefault(uf.find(v), v)
    return [smallest[uf.find(v)] for v in vertices]


def _object_path(spec, n, edges):
    sketches = {v: VertexSketch(spec, v) for v in range(n)}
    for u, v in edges:
        sketches[u].add_edge(u, v)
        sketches[v].add_edge(u, v)
    return sketches


def _rows_equal(row, reference):
    return all(
        np.array_equal(getattr(row, name), getattr(reference, name))
        for name in ("s0", "s1", "s2")
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_backends_and_object_api_agree(seed):
    n, edges = _random_graph(seed)
    spec = GraphSketchSpec.generate(n, random.Random(seed + 1), copies=2)
    sketches = _object_path(spec, n, edges)
    bank = SketchBank(spec, vertices=range(n))
    bank.update_edges(edges)
    oracle = ListBank(spec, vertices=range(n))
    oracle.update_edges(edges)

    for vertex in range(n):
        object_row = sketches[vertex].bank.row(vertex)
        assert _rows_equal(bank.row(vertex), object_row)
        assert _rows_equal(oracle.row(vertex), object_row)
        for phase in range(spec.phases):
            expected = sketches[vertex].sample_outgoing(phase)
            assert bank.sample_outgoing(vertex, phase) == expected
            assert oracle.sample_outgoing(vertex, phase) == expected

    object_uf, object_forest = sketch_boruvka(spec, sketches)
    expected_labels = _labels_from_uf(object_uf, range(n))
    for uf, forest in (bank_boruvka(bank), list_boruvka(oracle)):
        assert forest == object_forest
        assert _labels_from_uf(uf, range(n)) == expected_labels
