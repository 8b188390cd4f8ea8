"""Kernel and bank equivalence: the array kernels and the array-native bank
must be bit-identical to the pure-Python oracle (``tests/sketch_oracle.py``)
— counters, samples, and component labels."""

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
    bank_boruvka,
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_bank_and_oracle_agree(seed):
    n, edges = _random_graph(seed)
    spec = GraphSketchSpec.generate(n, random.Random(seed + 1), copies=2)
    bank = SketchBank(spec, vertices=range(n))
    bank.update_edges(edges)
    oracle = ListBank(spec, vertices=range(n))
    oracle.update_edges(edges)

    for vertex in range(n):
        row, expected = bank.row(vertex), oracle.row(vertex)
        assert (row.s0.tolist(), row.s1.tolist(), row.s2.tolist()) == (
            expected.s0, expected.s1, expected.s2
        )
        for phase in range(spec.phases):
            assert bank.sample_outgoing(vertex, phase) == oracle.sample_outgoing(
                vertex, phase
            )

    (uf, forest), (oracle_uf, oracle_forest) = bank_boruvka(bank), list_boruvka(oracle)
    assert forest == oracle_forest
    assert uf.labels(range(n)) == oracle_uf.labels(range(n))


# ----------------------------------------------------------------------
# Borůvka over the sum of several banks (the serve refresh)
# ----------------------------------------------------------------------
def _signed_stream(rng, n, blocks):
    """Signed updates inside *blocks* vertex blocks of ``[0, n - 1)``:
    inserts (loops and multi-edges included), then deletes of a quarter
    of them.  Vertex ``n - 1`` is in no edge."""
    width = max(1, (n - 1) // blocks)
    inserts = []
    for _ in range(rng.randrange(3 * n)):
        base = rng.randrange(blocks) * width
        inserts.append((base + rng.randrange(width), base + rng.randrange(width)))
    deletes = rng.sample(inserts, len(inserts) // 4)
    return [(edge, 1) for edge in inserts] + [(edge, -1) for edge in deletes], width


def _banks(spec, parts):
    """One array bank and one list bank per part of signed updates."""
    banks, oracles = [], []
    for part in parts:
        bank, oracle = SketchBank(spec), ListBank(spec)
        if part:
            edges, signs = zip(*part)
            bank.update_edges(edges, sign=list(signs))
            oracle.update_edges(edges, sign=list(signs))
        banks.append(bank)
        oracles.append(oracle)
    return banks, oracles


def _boruvka_outputs(n, *runs):
    return [(uf.labels(range(n)), forest) for uf, forest in runs]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shards=st.integers(min_value=1, max_value=4),
    disjoint=st.booleans(),
    empty=st.booleans(),
)
def test_boruvka_over_shards_equals_the_merged_bank_and_the_oracle(
    seed, shards, disjoint, empty
):
    """Random shard splits of one signed stream: edges dealt at random,
    or each vertex block's edges to its own shard (disjoint vertex sets);
    maybe one shard with no rows; a vertex in no shard.  The shards'
    Borůvka equals one bank holding the whole stream and the list oracle
    over the same shards, on labels and on the forest."""
    rng = random.Random(seed)
    n = rng.randrange(3, 24)
    spec = GraphSketchSpec.generate(n, random.Random(seed + 1), copies=2)
    stream, width = _signed_stream(rng, n, shards)
    parts = [[] for _ in range(shards)]
    for edge, sign in stream:
        shard = min(edge[0] // width, shards - 1) if disjoint else rng.randrange(shards)
        parts[shard].append((edge, sign))
    if empty:
        parts.insert(rng.randrange(shards + 1), [])
    banks, oracles = _banks(spec, parts)
    whole = SketchBank(spec, range(n))
    if stream:
        edges, signs = zip(*stream)
        whole.update_edges(edges, sign=list(signs))
    before = [bank.copy() for bank in banks]

    got, expected, oracle = _boruvka_outputs(
        n,
        bank_boruvka(*banks, vertices=range(n)),
        bank_boruvka(whole),
        list_boruvka(*oracles, vertices=range(n)),
    )
    assert got == expected == oracle
    assert got[0][n - 1] == n - 1  # the untouched vertex is a singleton
    for bank, copy in zip(banks, before):
        assert bank.vertices == copy.vertices
        for name in ("s0", "s1", "s2"):
            assert np.array_equal(getattr(bank, name), getattr(copy, name))
    # By default the vertices are the first bank's, then the others' new
    # ones: the rows a bank absorbing every shard in turn would list.
    ordered = SketchBank(spec, dict.fromkeys(v for bank in banks for v in bank.vertices))
    if stream:
        ordered.update_edges(edges, sign=list(signs))
    got, expected, oracle = _boruvka_outputs(
        n, bank_boruvka(*banks), bank_boruvka(ordered), list_boruvka(*oracles)
    )
    assert got == expected == oracle


@pytest.mark.parametrize("seed", range(4))
def test_boruvka_over_threshold_banks(seed):
    """A weight-threshold bank holds only the vertices its light edges
    touch, in encounter order; over every vertex it decides as a bank
    listing every vertex in order."""
    rng = random.Random(seed)
    n = 20
    weighted = [
        (rng.randrange(n - 2), rng.randrange(n - 2), rng.randrange(1, 9))
        for _ in range(30)
    ]
    for t in (1, 2, 4, 8):
        light = [(u, v) for u, v, w in weighted if w <= t]
        spec = GraphSketchSpec.generate(n, random.Random(seed * 10 + t), copies=2)
        bank, oracle, whole = SketchBank(spec), ListBank(spec), SketchBank(spec, range(n))
        for target in (bank, oracle, whole):
            target.update_edges(light)
        outputs = _boruvka_outputs(
            n,
            bank_boruvka(bank, vertices=range(n)),
            bank_boruvka(whole),
            bank_boruvka(whole, vertices=range(n)),
            list_boruvka(oracle, vertices=range(n)),
        )
        assert all(output == outputs[0] for output in outputs)


def test_boruvka_over_empty_banks_leaves_singletons():
    spec = GraphSketchSpec.generate(6, random.Random(2), copies=2)
    uf, forest = bank_boruvka(SketchBank(spec), SketchBank(spec), vertices=range(6))
    assert uf.labels(range(6)) == list(range(6)) and forest == []
    with pytest.raises(TypeError):
        bank_boruvka(vertices=range(6))
