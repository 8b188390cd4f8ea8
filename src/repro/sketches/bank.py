"""Array-native ℓ₀ banks: the vectorized substrate behind the AGM sketches.

The seed implementation kept one ℓ₀-sampler object per ``(vertex,
phase, copy)`` and one one-sparse sketch object per level inside it —
thousands of tiny Python objects per vertex.  A :class:`SketchBank`
stores the same state as one ``(rows, slots)`` array per counter:

    slot(phase, copy, level) = (phase * copies + copy) * L + level

with ``L`` levels per sampler and ``slots = phases * copies * L`` slots
per vertex row, holding the one-sparse counters of the AGM vertex
vectors: ``s0 = Σ δ`` and ``s1 = Σ id·δ`` as ``int64``, and the
fingerprint ``s2 = Σ δ·z^id mod p`` as ``uint64`` residues below
``2^61``.  Rows are created in endpoint-encounter order and only for
touched vertices.

Update math: one vectorized Horner pass hashes every edge under every
``(phase, copy)`` sampler, the trailing zeros of each hash give the
geometric level depth, and the fingerprint powers ``z^id`` of every
surviving ``(edge, sampler, level)`` triple come from a per-spec
:class:`~repro.sketches.field.PowerTable`.  One kernel turns these into
every edge's signed contributions — ``+1`` to the smaller endpoint's
row, ``-1`` to the larger's: ``(row, slot, ±1, ±id, residue)``, with
``p - z^id`` as the residue of ``-z^id``.  Two consumers share it.
:meth:`SketchBank.update_edges` scatters the contributions into the
bank's counter arrays, exactly when many land on one slot: ``s0``/``s1``
take integer adds, and ``s2`` contributions are split into 31-bit
halves, summed per slot in ``uint64`` and reduced mod ``p`` once.
:func:`build_sparse_blocks` keeps them as coordinates, one block per
small machine, with no dense scatter at all.

Row blocks are how rows travel between machines.  A
:class:`SparseRowBlock` holds a vertex per row and the rows' non-zero
counters in coordinate form — ``(row, slot, s0, s1, s2)``, sorted by
row, a ``(row, slot)`` possibly repeated (repeats sum).  AGM sketches
are linear, so summing coordinates gives exactly the rows that summing
dense rows gives, and a partial row touches few of its slots (about a
tenth at ``n = 800``).  A block is charged what its dense rows would
be, ``2 + 3 * slots`` words per row: a vertex word, an identity word and
three counters per slot — what a vertex and the seed implementation's
per-vertex sketch charged.  Theorem C.1 builds every machine's partial
block in one cluster-wide pass (:func:`build_sparse_blocks`), sums
blocks per vertex up the aggregation tree with one sort per tree node
(:func:`combine_sparse_blocks`), and adds the final block into the
destination's bank in one scatter (:meth:`SketchBank.insert_block`) —
the one place its rows become dense.

Updates are *signed*: because the sketches are linear maps of the edge
multiset, ``update_edges(batch, sign=-1)`` deletes edges by applying the
identical contributions negated, and a per-edge sign sequence mixes
inserts and deletes in one call — the substrate behind the
dynamic-graph query service in :mod:`repro.serve`.  Self-loops are
short-circuited to no-ops (an edge ``{u, u}`` contributes ``+1`` as the
smaller endpoint and ``-1`` as the larger to the *same* row, which
cancels), so they never cost hash evaluations; their vertex still gets
a (zero) row.

Numeric limits are explicit.  Edge ids run up to ``n^2 - 1``, so a spec
whose ids do not fit in ``int64`` is refused.  ``|s1|`` of any row, and
of any sum of rows over disjoint vertex sets (a Borůvka supernode), is
at most the bank's :attr:`SketchBank.s1_bound`: the sum of the ids of
every edge applied plus the largest ``|s1|`` of every row merged in.
:meth:`~SketchBank.update_edges` and :meth:`~SketchBank.insert_block`
raise :class:`OverflowError` before moving any counter when that bound
would pass ``2^63 - 1``, instead of wrapping, and :func:`bank_boruvka`
before summing banks whose bounds add past it;
:func:`build_sparse_blocks` refuses a machine whose edge ids sum past
it, and :func:`combine_sparse_blocks` a sum of blocks whose ``s1``
would pass it.

:func:`bank_boruvka` runs Borůvka in sketch space on the sum of one or
more banks of one spec, summing each supernode's phase block in one
grouped pass per bank and decoding every root at once, with the legacy
object loop's decisions, so component labels are bit-identical to the
seed implementation for fixed seeds (pinned by
``tests/integration/test_sketch_equivalence.py``).  Banks are linear,
so the sum of several banks never has to exist: a phase reads only its
own slots of each bank's rows.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..graph.union_find import UnionFind
from ..mpc.plan import Block
from .field import PRIME, PowerTable, mulmod, poly_eval_many, trailing_zeros_many

__all__ = [
    "INT64_MAX",
    "SpecArrays",
    "SketchRow",
    "SketchBank",
    "SparseRowBlock",
    "bank_boruvka",
    "build_sparse_blocks",
    "check_s1_bound",
    "combine_sparse_blocks",
    "edge_id",
    "edge_from_id",
]

INT64_MAX = (1 << 63) - 1

_P = np.uint64(PRIME)
_HALF = np.uint64(31)
_HALF_MASK = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)

#: Upper bound on ``samplers * edges`` per vectorized hashing chunk;
#: keeps the temporaries of one chunk around a few megabytes.
_CHUNK = 1 << 16
#: A zero-length column: it seeds a concatenation of coordinate columns
#: and fills an empty block (no element, so nothing is shared).
_EMPTY = np.zeros(0, dtype=np.int64)


def edge_id(n: int, u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return u * n + v


def edge_from_id(n: int, identifier: int) -> tuple[int, int]:
    return divmod(identifier, n)


def check_s1_bound(bound: int) -> None:
    """Raise :class:`OverflowError` if a counter as large as *bound* would
    not fit in ``int64``."""
    if bound > INT64_MAX:
        raise OverflowError(
            f"sketch identity sums could reach {bound}, beyond the int64 "
            f"limit {INT64_MAX}; refusing the update"
        )


def _exact_sums(values: np.ndarray, counts) -> list[int]:
    """Exact Python-int sums of consecutive runs of non-negative int64
    *values*, run ``i`` holding ``counts[i]`` values (an int64 sum could
    wrap): high and low 32-bit halves are prefix-summed apart."""
    bounds = np.r_[0, np.cumsum(counts, dtype=np.int64)]
    high, low = (
        np.diff(np.r_[0, np.cumsum(half)][bounds]).tolist()
        for half in (values >> 32, values & 0xFFFFFFFF)
    )
    return [(h << 32) + l for h, l in zip(high, low)]


def _addmod(a, b):
    """``a + b mod p`` for residues: ``t - p`` wraps around when ``t < p``."""
    t = a + b
    return np.minimum(t, t - _P)


def _from_halves(high, low):
    """Residues of ``high * 2^31 + low`` mod p, for ``high < 2^61`` and
    ``low < 2^62`` (sums of the 31-bit halves of residues).

    ``high * 2^31 = (high >> 30) * 2^61 + (high mod 2^30) * 2^31``, and
    ``2^61 ≡ 1``, so shifts replace the multiply."""
    total = (high >> np.uint64(30)) + ((high & _MASK30) << _HALF) + low  # < 2^63
    total = (total >> np.uint64(61)) + (total & _P)  # Mersenne fold
    return np.minimum(total, total - _P)


def _group_sum_s2(values, starts):
    """Exact ``Σ values mod p`` over the groups of rows starting at
    *starts*, summing 31-bit halves (exact below 2^31 terms per group)."""
    return _from_halves(
        np.add.reduceat(values >> _HALF, starts),
        np.add.reduceat(values & _HALF_MASK, starts),
    )


class SpecArrays:
    """A spec's seed package as arrays (``GraphSketchSpec.arrays``), shared
    by every bank and every partial build of the spec.

    Refuses a spec the array kernels cannot serve: samplers with unequal
    level counts (:class:`ValueError`), or an ``n`` whose edge ids up to
    ``n^2 - 1`` do not fit in ``int64`` (:class:`OverflowError`).
    """

    __slots__ = ("coefficients", "z", "scan", "levels", "slots", "max_id", "_powers")

    def __init__(self, spec) -> None:
        flat = [seeds for phase_seeds in spec.seeds for seeds in phase_seeds]
        level_counts = {seeds.num_levels for seeds in flat}
        if len(level_counts) != 1:
            raise ValueError("bank requires a uniform level count across samplers")
        if spec.n * spec.n - 1 > INT64_MAX:
            raise OverflowError(
                f"n={spec.n}: edge ids up to n^2 - 1 do not fit in int64 counters"
            )
        levels = self.levels = level_counts.pop()
        #: Counter slots per row: ``samplers * levels``.
        self.slots = len(flat) * levels
        self.coefficients = np.array(
            [seeds.level_hash.coefficients for seeds in flat], dtype=np.uint64
        )
        self.z = np.array([seeds.z_points for seeds in flat], dtype=np.uint64).ravel()
        #: Slot offsets of one phase block in sampling order: copies in
        #: order, levels from deepest to shallowest.
        self.scan = np.array([
            copy * levels + level
            for copy in range(spec.copies)
            for level in range(levels - 1, -1, -1)
        ])
        self.max_id = spec.n * spec.n - 1
        self._powers: PowerTable | None = None

    @property
    def powers(self) -> PowerTable:
        """Fingerprint powers for every slot's evaluation point, built on
        first use (a bank that never decodes or updates never pays)."""
        if self._powers is None:
            self._powers = PowerTable(self.z, self.max_id)
        return self._powers


# ----------------------------------------------------------------------
# update kernels
# ----------------------------------------------------------------------
def _edge_signs(sign, count: int) -> np.ndarray:
    """Per-edge signs from one ``±1`` or a sequence of *count* of them."""
    if np.ndim(sign) == 0:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        return np.full(count, sign, dtype=np.int64)
    signs = np.asarray(sign)
    if signs.shape != (count,) or not np.isin(signs, (1, -1)).all():
        raise ValueError(f"signs must be one +1 or -1 per edge ({count} edges)")
    return signs.astype(np.int64)


def _check_vertices(ends: np.ndarray, n: int) -> None:
    bad = (ends < 0) | (ends >= n)
    if bad.any():
        raise ValueError(f"vertex {int(ends[bad][0])} outside [0, {n})")


def _edge_ids(ends: np.ndarray, n: int) -> np.ndarray:
    """Every edge's id ``min * n + max``, and 0 for a self-loop."""
    u, v = ends[0::2], ends[1::2]
    return np.where(u != v, np.minimum(u, v) * n + np.maximum(u, v), 0)


def _encounter(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct *keys* in first-encounter order, and the index of
    every key among them."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    encounter = np.argsort(first, kind="stable")
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[encounter] = np.arange(len(distinct))
    return distinct[encounter], rank[inverse]


def _endpoint_targets(ends, ids, rows, signs):
    """The non-loop edges' ids and their two scatter targets: ``+sign``
    into the smaller endpoint's row, ``-sign`` into the larger's
    (``rows[k]`` is the row of endpoint ``k``).  Self-loops are dropped:
    their two contributions land on one row and cancel."""
    u, v = ends[0::2], ends[1::2]
    real = u != v
    low = (u < v)[real]
    ru, rv, signs = rows[0::2][real], rows[1::2][real], signs[real]
    return ids[real], (
        (np.where(low, ru, rv), signs),
        (np.where(low, rv, ru), -signs),
    )


def _contributions(arrays: SpecArrays, ids: np.ndarray):
    """``(edge, slot, z_slot^id)`` for every ``(edge, sampler, level)``
    triple the edges reach: level ``l`` of a sampler keeps an edge
    whose hash of ``id + 1`` has at least ``l`` trailing zeros.  Triples
    come edge by edge, so a scatter visits one row's slots together."""
    levels = arrays.levels
    xs = np.remainder(ids.astype(np.uint64) + np.uint64(1), _P)
    depth = trailing_zeros_many(poly_eval_many(arrays.coefficients, xs))
    reach = np.minimum(depth, levels - 1).T.ravel() + 1  # (edge, sampler)
    pair = np.repeat(np.arange(len(reach)), reach)
    level = np.arange(len(pair)) - np.repeat(np.cumsum(reach) - reach, reach)
    edge, sampler = np.divmod(pair, len(arrays.coefficients))
    slot = sampler * levels + level
    return edge, slot, arrays.powers(slot, ids[edge])


def _signed_contributions(arrays: SpecArrays, ids: np.ndarray, targets):
    """Every edge's signed contributions, in chunks of at most
    :data:`_CHUNK` ``(sampler, edge)`` pairs.

    Each ``(rows, signs)`` of *targets* adds ``signs[i]`` times edge
    ``i``'s contribution to local row ``rows[i]``.  Per chunk and
    target, yields the columns ``(row, slot, sign, sign * id, residue)``
    of one coordinate per slot an edge reaches, the residue being
    ``z^id`` for ``+1`` and ``p - z^id`` for ``-1``.
    """
    step = max(1, _CHUNK // len(arrays.coefficients))
    for start in range(0, len(ids), step):
        part = slice(start, start + step)
        edge, slot, power = _contributions(arrays, ids[part])
        identity = ids[part][edge]
        for rows, signs in targets:
            sign = signs[part][edge]
            yield (
                rows[part][edge], slot, sign, sign * identity,
                np.where(sign > 0, power, _P - power),
            )


def _sum_coordinates(row, slot, s0, s1, s2, slots: int):
    """The distinct ``(row, slot)`` coordinates, sorted, each holding the
    sum of its repeats: one sort, integer adds for ``s0``/``s1`` and
    exact mod-``p`` sums of the ``s2`` residues.  Raises
    :class:`OverflowError` if an ``s1`` sum would pass ``int64``."""
    key = row * slots + slot
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[starts]
    s1 = s1[order]
    _check_s1_sums(s1, starts)
    return (
        key // slots,
        key % slots,
        np.add.reduceat(s0[order], starts),
        np.add.reduceat(s1, starts),
        _group_sum_s2(s2[order], starts),
    )


def _check_s1_sums(s1, starts) -> None:
    """Refuse, through :func:`check_s1_bound`, groups of *s1* (starting
    at *starts*) whose exact sum passes ``int64``.  No group sum can when
    ``len(s1)`` times the largest ``|s1|`` fits, so the exact sums are
    taken only past that screen."""
    largest = max(int(s1.max(initial=0)), -int(s1.min(initial=0)))
    if len(s1) * largest <= INT64_MAX:
        return
    counts = np.diff(np.r_[starts, len(s1)])
    positive = _exact_sums(np.maximum(s1, 0), counts)
    negative = _exact_sums(np.maximum(-s1, 0), counts)
    check_s1_bound(max(abs(p - q) for p, q in zip(positive, negative)))


# ----------------------------------------------------------------------
# row blocks
# ----------------------------------------------------------------------
class SparseRowBlock(Block):
    """Sketch rows in coordinate form (layout in the module docstring).

    Row ``r`` is vertex ``vertices[r]``'s; coordinate ``i`` adds
    ``s0[i]``, ``s1[i]`` and residue ``s2[i]`` to slot ``slot[i]`` of row
    ``row[i]``.  ``row``, ``slot``, ``s0`` and ``s1`` are ``int64``,
    ``s2`` ``uint64`` residues below ``2^61``.  Coordinates are sorted by
    row, so ``block[a:b]`` is rows ``a`` to ``b`` with their coordinates;
    a row without coordinates is a zero row.  ``shape`` is that of the
    dense rows, ``(rows, 2 + 3 * slots)``, and so is the charge.
    """

    __slots__ = ("vertices", "row", "slot", "s0", "s1", "s2", "slots")

    def __init__(self, vertices, row, slot, s0, s1, s2, slots: int) -> None:
        self.vertices = vertices
        self.row = row
        self.slot = slot
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2
        self.slots = slots

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.vertices), 2 + 3 * self.slots

    def __getitem__(self, rows: slice) -> "SparseRowBlock":
        if type(rows) is not slice:
            raise TypeError("a SparseRowBlock is sliced by rows, not indexed")
        start, stop, step = rows.indices(len(self.vertices))
        if step != 1:
            raise ValueError("row slices of a SparseRowBlock take step 1")
        lo, hi = np.searchsorted(self.row, (start, stop))
        return SparseRowBlock(
            self.vertices[start:stop].copy(),
            self.row[lo:hi] - start,
            *(column[lo:hi].copy() for column in (self.slot, self.s0, self.s1, self.s2)),
            self.slots,
        )


def build_sparse_blocks(spec, edge_lists: Sequence[Iterable[tuple]]) -> list[SparseRowBlock]:
    """Every small machine's partial sketch rows, built in one pass.

    *edge_lists* holds each machine's ``(u, v, ...)`` records.  Returns
    one :class:`SparseRowBlock` per machine: a row per vertex its edges
    touch, in that machine's endpoint-encounter order, whose coordinates
    sum to exactly the counters :meth:`SketchBank.update_edges` gives a
    fresh bank of the machine's edges.  A machine without edges gets an
    empty block; a vertex whose only edges are self-loops gets a row
    with no coordinates.

    Rows are keyed by ``(machine, vertex)``, so one hashing pass serves
    every machine: the contributions of every edge to both endpoints'
    rows become coordinates as they are (repeats are summed by whoever
    combines the block), and one sort by row splits them into the
    machines' blocks, which share the sorted columns.  The checks keep
    per-machine semantics and fire before any block exists: machine by
    machine, a vertex outside ``[0, n)`` raises :class:`ValueError` and
    edge ids summing past ``int64`` :class:`OverflowError`.
    """
    arrays = spec.arrays
    n = spec.n
    counts: list[int] = []
    records: list[tuple] = []
    for edges in edge_lists:
        before = len(records)
        records.extend((edge[0], edge[1]) for edge in edges)
        counts.append(len(records) - before)
    ends = np.array(records, dtype=np.int64).reshape(-1)
    machine = np.repeat(np.arange(len(counts)), counts)  # per edge
    bad = ((ends < 0) | (ends >= n)).reshape(-1, 2).any(axis=1)
    first_bad = int(machine[bad][0]) if bad.any() else len(counts)
    ids = _edge_ids(ends, n)
    for total in _exact_sums(ids, counts)[:first_bad]:
        check_s1_bound(total)
    _check_vertices(ends, n)

    keys, rows = _encounter(np.repeat(machine, 2) * n + ends)
    signs = np.ones(len(ids), dtype=np.int64)
    parts = [(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY.view(np.uint64))]
    parts.extend(_signed_contributions(arrays, *_endpoint_targets(ends, ids, rows, signs)))
    row, slot, s0, s1, s2 = map(np.concatenate, zip(*parts))
    order = np.argsort(row, kind="stable")
    row, slot, s0, s1, s2 = (column[order] for column in (row, slot, s0, s1, s2))
    # Rows are machine-major, so each machine's rows, and after the sort
    # its coordinates, are one run; rebase the rows to each machine's.
    row_bounds = np.r_[0, np.cumsum(np.bincount(keys // n, minlength=len(counts)))]
    cuts = np.searchsorted(row, row_bounds)
    row -= np.repeat(row_bounds[:-1], np.diff(cuts))
    vertices = keys % n
    return [
        SparseRowBlock(
            vertices[r0:r1], row[c0:c1], slot[c0:c1], s0[c0:c1], s1[c0:c1],
            s2[c0:c1], arrays.slots,
        )
        for r0, r1, c0, c1 in zip(
            row_bounds[:-1].tolist(), row_bounds[1:].tolist(),
            cuts[:-1].tolist(), cuts[1:].tolist(),
        )
    ]


def combine_sparse_blocks(blocks: Sequence[SparseRowBlock]) -> SparseRowBlock:
    """Sum blocks per vertex: the aggregation tree's combine.

    Every row of one vertex maps to one output row, output rows in the
    first-encounter order of their vertices over *blocks* in order.  The
    blocks' coordinates are concatenated and summed per output
    ``(row, slot)`` with one sort (:func:`_sum_coordinates`), so the
    result holds each coordinate once, sorted by ``(row, slot)``.  An
    empty list gives an empty block of no slots.  Raises
    :class:`OverflowError` if a summed ``s1`` counter would pass
    ``int64``.
    """
    if not len(blocks):
        return SparseRowBlock(_EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY, _EMPTY.view(np.uint64), 0)
    vertices, out_row = _encounter(np.concatenate([block.vertices for block in blocks]))
    offsets = np.cumsum([0] + [len(block) for block in blocks[:-1]]).tolist()
    row = out_row[np.concatenate([
        block.row + offset for block, offset in zip(blocks, offsets)
    ])]
    slots = blocks[0].slots
    return SparseRowBlock(
        vertices,
        *_sum_coordinates(
            row,
            *(
                np.concatenate([getattr(block, name) for block in blocks])
                for name in ("slot", "s0", "s1", "s2")
            ),
            slots,
        ),
        slots,
    )


class SketchRow:
    """One vertex's counter row, detached from its bank
    (:meth:`SketchBank.row`).

    Its word cost matches the seed implementation's per-vertex charge
    exactly (one word of vertex identity plus three counters per slot).
    """

    __slots__ = ("s0", "s1", "s2")

    def __init__(self, s0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2

    def word_size(self) -> int:
        return 1 + 3 * len(self.s0)


class SketchBank:
    """All ``(phase, copy, level)`` one-sparse counters for a vertex set."""

    __slots__ = (
        "spec",
        "num_levels",
        "num_samplers",
        "slots_per_row",
        "row_of",
        "vertices",
        "s1_bound",
        "_arrays",
        "_s0",
        "_s1",
        "_s2",
    )

    def __init__(self, spec, vertices: Iterable[int] = ()) -> None:
        arrays = spec.arrays  # refuses a spec the kernels cannot serve
        self.spec = spec
        self.num_levels = arrays.levels
        self.num_samplers = len(arrays.coefficients)
        self.slots_per_row = arrays.slots
        self.row_of: dict[int, int] = {}
        self.vertices: list[int] = []
        #: Worst-case ``|s1|`` of any row or disjoint sum of rows.
        self.s1_bound = 0
        self._arrays = arrays
        self._s0 = np.zeros((0, self.slots_per_row), dtype=np.int64)
        self._s1 = np.zeros((0, self.slots_per_row), dtype=np.int64)
        self._s2 = np.zeros((0, self.slots_per_row), dtype=np.uint64)
        self.add_vertices(vertices)

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    @property
    def s0(self) -> np.ndarray:
        """``(rows, slots)`` view of the live ``s0`` counters."""
        return self._s0[: len(self.vertices)]

    @property
    def s1(self) -> np.ndarray:
        return self._s1[: len(self.vertices)]

    @property
    def s2(self) -> np.ndarray:
        return self._s2[: len(self.vertices)]

    def _reserve_rows(self, rows: int) -> None:
        """Grow the counter arrays to hold *rows* rows (doubling, capped
        at ``n``: vertex ids are below ``n``, so no bank needs more)."""
        capacity = len(self._s0)
        if rows <= capacity:
            return
        capacity = min(max(rows, 2 * capacity, 8), self.spec.n)
        for name in ("_s0", "_s1", "_s2"):
            old = getattr(self, name)
            grown = np.zeros((capacity, self.slots_per_row), dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _rows_of(self, vertices: Iterable[int]) -> list[int]:
        """Row index of every vertex, creating missing rows in order."""
        row_of = self.row_of
        order = self.vertices
        n = self.spec.n
        rows = []
        for vertex in vertices:
            row = row_of.get(vertex)
            if row is None:
                if not 0 <= vertex < n:
                    raise ValueError(f"vertex {vertex!r} outside [0, {n})")
                vertex = int(vertex)
                row = row_of[vertex] = len(order)
                order.append(vertex)
            rows.append(row)
        self._reserve_rows(len(order))
        return rows

    def add_vertex(self, vertex: int) -> int:
        """Ensure *vertex* has a row (zero counters); return its index."""
        return self._rows_of((vertex,))[0]

    def add_vertices(self, vertices: Iterable[int]) -> None:
        """:meth:`add_vertex` for every vertex, in order."""
        self._rows_of(vertices)

    def row(self, vertex: int) -> SketchRow:
        """Extract a detached copy of *vertex*'s counter row."""
        r = self.row_of[vertex]
        return SketchRow(self._s0[r].copy(), self._s1[r].copy(), self._s2[r].copy())

    def insert_block(self, block: SparseRowBlock) -> None:
        """Add a :class:`SparseRowBlock` into the bank in one scatter,
        creating missing rows in block order; rows of one vertex add up
        (a block that repeats a vertex or a coordinate is combined
        first).

        Raises :class:`OverflowError`, before any row or counter changes,
        if the block could push ``|s1|`` past ``int64``: the bound grows
        by the exact sum of every row's largest ``|s1|``.
        """
        if not len(block):
            return
        slots = self.slots_per_row
        key = block.row * slots + block.slot
        if (key[1:] <= key[:-1]).any() or len(np.unique(block.vertices)) < len(block):
            block = combine_sparse_blocks([block])
        largest = np.zeros(len(block), dtype=np.int64)
        np.maximum.at(largest, block.row, np.abs(block.s1))
        extra = sum(largest.tolist())
        check_s1_bound(self.s1_bound + extra)
        rows = np.array(self._rows_of(block.vertices.tolist()), dtype=np.int64)
        at = rows[block.row] * slots + block.slot
        self._s0.reshape(-1)[at] += block.s0
        self._s1.reshape(-1)[at] += block.s1
        s2 = self._s2.reshape(-1)
        s2[at] = _addmod(s2[at], block.s2)
        self.s1_bound += extra

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_edges(self, edges: Iterable[tuple], sign=1) -> None:
        """Bulk-apply undirected edges to both endpoint rows.

        Edge ``{u, v}`` (id ``min*n + max``) contributes ``+1`` to the
        smaller endpoint's vector and ``-1`` to the larger's.  Hashes,
        level depths and fingerprint powers are computed once per edge
        for all samplers and shared by both endpoints; see the module
        docstring for the batching scheme.

        *sign* applies the whole batch with ``+1`` (insert, the default)
        or ``-1`` (delete), or gives one ``±1`` per edge, so one call can
        mix inserts and deletes: sketches are linear, so deleting an edge
        is applying its contribution negated, and an insert followed by a
        delete of the same edge returns every counter to its prior value
        exactly.

        Self-loops are no-ops on the counters: a loop's ``+1``
        (as the smaller endpoint) and ``-1`` (as the larger) land on the
        same row and cancel, so they are short-circuited before any hash
        is evaluated — the vertex still gets a (zero) row.

        Raises :class:`OverflowError`, before any row or counter changes,
        if the batch could push ``|s1|`` past ``int64``.
        """
        ends = np.array(
            [(edge[0], edge[1]) for edge in edges], dtype=np.int64
        ).reshape(-1)
        signs = _edge_signs(sign, len(ends) // 2)
        if not len(ends):
            return
        n = self.spec.n
        _check_vertices(ends, n)
        ids = _edge_ids(ends, n)
        extra = _exact_sums(ids, [len(ids)])[0]
        check_s1_bound(self.s1_bound + extra)
        vertices, local = _encounter(ends)
        touched = np.array(self._rows_of(vertices.tolist()), dtype=np.int64)
        self._scatter(*_endpoint_targets(ends, ids, local, signs), touched)
        self.s1_bound += extra

    def _scatter(self, ids: np.ndarray, targets, touched: np.ndarray) -> None:
        """Add every edge's signed contributions
        (:func:`_signed_contributions`) into the counter arrays; local
        row ``r`` is bank row ``touched[r]``.

        ``s0``/``s1`` take integer adds in place (repeats are exact).
        ``s2`` residues are split into 31-bit halves and summed per local
        ``(row, slot)`` in two ``uint64`` accumulators, which cannot
        overflow below ``2^33`` contributions per slot, and are reduced
        mod ``p`` once at the end, at the slots a contribution reached.
        """
        slots = self.slots_per_row
        s0, s1, s2 = (self._s0.reshape(-1), self._s1.reshape(-1), self._s2.reshape(-1))
        high = np.zeros(len(touched) * slots, dtype=np.uint64)
        low = np.zeros(len(touched) * slots, dtype=np.uint64)
        reached = np.zeros(len(touched) * slots, dtype=bool)
        for local, slot, sign, identity, residue in _signed_contributions(
            self._arrays, ids, targets
        ):
            at = touched[local] * slots + slot
            np.add.at(s0, at, sign)
            np.add.at(s1, at, identity)
            at = local * slots + slot
            np.add.at(high, at, residue >> _HALF)
            np.add.at(low, at, residue & _HALF_MASK)
            reached[at] = True
        hit = np.flatnonzero(reached)
        at = touched[hit // slots] * slots + hit % slots
        s2[at] = _addmod(s2[at], _from_halves(high[hit], low[hit]))

    # ------------------------------------------------------------------
    # merging / copying
    # ------------------------------------------------------------------
    def merge_vertices(self, dst: int, src: int) -> None:
        """Add *src*'s row into *dst*'s row (supernode merge; keeps
        :attr:`s1_bound` when the two rows' vertex sets are disjoint)."""
        d, s = self.row_of[dst], self.row_of[src]
        self._s0[d] += self._s0[s]
        self._s1[d] += self._s1[s]
        self._s2[d] = _addmod(self._s2[d], self._s2[s])

    def copy(self) -> "SketchBank":
        clone = SketchBank.__new__(SketchBank)
        clone.spec = self.spec
        clone.num_levels = self.num_levels
        clone.num_samplers = self.num_samplers
        clone.slots_per_row = self.slots_per_row
        clone.row_of = dict(self.row_of)
        clone.vertices = list(self.vertices)
        clone.s1_bound = self.s1_bound
        clone._arrays = self._arrays
        clone._s0 = self.s0.copy()
        clone._s1 = self.s1.copy()
        clone._s2 = self.s2.copy()
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_zero_vertex(self, vertex: int) -> bool:
        r = self.row_of[vertex]
        return not (self._s0[r].any() or self._s1[r].any() or self._s2[r].any())

    def _phase_slots(self, phase: int) -> slice:
        width = self.spec.copies * self.num_levels
        return slice(phase * width, (phase + 1) * width)

    def _sample_block(self, s0, s1, s2, phase: int) -> list[tuple[int, int] | None]:
        """Sample one edge per row of a ``(rows, copies * L)`` phase block:
        copies in order, levels from deepest to shallowest — the legacy
        scan order."""
        scan = self._arrays.scan
        s0, s1, s2 = s0[:, scan], s1[:, scan], s2[:, scan]
        slot = np.broadcast_to(self._phase_slots(phase).start + scan, s0.shape)
        coordinate, ok = self._decode(s0, s1, s2, slot)
        first = ok.argmax(axis=1)
        chosen = coordinate[np.arange(len(first)), first].tolist()
        n = self.spec.n
        return [
            edge_from_id(n, c) if hit else None
            for c, hit in zip(chosen, ok.any(axis=1).tolist())
        ]

    def _decode(self, s0, s1, s2, slot):
        """Elementwise one-sparse recovery (the seed implementation's
        per-level decode): the coordinate ``s1 // s0`` and
        whether it passes every test — ``s0 != 0``, ``s0`` divides ``s1``,
        the coordinate is non-negative and the fingerprint matches."""
        ok = s0 != 0
        divisor = np.where(ok, s0, 1)
        coordinate = s1 // divisor
        ok &= (s1 % divisor == 0) & (coordinate >= 0)
        if ok.any():
            c = coordinate[ok]
            z_slot = slot[ok]
            powers = self._arrays.powers
            inside = c < powers.limit
            f = np.empty(len(c), dtype=np.uint64)
            f[inside] = powers(z_slot[inside], c[inside])
            z = self._arrays.z
            for t in np.flatnonzero(~inside).tolist():  # off-universe, rare
                f[t] = pow(int(z[z_slot[t]]), int(c[t]), PRIME)
            scale = np.remainder(s0[ok], PRIME).astype(np.uint64)
            ok[ok] = mulmod(scale, f) == s2[ok]
        return coordinate, ok

    def sample_outgoing(self, vertex: int, phase: int) -> tuple[int, int] | None:
        """Sample an edge leaving *vertex*'s (super)vector using the given
        phase's samplers; tries the independent copies in order, levels
        from deepest to shallowest — the legacy scan order."""
        r = self.row_of[vertex]
        block = self._phase_slots(phase)
        return self._sample_block(
            self._s0[r : r + 1, block],
            self._s1[r : r + 1, block],
            self._s2[r : r + 1, block],
            phase,
        )[0]

    def decode_slot(
        self, vertex: int, phase: int, copy: int, level: int
    ) -> tuple[int, int] | None:
        """One-sparse recovery of a single addressed counter."""
        sampler = phase * self.spec.copies + copy
        offset = sampler * self.num_levels + level
        r = self.row_of[vertex]
        at = (slice(r, r + 1), slice(offset, offset + 1))
        coordinate, ok = self._decode(
            self._s0[at], self._s1[at], self._s2[at], np.array([[offset]])
        )
        if not ok[0, 0]:
            return None
        return int(coordinate[0, 0]), int(self._s0[r, offset])

    def word_size(self) -> int:
        """Total storage charge: every row costs what the seed
        implementation's per-vertex sketch charged (one identity word +
        three counters per slot; evaluation points are part of the shared
        seed package)."""
        return len(self.vertices) * (1 + 3 * self.slots_per_row)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.row_of

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def _group_sums(bank: SketchBank, member: np.ndarray, slots: slice):
    """The groups of *member* (one per row of *bank*) in increasing order,
    and each group's rows summed over *slots*: integer adds for
    ``s0``/``s1``, an exact mod-``p`` sum for ``s2``."""
    order = np.argsort(member, kind="stable")
    member = member[order]
    starts = np.flatnonzero(np.r_[True, member[1:] != member[:-1]])
    rows = (order, slots)
    return (
        member[starts],
        np.add.reduceat(bank.s0[rows], starts),
        np.add.reduceat(bank.s1[rows], starts),
        _group_sum_s2(bank.s2[rows], starts),
    )


def _supernode_sums(banks, rows_at, group: np.ndarray, groups: int, slots: slice):
    """Every group's counters over *slots*, summed over the rows of every
    bank: ``group[rows_at[b][r]]`` is the group of row ``r`` of bank
    ``b``.  ``rows_at`` is ``None`` for one bank whose row ``r`` is
    ``group[r]``'s, which is summed in place; a group no row reaches sums
    to zero."""
    if rows_at is None:
        return _group_sums(banks[0], group, slots)[1:]
    width = slots.stop - slots.start
    s0 = np.zeros((groups, width), dtype=np.int64)
    s1 = np.zeros((groups, width), dtype=np.int64)
    s2 = np.zeros((groups, width), dtype=np.uint64)
    for bank, at in zip(banks, rows_at):
        if len(at):
            present, b0, b1, b2 = _group_sums(bank, group[at], slots)
            s0[present] += b0
            s1[present] += b1
            s2[present] = _addmod(s2[present], b2)
    return s0, s1, s2


def bank_boruvka(
    *banks: SketchBank, vertices: Iterable[int] | None = None
) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Borůvka over the sum of one or more sketch banks of one spec (the
    large machine's local computation).

    The vertices are *vertices* (by default the first bank's), then any
    other vertex a bank holds, in bank and row order: the rows a bank
    over *vertices* would list after adding in every bank.  A vertex no
    bank holds has a zero sketch.  Returns the component structure over
    those vertices and the sampled edges that realized each union.

    Each phase sums every supernode's rows over that phase's slots, one
    grouped pass per bank (sketches are linear, so the banks' sum is
    never built and no bank is modified), samples all roots at once, and
    then applies the proposals in the legacy loop's order — same root
    set, same proposal order — so the output is bit-identical for equal
    summed counters.  One bank whose rows are the vertices in order
    (always so when *vertices* is not given) is summed with no
    accumulator and no index map.

    Raises :class:`ValueError` for banks of different specs, and
    :class:`OverflowError` before any sum if their
    :attr:`~SketchBank.s1_bound` add up past ``int64``.
    """
    if not banks:
        raise TypeError("bank_boruvka needs at least one bank")
    first = banks[0]
    spec = first.spec
    if any(bank.spec is not spec and bank.spec != spec for bank in banks):
        raise ValueError("cannot merge sketches with different seeds")
    check_s1_bound(sum(bank.s1_bound for bank in banks))
    order = first.vertices if vertices is None else list(vertices)
    rows_at = None
    if len(banks) > 1 or order != first.vertices:
        order = list(dict.fromkeys(chain(order, *(bank.vertices for bank in banks))))
        index = {vertex: i for i, vertex in enumerate(order)}
        rows_at = [
            np.array([index[vertex] for vertex in bank.vertices], dtype=np.int64)
            for bank in banks
        ]
    uf = UnionFind(order)
    forest: list[tuple[int, int]] = []

    for phase in range(spec.phases):
        roots = {uf.find(v) for v in order}
        if len(roots) <= 1:
            break
        position = {root: i for i, root in enumerate(roots)}
        group = np.array([position[uf.find(v)] for v in order])
        sums = _supernode_sums(banks, rows_at, group, len(roots), first._phase_slots(phase))
        proposals = [
            edge for edge in first._sample_block(*sums, phase) if edge is not None
        ]
        if not proposals:
            # No supernode found an outgoing edge.  Either every cut is
            # empty (components are final) or all samplers failed, which
            # happens with probability exponentially small in the number
            # of copies; later phases cannot recover, so stop either way.
            break
        for u, v in proposals:
            if uf.union(u, v):
                forest.append((u, v))
    return uf, forest
