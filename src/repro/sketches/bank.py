"""Array-native ℓ₀ banks: the vectorized substrate behind the AGM sketches.

The seed implementation kept one :class:`~repro.sketches.l0.L0Sampler`
object per ``(vertex, phase, copy)`` and one
:class:`~repro.sketches.onesparse.OneSparseSketch` object per level inside
it — thousands of tiny Python objects per vertex.  A :class:`SketchBank`
stores the same state as one ``(rows, slots)`` array per counter:

    slot(phase, copy, level) = (phase * copies + copy) * L + level

with ``L`` levels per sampler and ``slots = phases * copies * L`` slots
per vertex row, holding the one-sparse counters of the AGM vertex
vectors: ``s0 = Σ δ`` and ``s1 = Σ id·δ`` as ``int64``, and the
fingerprint ``s2 = Σ δ·z^id mod p`` as ``uint64`` residues below
``2^61``.  Rows are created in endpoint-encounter order and only for
touched vertices.

Batched update math (:meth:`SketchBank.update_edges`): one vectorized
Horner pass hashes every edge under every ``(phase, copy)`` sampler, the
trailing zeros of each hash give the geometric level depth, and the
fingerprint powers ``z^id`` of every surviving ``(edge, sampler, level)``
triple come from a per-spec :class:`~repro.sketches.field.PowerTable`.
Both endpoints' signed contributions — ``+1`` to the smaller endpoint's
row, ``-1`` to the larger's — land in one scatter that stays exact when
many contributions hit one slot: ``s2`` contributions are split into
31-bit halves, summed per slot in ``uint64`` and reduced mod ``p`` once.

Updates are *signed*: because the sketches are linear maps of the edge
multiset, ``update_edges(batch, sign=-1)`` deletes edges by applying the
identical contributions negated — the substrate behind the dynamic-graph
query service in :mod:`repro.serve`.  Self-loops are short-circuited to
no-ops (an edge ``{u, u}`` contributes ``+1`` as the smaller endpoint and
``-1`` as the larger to the *same* row, which cancels), so the streaming
path never spends hash evaluations on them.

Numeric limits are explicit.  Edge ids run up to ``n^2 - 1``, so a bank
refuses an ``n`` whose ids do not fit in ``int64``.  ``|s1|`` of any row,
and of any sum of rows over disjoint vertex sets (a Borůvka supernode),
is at most the bank's :attr:`SketchBank.s1_bound`: the sum of the ids of
every edge applied plus the largest ``|s1|`` of every row merged in.
:meth:`~SketchBank.update_edges`, :meth:`~SketchBank.insert_row` and
:meth:`~SketchBank.absorb` raise :class:`OverflowError` before moving
any counter when that bound would pass ``2^63 - 1``, instead of wrapping.

Merging rows, absorbing banks and copying are vector adds;
:func:`bank_boruvka` runs Borůvka in sketch space on a bank, summing each
supernode's phase block in one grouped pass and decoding every root at
once, with the legacy object loop's decisions, so component labels are
bit-identical to the seed implementation for fixed seeds (pinned by
``tests/integration/test_sketch_equivalence.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..graph.union_find import UnionFind
from .field import PRIME, PowerTable, mulmod, poly_eval_many, trailing_zeros_many

__all__ = [
    "INT64_MAX",
    "SpecArrays",
    "SketchRow",
    "SketchBank",
    "bank_boruvka",
    "check_s1_bound",
    "edge_id",
    "edge_from_id",
]

INT64_MAX = (1 << 63) - 1

_P = np.uint64(PRIME)
_HALF = np.uint64(31)
_HALF_MASK = np.uint64((1 << 31) - 1)
_TWO31 = np.uint64(1 << 31)

#: Upper bound on ``samplers * edges`` per vectorized update chunk; keeps
#: the temporaries of one chunk around a few megabytes.
_CHUNK = 1 << 16


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


def _exact_sum(values: np.ndarray) -> int:
    """Exact Python-int sum of non-negative int64 *values* (the int64 sum
    itself could wrap): high and low 32-bit halves are summed apart."""
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


def _addmod(a, b):
    """``a + b mod p`` for residues: ``t - p`` wraps around when ``t < p``."""
    t = a + b
    return np.minimum(t, t - _P)


def _from_halves(high, low):
    """Residues of ``high * 2^31 + low`` mod p, for ``high < 2^61`` and
    ``low < 2^62`` (sums of the 31-bit halves of residues)."""
    total = mulmod(high, _TWO31) + low  # < 2^63
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
    by every bank built from the spec."""

    __slots__ = ("coefficients", "z", "scan", "max_id", "_powers")

    def __init__(self, spec) -> None:
        flat = [seeds for phase_seeds in spec.seeds for seeds in phase_seeds]
        levels = flat[0].num_levels
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


class SketchRow:
    """One vertex's counter row, detached from its bank.

    This is the unit shipped through the aggregation tree: machines
    extract rows from their partial banks, the converge-cast merges rows
    per vertex, and the destination machine reassembles a bank.  Its word
    cost matches the legacy ``VertexSketch`` charge exactly (one word of
    vertex identity plus three counters per slot), keeping every ledger
    unchanged by the migration.
    """

    __slots__ = ("s0", "s1", "s2")

    def __init__(self, s0: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2

    def merge(self, other: "SketchRow") -> "SketchRow":
        """Return the sum row (sketches are linear); inputs are untouched."""
        return SketchRow(
            self.s0 + other.s0, self.s1 + other.s1, _addmod(self.s2, other.s2)
        )

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
        flat_seeds = [seeds for phase_seeds in spec.seeds for seeds in phase_seeds]
        level_counts = {seeds.num_levels for seeds in flat_seeds}
        if len(level_counts) != 1:
            raise ValueError("bank requires a uniform level count across samplers")
        if spec.n * spec.n - 1 > INT64_MAX:
            raise OverflowError(
                f"n={spec.n}: edge ids up to n^2 - 1 do not fit in int64 counters"
            )
        self.spec = spec
        self.num_levels = level_counts.pop()
        self.num_samplers = len(flat_seeds)
        self.slots_per_row = self.num_samplers * self.num_levels
        self.row_of: dict[int, int] = {}
        self.vertices: list[int] = []
        #: Worst-case ``|s1|`` of any row or disjoint sum of rows.
        self.s1_bound = 0
        self._arrays = spec.arrays
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

    def row_items(self) -> list[tuple[int, SketchRow]]:
        """``(vertex, row)`` pairs in insertion order — aggregation payload.
        The rows are views of one detached copy of the counters."""
        s0, s1, s2 = self.s0.copy(), self.s1.copy(), self.s2.copy()
        return [
            (vertex, SketchRow(s0[r], s1[r], s2[r]))
            for r, vertex in enumerate(self.vertices)
        ]

    def insert_row(self, vertex: int, row: SketchRow) -> None:
        """Add *row* into *vertex*'s row (creating it if missing)."""
        self.insert_rows(((vertex, row),))

    def insert_rows(self, items: Iterable[tuple[int, SketchRow]]) -> None:
        """Add every ``(vertex, row)`` into the bank in one vector add,
        creating missing rows in item order."""
        items = list(items)
        if not items:
            return
        vertices = [vertex for vertex, _ in items]
        if len(set(vertices)) < len(vertices):
            for item in items:  # repeated vertices: add one at a time
                self.insert_rows((item,))
            return
        s1 = np.stack([row.s1 for _, row in items])
        extra = sum(np.abs(s1).max(axis=1).tolist())
        check_s1_bound(self.s1_bound + extra)
        rows = self._rows_of(vertices)
        self._add_block(
            rows,
            np.stack([row.s0 for _, row in items]),
            s1,
            np.stack([row.s2 for _, row in items]),
        )
        self.s1_bound += extra

    def _add_block(self, rows, s0, s1, s2) -> None:
        """Add ``(k, slots)`` counter blocks into distinct *rows*."""
        self._s0[rows] += s0
        self._s1[rows] += s1
        self._s2[rows] = _addmod(self._s2[rows], s2)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_edges(self, edges: Iterable[tuple], sign: int = 1) -> None:
        """Bulk-apply undirected edges to both endpoint rows.

        Edge ``{u, v}`` (id ``min*n + max``) contributes ``+1`` to the
        smaller endpoint's vector and ``-1`` to the larger's.  Hashes,
        level depths and fingerprint powers are computed once per edge
        for all samplers and shared by both endpoints; see the module
        docstring for the batching scheme.

        *sign* applies the whole batch with ``+1`` (insert, the default)
        or ``-1`` (delete): sketches are linear, so deleting an edge is
        applying its contribution negated, and an insert followed by a
        delete of the same edge returns every counter to its prior value
        exactly.

        Self-loops are no-ops on the counters: a loop's ``+1``
        (as the smaller endpoint) and ``-1`` (as the larger) land on the
        same row and cancel, so they are short-circuited before any hash
        is evaluated — the vertex still gets a (zero) row.

        Raises :class:`OverflowError`, before any row or counter changes,
        if the batch could push ``|s1|`` past ``int64``.
        """
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        ends = np.array(
            [(edge[0], edge[1]) for edge in edges], dtype=np.int64
        ).reshape(-1)
        if not len(ends):
            return
        n = self.spec.n
        if ends.min() < 0 or ends.max() >= n:
            bad = ends[(ends < 0) | (ends >= n)][0]
            raise ValueError(f"vertex {int(bad)} outside [0, {n})")
        u, v = ends[0::2], ends[1::2]
        real = u != v
        lo = np.minimum(u, v)[real]
        hi = np.maximum(u, v)[real]
        ids = lo * n + hi
        extra = _exact_sum(ids)
        check_s1_bound(self.s1_bound + extra)
        # Rows in endpoint-encounter order: distinct endpoints sorted by
        # first occurrence, then mapped back.
        distinct, first, inverse = np.unique(
            ends, return_index=True, return_inverse=True
        )
        encounter = np.argsort(first, kind="stable")
        touched = np.empty(len(distinct), dtype=np.int64)
        touched[encounter] = self._rows_of(distinct[encounter].tolist())
        if not len(ids):
            return
        iu, iv = inverse[0::2][real], inverse[1::2][real]
        u_low = u[real] < v[real]
        self._apply(
            ids,
            touched,
            ((np.where(u_low, iu, iv), sign), (np.where(u_low, iv, iu), -sign)),
        )
        self.s1_bound += extra

    def add_incident(self, vertex: int, u: int, v: int, sign: int = 1) -> None:
        """Account for incident edge ``{u, v}`` in *vertex*'s row only.

        The single-edge path behind the legacy ``VertexSketch.add_edge``.
        *sign* is ``+1`` (insert) or ``-1`` (delete); self-loops are no-ops
        (their endpoint contributions cancel), matching
        :meth:`update_edges`.
        """
        if vertex not in (u, v):
            raise ValueError("edge not incident to this vertex")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        lo, hi = (u, v) if u <= v else (v, u)
        identifier = lo * self.spec.n + hi if u != v else 0
        check_s1_bound(self.s1_bound + identifier)
        row = self.add_vertex(vertex)
        if u == v:
            return
        sign = sign if vertex == lo else -sign
        self._apply(
            np.array([identifier], dtype=np.int64),
            np.array([row], dtype=np.int64),
            ((np.zeros(1, dtype=np.int64), sign),),
        )
        self.s1_bound += identifier

    def _apply(self, ids: np.ndarray, touched: np.ndarray, targets) -> None:
        """Scatter every edge's contributions into each ``(local, sign)``
        target: edge ``i`` adds ``sign`` times its contribution to row
        ``touched[local[i]]``.

        ``s0``/``s1`` take integer adds in place (repeats are exact).
        ``s2`` contributions — ``z^id`` or ``p - z^id``, residues below
        ``2^61`` — are split into 31-bit halves and summed per slot over
        the touched rows in two ``uint64`` accumulators, which cannot
        overflow below ``2^33`` contributions per slot (one per edge at
        most), and are reduced mod p once at the end.
        """
        slots = self.slots_per_row
        s0, s1 = self._s0.reshape(-1), self._s1.reshape(-1)
        high = np.zeros(len(touched) * slots, dtype=np.uint64)
        low = np.zeros(len(touched) * slots, dtype=np.uint64)
        step = max(1, _CHUNK // self.num_samplers)
        for start in range(0, len(ids), step):
            part = slice(start, start + step)
            edge, slot, power = self._contributions(ids[part])
            identity = ids[part][edge]
            for local, sign in targets:
                at = local[part][edge] * slots + slot
                flat = touched[local[part][edge]] * slots + slot
                np.add.at(s0, flat, sign)
                np.add.at(s1, flat, sign * identity)
                residue = power if sign > 0 else _P - power
                np.add.at(high, at, residue >> _HALF)
                np.add.at(low, at, residue & _HALF_MASK)
        hit = np.flatnonzero(high | low)
        flat = touched[hit // slots] * slots + hit % slots
        s2 = self._s2.reshape(-1)
        s2[flat] = _addmod(s2[flat], _from_halves(high[hit], low[hit]))

    def _contributions(self, ids: np.ndarray):
        """``(edge, slot, z_slot^id)`` for every ``(edge, sampler, level)``
        triple the edges reach: level ``l`` of a sampler keeps an edge
        whose hash of ``id + 1`` has at least ``l`` trailing zeros."""
        arrays = self._arrays
        levels = self.num_levels
        xs = np.remainder(ids.astype(np.uint64) + np.uint64(1), _P)
        depth = trailing_zeros_many(poly_eval_many(arrays.coefficients, xs))
        reach = np.minimum(depth, levels - 1).ravel() + 1  # (sampler, edge)
        pair = np.repeat(np.arange(len(reach)), reach)
        level = np.arange(len(pair)) - np.repeat(np.cumsum(reach) - reach, reach)
        sampler, edge = np.divmod(pair, len(ids))
        slot = sampler * levels + level
        return edge, slot, arrays.powers(slot, ids[edge])

    # ------------------------------------------------------------------
    # merging / copying
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "SketchBank") -> None:
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("cannot merge sketches with different seeds")

    def merge_vertices(self, dst: int, src: int) -> None:
        """Add *src*'s row into *dst*'s row (supernode merge; keeps
        :attr:`s1_bound` when the two rows' vertex sets are disjoint)."""
        d, s = self.row_of[dst], self.row_of[src]
        self._s0[d] += self._s0[s]
        self._s1[d] += self._s1[s]
        self._s2[d] = _addmod(self._s2[d], self._s2[s])

    def merge_row_from(
        self, other: "SketchBank", src_vertex: int, dst_vertex: int | None = None
    ) -> None:
        """Add *other*'s row for *src_vertex* into our *dst_vertex* row."""
        self._check_compatible(other)
        if dst_vertex is None:
            dst_vertex = src_vertex
        self.insert_row(dst_vertex, other.row(src_vertex))

    def absorb(self, other: "SketchBank") -> None:
        """Merge every row of *other* into this bank (rows missing here
        are created in *other*'s order)."""
        self._check_compatible(other)
        check_s1_bound(self.s1_bound + other.s1_bound)
        rows = self._rows_of(other.vertices)
        self._add_block(rows, other.s0, other.s1, other.s2)
        self.s1_bound += other.s1_bound

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
        """Elementwise one-sparse recovery (mirrors
        ``OneSparseSketch.decode``): the coordinate ``s1 // s0`` and
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
        """Total storage charge: every row costs what the legacy
        ``VertexSketch`` charged (one identity word + three counters per
        slot; evaluation points are part of the shared seed package)."""
        return len(self.vertices) * (1 + 3 * self.slots_per_row)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.row_of

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def bank_boruvka(bank: SketchBank) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Borůvka over a sketch bank (the large machine's local computation).

    Returns the component structure over the bank's vertices and the
    sampled edges that realized each union.  Each phase sums every
    supernode's rows over that phase's slots in one grouped pass (the
    bank itself is never modified), samples all roots at once, and then
    applies the proposals in the legacy loop's order — same root set,
    same proposal order — so the output is bit-identical for equal bank
    contents.
    """
    uf = UnionFind(bank.vertices)
    forest: list[tuple[int, int]] = []

    for phase in range(bank.spec.phases):
        roots = {uf.find(v) for v in bank.vertices}
        if len(roots) <= 1:
            break
        position = {root: i for i, root in enumerate(roots)}
        group = np.array([position[uf.find(v)] for v in bank.vertices])
        order = np.argsort(group, kind="stable")
        starts = np.flatnonzero(np.r_[True, np.diff(group[order]) != 0])
        rows = (order, bank._phase_slots(phase))
        proposals = [
            edge
            for edge in bank._sample_block(
                np.add.reduceat(bank.s0[rows], starts),
                np.add.reduceat(bank.s1[rows], starts),
                _group_sum_s2(bank.s2[rows], starts),
                phase,
            )
            if edge is not None
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
