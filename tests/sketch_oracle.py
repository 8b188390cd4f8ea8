"""Pure-Python oracle for the sketch bank: Python-list counters and
Python-int kernels.

This is the list-backed bank the array-native
:class:`repro.sketches.SketchBank` replaced, kept with the tests as the
bit-identical reference: counters are exact Python ints (no width
limits), every update walks edges x samplers x levels in a Python loop,
and powers come from a baby-step/giant-step table.  :class:`ListBank`
offers the bank methods that the connectivity pipeline and the serve
core call, including ``insert_block`` of a sparse row block.
:func:`list_partial_blocks` / :func:`list_combine_blocks` are
per-machine, per-row references for the sparse build and combine: they
go through :class:`ListBank` rows and per-row merges, and hand rows on
as :class:`~repro.sketches.SparseRowBlock` coordinates — the one
transport type the round engine charges.  Tests can run those layers on
the oracle by patching the ``SketchBank``, ``bank_boruvka``,
``build_sparse_blocks`` and ``combine_sparse_blocks`` names of the
calling module.  :func:`densify` expands any sparse block to its dense
rows with Python ints, the form the tests compare.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.graph.union_find import UnionFind
from repro.sketches.bank import SparseRowBlock, edge_from_id
from repro.sketches.field import PRIME

#: Largest baby-step/giant-step block worth materializing.
_MAX_BLOCK = 1 << 20


@lru_cache(maxsize=1 << 16)
def fingerprint_power(z: int, index: int) -> int:
    """Cached ``z ** index mod PRIME``: decoding retries the same
    candidate index across every copy, phase and Borůvka round."""
    return pow(z, index, PRIME)


class PureKernels:
    """Hashing, level and power kernels over Python ints."""

    name = "pure"

    def __init__(self) -> None:
        # z -> (block, baby, giant) powers tables; see pow_many.
        self._pow_tables: dict[int, tuple[int, list[int], list[int]]] = {}

    def poly_eval_many(
        self, coefficients: Sequence[int], xs: Sequence[int]
    ) -> list[int]:
        """Horner-evaluate the polynomial at every point of *xs*, mod PRIME."""
        xs = [x % PRIME for x in xs]
        out = [coefficients[0]] * len(xs)
        for c in coefficients[1:]:
            out = [(a * x + c) % PRIME for a, x in zip(out, xs)]
        return out

    def trailing_zeros_many(self, values: Iterable[int]) -> list[int]:
        return [(v & -v).bit_length() - 1 if v else 61 for v in values]

    def pow_many(
        self, z: int, exponents: Sequence[int], max_exponent: int | None = None
    ) -> list[int]:
        """``z ** e mod PRIME`` for every ``e`` in *exponents*.

        Large batches build a table ``baby[r] = z^r``,
        ``giant[q] = z^(q*block)`` with ``block ~ sqrt(max_exponent)``,
        cached per *z*; small batches and exponents beyond the table use
        ``pow``.
        """
        if not exponents:
            return []
        table = self._pow_tables.get(z)
        if table is None:
            hi = max_exponent if max_exponent is not None else max(exponents)
            block = isqrt(max(hi, 1)) + 1
            if block > _MAX_BLOCK or 4 * len(exponents) < block:
                return [pow(z, e, PRIME) for e in exponents]
            baby = [1] * block
            acc = 1
            for r in range(1, block):
                acc = acc * z % PRIME
                baby[r] = acc
            z_block = acc * z % PRIME
            giant = [1] * (block + 1)
            acc = 1
            for q in range(1, block + 1):
                acc = acc * z_block % PRIME
                giant[q] = acc
            table = self._pow_tables[z] = (block, baby, giant)
        block, baby, giant = table
        bound = block * len(giant)
        return [
            giant[e // block] * baby[e % block] % PRIME
            if e < bound
            else pow(z, e, PRIME)
            for e in exponents
        ]


class ListRow:
    """One vertex's counters as three Python lists."""

    __slots__ = ("s0", "s1", "s2")

    def __init__(self, s0: list[int], s1: list[int], s2: list[int]) -> None:
        self.s0 = s0
        self.s1 = s1
        self.s2 = s2

    def merge(self, other) -> "ListRow":
        return ListRow(
            [a + b for a, b in zip(self.s0, other.s0)],
            [a + b for a, b in zip(self.s1, other.s1)],
            [(a + b) % PRIME for a, b in zip(self.s2, other.s2)],
        )

    def word_size(self) -> int:
        return 1 + 3 * len(self.s0)


class ListBank:
    """The list-backed sketch bank: flat counter lists, row-major."""

    def __init__(self, spec, vertices: Iterable[int] = ()) -> None:
        self.spec = spec
        self.kernels = PureKernels()
        self._flat_seeds = [s for phase in spec.seeds for s in phase]
        self.num_levels = self._flat_seeds[0].num_levels
        self.slots_per_row = len(self._flat_seeds) * self.num_levels
        self._z_flat = [z for seeds in self._flat_seeds for z in seeds.z_points]
        self.row_of: dict[int, int] = {}
        self.vertices: list[int] = []
        self.s0: list[int] = []
        self.s1: list[int] = []
        self.s2: list[int] = []
        self.add_vertices(vertices)

    # rows ---------------------------------------------------------------
    def add_vertex(self, vertex: int) -> int:
        row = self.row_of.get(vertex)
        if row is None:
            row = self.row_of[vertex] = len(self.vertices)
            self.vertices.append(vertex)
            zeros = [0] * self.slots_per_row
            self.s0.extend(zeros)
            self.s1.extend(zeros)
            self.s2.extend(zeros)
        return row

    def add_vertices(self, vertices: Iterable[int]) -> None:
        for vertex in vertices:
            self.add_vertex(vertex)

    def row(self, vertex: int) -> ListRow:
        start = self.row_of[vertex] * self.slots_per_row
        end = start + self.slots_per_row
        return ListRow(self.s0[start:end], self.s1[start:end], self.s2[start:end])

    def row_items(self) -> list[tuple[int, ListRow]]:
        return [(vertex, self.row(vertex)) for vertex in self.vertices]

    def insert_row(self, vertex: int, row) -> None:
        start = self.add_vertex(vertex) * self.slots_per_row
        self._add_at(start, row.s0, row.s1, row.s2)

    def insert_rows(self, items) -> None:
        for vertex, row in items:
            self.insert_row(vertex, row)

    def insert_block(self, block) -> None:
        self.insert_rows(block_rows(block))

    def _add_at(self, start: int, s0, s1, s2) -> None:
        for k in range(self.slots_per_row):
            self.s0[start + k] += s0[k]
            self.s1[start + k] += s1[k]
            self.s2[start + k] = (self.s2[start + k] + s2[k]) % PRIME

    # updates ------------------------------------------------------------
    def update_edges(self, edges: Iterable[tuple], sign=1) -> None:
        """Each edge ``{u, v}`` adds ``+sign`` to the smaller endpoint's
        row and ``-sign`` to the larger's, one (sampler, level) at a
        time; self-loops only create their row.  *sign* is one ``±1``
        for the batch or a sequence of one per edge."""
        edges = list(edges)
        signs = [sign] * len(edges) if isinstance(sign, int) else list(sign)
        if len(signs) != len(edges) or any(s not in (1, -1) for s in signs):
            raise ValueError(f"sign must be +1 or -1 per edge, got {sign!r}")
        n = self.spec.n
        pairs = []
        for edge, s in zip(edges, signs):
            u, v = edge[0], edge[1]
            ru, rv = self.add_vertex(u), self.add_vertex(v)
            if u != v:
                pairs.append(
                    (ru, rv, u * n + v, s) if u < v else (rv, ru, v * n + u, s)
                )
        if not pairs:
            return
        levels = self.num_levels
        slots = self.slots_per_row
        ids = [p[2] for p in pairs]
        for j, seeds in enumerate(self._flat_seeds):
            depths = self.kernels.trailing_zeros_many(
                self.kernels.poly_eval_many(
                    seeds.level_hash.coefficients, [i + 1 for i in ids]
                )
            )
            for level in range(levels):
                chosen = [k for k, d in enumerate(depths) if d >= level]
                if not chosen:
                    break
                powers = self.kernels.pow_many(
                    seeds.z_points[level], [ids[k] for k in chosen], n * n
                )
                slot = j * levels + level
                for k, f in zip(chosen, powers):
                    lo, hi, identifier, edge_sign = pairs[k]
                    for row, s in ((lo, edge_sign), (hi, -edge_sign)):
                        a = row * slots + slot
                        self.s0[a] += s
                        self.s1[a] += s * identifier
                        self.s2[a] = (self.s2[a] + s * f) % PRIME

    # merging ------------------------------------------------------------
    def merge_row_by_index(self, dst_row: int, src_row: int) -> None:
        slots = self.slots_per_row
        src = slice(src_row * slots, (src_row + 1) * slots)
        self._add_at(dst_row * slots, self.s0[src], self.s1[src], self.s2[src])

    def merge_vertices(self, dst: int, src: int) -> None:
        self.merge_row_by_index(self.row_of[dst], self.row_of[src])

    def absorb(self, other) -> None:
        for vertex in other.vertices:
            self.insert_row(vertex, other.row(vertex))

    def copy(self) -> "ListBank":
        clone = ListBank(self.spec)
        clone.row_of = dict(self.row_of)
        clone.vertices = list(self.vertices)
        clone.s0, clone.s1, clone.s2 = self.s0[:], self.s1[:], self.s2[:]
        return clone

    # queries ------------------------------------------------------------
    def is_zero_vertex(self, vertex: int) -> bool:
        row = self.row(vertex)
        return not any(row.s0 + row.s1 + row.s2)

    def _decode(self, index: int, z: int) -> tuple[int, int] | None:
        s0, s1 = self.s0[index], self.s1[index]
        if s0 == 0 or s1 % s0 != 0 or s1 // s0 < 0:
            return None
        coordinate = s1 // s0
        if (s0 % PRIME) * fingerprint_power(z, coordinate) % PRIME != self.s2[index]:
            return None
        return coordinate, s0

    def sample_row(self, row: int, phase: int) -> tuple[int, int] | None:
        levels = self.num_levels
        copies = self.spec.copies
        for copy_index in range(copies):
            base = (phase * copies + copy_index) * levels
            for level in range(levels - 1, -1, -1):
                decoded = self._decode(
                    row * self.slots_per_row + base + level,
                    self._z_flat[base + level],
                )
                if decoded is not None:
                    return edge_from_id(self.spec.n, decoded[0])
        return None

    def sample_outgoing(self, vertex: int, phase: int) -> tuple[int, int] | None:
        return self.sample_row(self.row_of[vertex], phase)

    def word_size(self) -> int:
        return len(self.vertices) * (1 + 3 * self.slots_per_row)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.row_of

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def list_boruvka(
    *banks: ListBank, vertices=None
) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Borůvka on the sum of list banks: a fresh list bank over *vertices*
    (by default the first bank's) absorbs every bank in turn, then
    supernode rows merge as it unions."""
    work = ListBank(banks[0].spec, banks[0].vertices if vertices is None else vertices)
    for bank in banks:
        work.absorb(bank)
    uf = UnionFind(work.vertices)
    row_ref = dict(work.row_of)
    forest: list[tuple[int, int]] = []
    for phase in range(work.spec.phases):
        roots = {uf.find(v) for v in work.vertices}
        if len(roots) <= 1:
            break
        proposals = [
            sampled
            for sampled in (work.sample_row(row_ref[root], phase) for root in roots)
            if sampled is not None
        ]
        if not proposals:
            break
        for u, v in proposals:
            ru, rv = uf.find(u), uf.find(v)
            if ru != rv:
                work.merge_row_by_index(row_ref[ru], row_ref[rv])
                uf.union(u, v)
                keep = uf.find(u)
                if keep != ru:
                    row_ref[keep] = row_ref[ru]
                forest.append((u, v))
    return uf, forest


# ----------------------------------------------------------------------
# sparse row blocks: per-machine banks and per-row merges
# ----------------------------------------------------------------------
def block_rows(block: SparseRowBlock) -> list[tuple[int, ListRow]]:
    """A sparse block's rows as ``(vertex, ListRow)`` pairs, in order:
    every coordinate added in with Python ints (``s2`` mod PRIME)."""
    slots = block.slots
    rows = [
        (vertex, ListRow([0] * slots, [0] * slots, [0] * slots))
        for vertex in block.vertices.tolist()
    ]
    for r, slot, s0, s1, s2 in zip(
        block.row.tolist(), block.slot.tolist(), block.s0.tolist(),
        block.s1.tolist(), block.s2.tolist(),
    ):
        row = rows[r][1]
        row.s0[slot] += s0
        row.s1[slot] += s1
        row.s2[slot] = (row.s2[slot] + s2) % PRIME
    return rows


def densify(block: SparseRowBlock) -> np.ndarray:
    """A sparse block's dense rows ``[vertex, vertex, s0, s1, s2]``: an
    ``int64`` array of its ``shape`` (residues fit in int64)."""
    return np.array(
        [[vertex, vertex, *row.s0, *row.s1, *row.s2]
         for vertex, row in block_rows(block)],
        dtype=np.int64,
    ).reshape(block.shape)


def sparse_block(items, slots: int) -> SparseRowBlock:
    """``(vertex, row)`` pairs as a sparse block of their non-zero
    counters, coordinates sorted by ``(row, slot)``."""
    vertices, coordinates = [], []
    for r, (vertex, row) in enumerate(items):
        vertices.append(vertex)
        coordinates.extend(
            (r, slot, a, b, c)
            for slot, (a, b, c) in enumerate(zip(row.s0, row.s1, row.s2))
            if a or b or c
        )
    table = np.array(coordinates, dtype=np.int64).reshape(-1, 5)
    return SparseRowBlock(
        np.array(vertices, dtype=np.int64),
        *(table[:, k].copy() for k in range(4)),
        table[:, 4].astype(np.uint64),
        slots,
    )


def concat_blocks(blocks) -> SparseRowBlock:
    """The rows of *blocks* stacked into one block, a vertex possibly
    repeated (what a combine or an insert must sum)."""
    offsets = np.cumsum([0] + [len(block) for block in blocks])
    return SparseRowBlock(
        np.concatenate([block.vertices for block in blocks]),
        np.concatenate([block.row + o for block, o in zip(blocks, offsets)]),
        *(np.concatenate([getattr(block, name) for block in blocks])
          for name in ("slot", "s0", "s1", "s2")),
        blocks[0].slots,
    )


def list_partial_blocks(spec, edge_lists) -> list[SparseRowBlock]:
    """Reference for ``build_sparse_blocks``: one :class:`ListBank` per
    machine, its rows in insertion order."""
    blocks = []
    for edges in edge_lists:
        bank = ListBank(spec)
        bank.update_edges(edges)
        blocks.append(sparse_block(bank.row_items(), bank.slots_per_row))
    return blocks


def list_combine_blocks(blocks) -> SparseRowBlock:
    """Reference for ``combine_sparse_blocks``: rows merged one at a time
    into a dict keyed by vertex (first-encounter order)."""
    merged: dict[int, ListRow] = {}
    for block in blocks:
        for vertex, row in block_rows(block):
            merged[vertex] = merged[vertex].merge(row) if vertex in merged else row
    return sparse_block(merged.items(), blocks[0].slots if len(blocks) else 0)
