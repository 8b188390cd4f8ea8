"""AGM graph sketches [1] and sketch-space Borůvka.

Encode the graph as one vector per vertex over the edge universe
``{0, ..., n^2 - 1}``: edge ``{u, v}`` (``u < v``) has id ``u * n + v`` and
appears in ``a_u`` with value ``+1`` and in ``a_v`` with value ``-1``.  For
any vertex set ``S``, the coordinates of ``sum_{v in S} a_v`` that survive
are exactly the edges crossing the cut ``(S, V \\ S)`` — internal edges
cancel.  An ℓ₀-sampler of the summed sketch therefore samples an outgoing
edge of the supernode ``S``, which is all Borůvka needs.

Because one Borůvka phase *adaptively* depends on the edges sampled in the
previous one, each phase must use fresh, independent samplers; a
:class:`GraphSketchSpec` carries ``phases x copies`` independent seed
packages (the extra copies boost the constant success probability of a
single sampler).

The counters live in an array-native
:class:`~repro.sketches.bank.SketchBank`;
:class:`VertexSketch` remains as a thin compatible wrapper over a
single-row bank, and :func:`sketch_boruvka` assembles the object inputs
into a bank and runs :func:`~repro.sketches.bank.bank_boruvka`.  Both
produce bit-identical results to the seed per-object implementation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from ..graph.union_find import UnionFind
from .bank import SketchBank, SpecArrays, bank_boruvka, edge_from_id, edge_id
from .l0 import L0Sampler, L0SamplerSeeds

__all__ = [
    "GraphSketchSpec",
    "VertexSketch",
    "edge_id",
    "edge_from_id",
    "sketch_boruvka",
    "components_from_sketches",
]


@dataclass(frozen=True)
class GraphSketchSpec:
    """Shared seed packages: ``seeds[phase][copy]``."""

    n: int
    seeds: tuple[tuple[L0SamplerSeeds, ...], ...]

    @classmethod
    def generate(
        cls,
        n: int,
        rng: random.Random,
        phases: int | None = None,
        copies: int = 3,
    ) -> "GraphSketchSpec":
        if phases is None:
            phases = max(1, n.bit_length())
        universe = n * n
        seeds = tuple(
            tuple(L0SamplerSeeds.generate(universe, rng) for _ in range(copies))
            for _ in range(phases)
        )
        return cls(n=n, seeds=seeds)

    @property
    def phases(self) -> int:
        return len(self.seeds)

    @property
    def copies(self) -> int:
        return len(self.seeds[0])

    @cached_property
    def arrays(self) -> SpecArrays:
        """The seed package as arrays, built once and shared by every
        :class:`SketchBank` of this spec."""
        return SpecArrays(self)


class VertexSketch:
    """All samplers of one vertex (or one merged supernode).

    A thin compatible wrapper over a single-row :class:`SketchBank`: the
    legacy method API is preserved bit for bit, but the counters live in
    the bank's counter arrays — ``samplers`` is a read-only snapshot
    materialized on access, so mutate through the methods, not through it.
    """

    __slots__ = ("spec", "vertex", "bank")

    def __init__(self, spec: GraphSketchSpec, vertex: int) -> None:
        self.spec = spec
        self.vertex = vertex
        self.bank = SketchBank(spec, (vertex,))

    def add_edge(self, u: int, v: int) -> None:
        """Account for incident edge ``{u, v}`` in this vertex's vector."""
        if self.vertex not in (u, v):
            raise ValueError("edge not incident to this vertex")
        self.bank.add_incident(self.vertex, u, v)

    def merge(self, other: "VertexSketch") -> None:
        self.bank.merge_row_from(
            other.bank, src_vertex=other.vertex, dst_vertex=self.vertex
        )

    def copy(self) -> "VertexSketch":
        clone = VertexSketch.__new__(VertexSketch)
        clone.spec = self.spec
        clone.vertex = self.vertex
        clone.bank = self.bank.copy()
        return clone

    @property
    def samplers(self) -> list[list[L0Sampler]]:
        """Read-only snapshot of the legacy object layout, materialized
        from the bank row (mutations do not write back)."""
        row = self.bank.row(self.vertex)
        s0, s1, s2 = row.s0.tolist(), row.s1.tolist(), row.s2.tolist()
        index = 0
        out: list[list[L0Sampler]] = []
        for phase_seeds in self.spec.seeds:
            phase_list = []
            for seeds in phase_seeds:
                sampler = L0Sampler(seeds)
                for level_sketch in sampler.levels:
                    level_sketch.s0 = s0[index]
                    level_sketch.s1 = s1[index]
                    level_sketch.s2 = s2[index]
                    index += 1
                phase_list.append(sampler)
            out.append(phase_list)
        return out

    def sample_outgoing(self, phase: int) -> tuple[int, int] | None:
        """Sample an edge leaving this (super)vertex using the given phase's
        fresh samplers; tries the independent copies in order."""
        return self.bank.sample_outgoing(self.vertex, phase)

    def word_size(self) -> int:
        return self.bank.word_size()


def sketch_boruvka(
    spec: GraphSketchSpec, sketches: dict[int, VertexSketch]
) -> tuple[UnionFind, list[tuple[int, int]]]:
    """Borůvka over sketches (the large machine's local computation in
    Theorem C.1).  Returns the component structure and the sampled edges
    that realized each union (a spanning forest of the component graph)."""
    bank = SketchBank(spec)
    for vertex, sketch in sketches.items():
        bank.add_vertex(vertex)
        bank.merge_row_from(sketch.bank, src_vertex=sketch.vertex, dst_vertex=vertex)
    return bank_boruvka(bank)


def components_from_sketches(
    spec: GraphSketchSpec, sketches: dict[int, VertexSketch]
) -> list[int]:
    """Canonical component labels (smallest vertex per component)."""
    uf, _ = sketch_boruvka(spec, sketches)
    ordered = sorted(sketches)
    smallest: dict[int, int] = {}
    for v in ordered:
        smallest.setdefault(uf.find(v), v)
    return [smallest[uf.find(v)] for v in ordered]
