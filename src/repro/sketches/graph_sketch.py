"""AGM graph sketches [1]: the edge encoding and the shared seed spec.

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
:class:`~repro.sketches.bank.SketchBank`, and
:func:`~repro.sketches.bank.bank_boruvka` runs Borůvka on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .bank import SpecArrays, edge_from_id, edge_id
from .l0 import L0SamplerSeeds

__all__ = ["GraphSketchSpec", "edge_id", "edge_from_id"]


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

    @staticmethod
    def slot_count(n: int, copies: int = 3) -> int:
        """Counter slots per bank row of the spec :meth:`generate` builds
        for *n* and *copies* (default phases), computed without building
        it: ``phases * copies * levels``."""
        return max(1, n.bit_length()) * copies * L0SamplerSeeds.level_count(n * n)

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
