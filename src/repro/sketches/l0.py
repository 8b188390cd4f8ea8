"""ℓ₀-sampling sketches (Jowhari–Sağlam–Tardos style [36]).

An ℓ₀-sampler summarizes an integer vector so that a nonzero coordinate can
be recovered from the summary alone.  Construction: hash every coordinate
to a geometric level (level ``l`` keeps coordinates whose hash has ``>= l``
trailing zero bits) and keep a one-sparse sketch per level.  Some level
contains exactly one surviving nonzero coordinate with constant
probability, and its one-sparse sketch recovers it.

The sampler is linear (mergeable) as long as both copies are built from the
same seeds; :class:`L0SamplerSeeds` packages the shared randomness, and
the samplers' counters live in the rows of a
:class:`~repro.sketches.bank.SketchBank`.  The
paper's Theorem C.1 replaces truly shared randomness with ``O(log n)``-wise
independence disseminated from one machine — ``L0SamplerSeeds`` is exactly
that ``O(polylog n)``-bit seed package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import PRIME, KWiseHash

__all__ = ["L0SamplerSeeds"]

#: Independence of the level-assignment hash; O(log n)-wise independence
#: suffices for the sampler's guarantees at our simulation sizes.
_HASH_INDEPENDENCE = 8


@dataclass(frozen=True)
class L0SamplerSeeds:
    """Shared randomness for one ℓ₀-sampler (hash + per-level points)."""

    level_hash: KWiseHash
    z_points: tuple[int, ...]

    @classmethod
    def generate(cls, universe: int, rng: random.Random) -> "L0SamplerSeeds":
        return cls(
            level_hash=KWiseHash(_HASH_INDEPENDENCE, rng),
            z_points=tuple(
                rng.randrange(1, PRIME) for _ in range(cls.level_count(universe))
            ),
        )

    @staticmethod
    def level_count(universe: int) -> int:
        """Levels of a sampler over the coordinates ``[0, universe)``."""
        return max(universe, 2).bit_length() + 2

    @property
    def num_levels(self) -> int:
        return len(self.z_points)

    def word_size(self) -> int:
        return len(self.level_hash.coefficients) + len(self.z_points)
