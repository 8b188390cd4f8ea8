"""ℓ₀-sampling sketches (Jowhari–Sağlam–Tardos style [36]).

An ℓ₀-sampler summarizes an integer vector so that a nonzero coordinate can
be recovered from the summary alone.  Construction: hash every coordinate
to a geometric level (level ``l`` keeps coordinates whose hash has ``>= l``
trailing zero bits) and keep a one-sparse sketch per level.  Some level
contains exactly one surviving nonzero coordinate with constant
probability, and its one-sparse sketch recovers it.

The sampler is linear (mergeable) as long as both copies are built from the
same seeds; :class:`L0SamplerSeeds` packages the shared randomness.  The
paper's Theorem C.1 replaces truly shared randomness with ``O(log n)``-wise
independence disseminated from one machine — ``L0SamplerSeeds`` is exactly
that ``O(polylog n)``-bit seed package.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import PRIME, KWiseHash, trailing_zeros
from .onesparse import OneSparseSketch

__all__ = ["L0SamplerSeeds", "L0Sampler"]

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


class L0Sampler:
    """A mergeable sketch that samples one nonzero coordinate."""

    __slots__ = ("seeds", "levels")

    def __init__(self, seeds: L0SamplerSeeds) -> None:
        self.seeds = seeds
        self.levels = [OneSparseSketch(z) for z in seeds.z_points]

    def update(self, index: int, delta: int) -> None:
        """Add *delta* to coordinate *index*."""
        if delta == 0:
            return
        depth = trailing_zeros(self.seeds.level_hash(index + 1))
        top = min(depth, len(self.levels) - 1)
        for level in range(top + 1):
            self.levels[level].update(index, delta)

    def merge(self, other: "L0Sampler") -> None:
        if other.seeds is not self.seeds and other.seeds != self.seeds:
            raise ValueError("cannot merge samplers with different seeds")
        for mine, theirs in zip(self.levels, other.levels):
            mine.merge(theirs)

    def copy(self) -> "L0Sampler":
        clone = L0Sampler.__new__(L0Sampler)
        clone.seeds = self.seeds
        clone.levels = [level.copy() for level in self.levels]
        return clone

    @property
    def is_zero(self) -> bool:
        return all(level.is_zero for level in self.levels)

    def sample(self) -> tuple[int, int] | None:
        """Recover some nonzero coordinate ``(index, value)``, or ``None``
        if every level fails (happens with constant probability; callers
        keep independent copies to boost success)."""
        for level in reversed(self.levels):
            decoded = level.decode()
            if decoded is not None:
                return decoded
        return None

    def word_size(self) -> int:
        # The seeds are shared; each machine stores them once.  We charge
        # the per-level one-sparse state (z is part of the seeds).
        return 3 * len(self.levels)
