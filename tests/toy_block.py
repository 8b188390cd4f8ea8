"""A block that is not a numpy array, for the engine's block tests.

:class:`PairBlock` keeps ``(key, value)`` rows in a Python list and
implements only what :class:`repro.mpc.plan.Block` asks of a subclass:
``shape`` and row slicing.  It charges what an ``int64`` array of the
same rows charges, so every test can run it against that array.
"""

from __future__ import annotations

from repro.mpc.plan import Block


class PairBlock(Block):
    """``(key, value)`` rows in a list."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = list(rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), 2

    def __getitem__(self, rows: slice) -> "PairBlock":
        return PairBlock(self.rows[rows])
