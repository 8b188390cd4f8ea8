"""Recursive oracle for word-size accounting.

This is the per-element recursive sizer that :mod:`repro.mpc.words`
replaced with level-wise passes, kept with the tests as the reference:
every container recurses into every element, one Python call per value.
:func:`word_size` must equal it on every payload it accepts.
"""

from __future__ import annotations

from typing import Any

import numpy as np

_SCALARS = (int, float, bool, type(None))


def reference_word_size(obj: Any) -> int:
    """Number of machine words needed to represent *obj*, by recursion."""
    if isinstance(obj, _SCALARS):
        return 1
    sizer = getattr(obj, "word_size", None)
    if callable(sizer):
        return int(sizer())
    if isinstance(obj, str):
        return 1 + len(obj) // 8
    if isinstance(obj, (bytes, bytearray)):
        return 1 + len(obj) // 8
    if isinstance(obj, dict):
        return sum(
            reference_word_size(k) + reference_word_size(v) for k, v in obj.items()
        )
    if isinstance(obj, (tuple, list, set, frozenset)):
        return sum(reference_word_size(item) for item in obj)
    if isinstance(obj, np.generic):
        if obj.dtype.kind in "iufb":
            return 1
        raise TypeError(f"cannot compute word size of dtype {obj.dtype}")
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iufb" or (
            obj.dtype.kind == "O"
            and all(type(x) in (int, float, bool) for x in obj.flat)
        ):
            return int(obj.size)
        raise TypeError(f"cannot compute word size of dtype {obj.dtype}")
    raise TypeError(f"cannot compute word size of {type(obj).__name__}")
