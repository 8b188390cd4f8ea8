"""Word-size accounting for the MPC simulator.

The MPC model measures memory and communication in machine *words* of
``Theta(log n)`` bits.  Every payload stored on a machine or sent in a round
is charged according to :func:`word_size`:

* scalars (ints, floats, bools, ``None``) cost one word — vertex ids, edge
  weights and counters all fit in ``O(log n)`` bits by the paper's
  conventions;
* containers cost the sum of their elements (an ``(u, v, w)`` edge costs 3);
* objects may define their own cost by implementing ``word_size()`` —
  sketches and flow labels do this.

Strings are charged one word per 8 characters (a word is at least 64 bits at
any practical ``n``); they only appear in debugging payloads.  ``bytes`` /
``bytearray`` payloads are charged the same way — one word per 8 bytes —
so serialized blobs (sketch dumps, packed records) account like the
equivalent text.

Numeric numpy arrays are charged one word per element — a ``(k, 3)`` int
block costs exactly what the equivalent ``k`` ``(u, v, w)`` tuples cost —
which is what makes the columnar engine's O(1) run sizing
(``block.size``) bit-identical to the object path.  An ``object`` array
— ints past int64, tuples, ``None``, flow labels — costs what its values
cost as a list (:func:`array_words`; per row, :func:`row_words`); this
module is the one place that sizes them.  Other dtypes raise
:class:`TypeError`.

How the simulator computes these charges (the charges themselves do not
depend on it):

* **Level-wise.**  :func:`word_size_many` sizes a batch one nesting level
  at a time.  Each level is split by exact type with C-level
  ``map(type)``/``compress``/``chain`` passes: scalars cost one word each,
  ``bytes``/``bytearray`` their per-8-byte charge, and the elements of
  plain tuples and lists form the next level.  Anything else — subclasses
  (namedtuples, ``IntEnum``), strings, dicts, sets, numpy values, objects
  with their own ``word_size()`` — goes through :func:`word_size`.  Plain
  tuples and lists cannot carry a custom ``word_size`` method, so
  flattening them is exact.  :func:`word_size` hands plain tuples and
  lists (and the contents of dicts and sets) to :func:`word_size_many`, so
  no container is sized by a Python call per element.
* **Size once.**  :meth:`repro.mpc.plan.RoundPlan.run_words` sizes a
  payload object once per plan, even when the plan sends it on many
  routes (a broadcast sends one splitter tuple to every machine).  Every
  run of a plan is sized in the same pass, after the last send, so one
  object has one size throughout the pass and every run carrying it is
  charged that size — exactly what sizing each copy would charge.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from operator import not_
from typing import Any, Iterable

import numpy as np

__all__ = ["array_words", "row_words", "word_size", "word_size_many"]

_SCALARS = (int, float, bool, type(None))

_SCALAR_TYPES = frozenset(_SCALARS)
_NESTED_TYPES = frozenset((tuple, list))
_BYTES_TYPES = frozenset((bytes, bytearray))
#: Exact types a level pass sizes itself; the rest go to :func:`word_size`.
_LEVEL_TYPES = _SCALAR_TYPES | _NESTED_TYPES | _BYTES_TYPES

#: Nesting depth past which a payload is taken to contain itself.
_MAX_DEPTH = 1000


def array_words(array: Any) -> int:
    """Words of a numpy array: one per element of a numeric array, and
    what its values cost as a list (:func:`word_size_many`) for an
    ``object`` array; :class:`TypeError` for any other dtype."""
    kind = array.dtype.kind
    if kind in "iufb":
        return int(array.size)
    if kind == "O":
        return word_size_many(array.ravel().tolist())
    raise TypeError(
        f"cannot compute word size of a {array.dtype} array: it must be "
        "numeric or of dtype object"
    )


def row_words(rows: Any) -> Any:
    """Words of each row of a block (a numpy array, or a payload whose
    ``shape`` leads with its rows) as an int64 vector: its element count,
    or the words of its values for an ``object`` array."""
    count, width = rows.shape[0], math.prod(rows.shape[1:])
    if not (isinstance(rows, np.ndarray) and rows.dtype.kind == "O"):
        return np.full(count, width, dtype=np.int64)
    values = rows.ravel().tolist()
    words = np.ones(len(values), dtype=np.int64)
    scalar = map(_SCALAR_TYPES.__contains__, map(type, values))
    others = np.flatnonzero(~np.fromiter(scalar, bool, len(values))).tolist()
    if others:
        words[others] = [word_size(values[i]) for i in others]
    return words.reshape(count, width).sum(axis=1)


def word_size(obj: Any) -> int:
    """Return the number of machine words needed to represent *obj*."""
    # Plain tuples and lists first: the commonest payloads (datasets,
    # records), and they cannot carry a custom sizer.
    if type(obj) in _NESTED_TYPES:
        return word_size_many(obj)
    if isinstance(obj, _SCALARS):
        return 1
    sizer = getattr(obj, "word_size", None)
    if callable(sizer):
        return int(sizer())
    if isinstance(obj, (str, bytes, bytearray)):
        return 1 + len(obj) // 8
    if isinstance(obj, dict):
        return word_size_many(list(chain.from_iterable(obj.items())))
    if isinstance(obj, (tuple, list, set, frozenset)):
        return word_size_many(obj)
    if isinstance(obj, np.generic):
        # A lone numpy scalar accounts like the Python scalar it wraps.
        if obj.dtype.kind in "iufb":
            return 1
        raise TypeError(f"cannot compute word size of dtype {obj.dtype}")
    if isinstance(obj, np.ndarray):
        return array_words(obj)
    raise TypeError(f"cannot compute word size of {type(obj).__name__}")


def word_size_many(items: Iterable[Any]) -> int:
    """Total word size of a batch; equals ``sum(word_size(i) for i in items)``.

    Sizes the batch level by level (see the module docstring): a level of
    scalars is counted by ``len``, a level of plain tuples and lists is
    flattened by one ``chain`` pass, and a mixed level is split by exact
    type with ``compress``.  Edge lists — the hottest batch shape in the
    repo — cost one type scan, one flatten and one more type scan.
    """
    if isinstance(items, np.ndarray):
        # A numeric block: the leading axis indexes items, every element
        # is one word, so the whole run sizes in O(1).  An *empty* array
        # is zero words whatever its dtype — empty index arrays from the
        # columnar primitives must size cleanly, mirroring the engine's
        # empty-scatter handling (no run, no round).
        if items.size == 0:
            return 0
        return array_words(items)
    level = items if isinstance(items, (list, tuple)) else list(items)
    total = 0
    for _ in range(_MAX_DEPTH):
        kinds = set(map(type, level))
        if kinds <= _SCALAR_TYPES:
            return total + len(level)
        if kinds <= _NESTED_TYPES:
            level = list(chain.from_iterable(level))
            continue
        types = list(map(type, level))
        if kinds & _SCALAR_TYPES:
            total += sum(map(_SCALAR_TYPES.__contains__, types))
        if kinds & _BYTES_TYPES:
            blobs = compress(level, map(_BYTES_TYPES.__contains__, types))
            total += sum(1 + len(blob) // 8 for blob in blobs)
        if not kinds <= _LEVEL_TYPES:
            others = compress(level, map(not_, map(_LEVEL_TYPES.__contains__, types)))
            total += sum(map(word_size, others))
        nested = compress(level, map(_NESTED_TYPES.__contains__, types))
        level = list(chain.from_iterable(nested))
    raise RecursionError(
        f"payload nests deeper than {_MAX_DEPTH} levels (does it contain itself?)"
    )
