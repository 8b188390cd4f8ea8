"""Columnar item representation for the MPC primitives.

The round engine went columnar in PR 5 (``repro.mpc.plan`` stores traffic
as per-run blocks); this module pushes the same representation *up* into
the eight primitives so a whole pipeline run can stay array-native
between ``send_indexed`` calls instead of materializing per-item Python
tuples at every step.

Two pieces:

* :class:`EdgeBlock` — a typed record batch: fixed-width rows held as
  per-field numpy 1-D arrays.  A block knows its word count in O(1)
  (``len * width`` — every field of a qualifying record is one machine
  word), which is what lets ``Machine.put`` and the converge-cast scratch
  charges account a 100k-row dataset without iterating it: the block
  implements the ``word_size()`` duck-type hook of
  :func:`repro.mpc.words.word_size`.  Blocks are sequences of the exact
  row tuples they were built from — iterating one yields the same Python
  tuples the object path would have produced, so downstream consumers
  are path-agnostic.

* ingestion/kernels — ``ingest_rows`` qualifies a row list for columnar
  treatment (uniform width, per-field scalar types that round-trip
  exactly through numpy: ``int`` within int64, finite ``float``,
  ``bool``); ``stable_order`` / ``reduce_pairs`` are the array kernels
  behind sample sort and aggregation; ``concat_columns`` /
  ``split_columns`` turn every small machine's blocks into one array per
  field and back, so a local step runs as one pass over all machines.

Each primitive picks its path from its input alone: it takes the
columnar path when every machine's rows qualify (``ensure_block`` for
sort, arrange and join, ``ingest_pairs`` for aggregate), and the object
path otherwise — callable keys, custom combines, string keys, nested
tuples.  Ledgers and outputs are bit-identical across paths *by
construction*: the columnar paths consume the shared RNG identically,
build the same plan runs (same (src, dst) sets, same lengths, same word
totals — blocks size as ``rows * width``, exactly the sum of the row
word sizes) and re-emit results in the same order the object path would
(stable sorts, first-encounter aggregation order).  A differential
property suite pins this, reaching the object path by making those two
entry points decline.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "EdgeBlock",
    "key_fields",
    "as_callable",
    "ingest_rows",
    "ensure_block",
    "uniform_blocks",
    "concat_columns",
    "first_of_runs",
    "split_columns",
    "pack_columns",
    "pack_words",
    "stable_order",
    "spans_fit_packing",
    "reduce_pairs",
    "ingest_pairs",
    "REDUCERS",
]

#: Exact int64 range — Python ints outside it do not round-trip through a
#: numpy column, so such rows stay on the object path.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


# ----------------------------------------------------------------------
# Sort keys as field specs
# ----------------------------------------------------------------------
def key_fields(key: Any) -> tuple[int, ...] | None:
    """Normalize a field-spec sort key to a tuple of column indices.

    A field spec is an ``int`` or a tuple of ``int`` — "sort by these
    columns, in this order".  Callables (the pre-columnar idiom) return
    ``None``: they cannot be vectorized, so they keep the object path.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return (key,)
    if (
        isinstance(key, tuple)
        and key
        and all(isinstance(f, int) and not isinstance(f, bool) for f in key)
    ):
        return tuple(key)
    return None


def as_callable(key: Any) -> Callable[[Any], Any]:
    """The per-item form of a sort key (field specs become itemgetters).

    A single-field spec still keys by a 1-tuple, so the object and
    columnar paths order ties identically regardless of the spec shape.
    """
    fields = key_fields(key)
    if fields is None:
        return key
    if len(fields) == 1:
        field = fields[0]
        return lambda item: (item[field],)
    return itemgetter(*fields)


# ----------------------------------------------------------------------
# EdgeBlock — a typed record batch
# ----------------------------------------------------------------------
class EdgeBlock:
    """A batch of fixed-width scalar records, stored as per-field columns.

    Behaves as an immutable sequence of the row tuples it was built from
    (iteration materializes rows lazily, once).  ``word_size()`` is the
    O(1) accounting hook: ``rows * width``, exactly what
    :func:`repro.mpc.words.word_size` charges for the equivalent tuples.
    """

    __slots__ = ("columns", "_length", "_rows")

    def __init__(self, columns: Sequence[Any], length: int | None = None) -> None:
        #: Per-field columns: numpy 1-D arrays, all the same length.
        self.columns = tuple(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self._length = int(length)
        self._rows: list[tuple] | None = None

    # -- accounting ----------------------------------------------------
    @property
    def width(self) -> int:
        return len(self.columns)

    def word_size(self) -> int:
        """Total words, in O(1) — every field of every row is one word."""
        return self._length * len(self.columns)

    # -- sequence protocol --------------------------------------------
    def rows(self) -> list[tuple]:
        """The records as Python tuples (materialized once, then cached).

        Numpy columns come back through ``tolist()``, so every scalar is
        the exact Python value the row was built from (int64 ints, IEEE
        floats, bools) — consumers cannot tell which path produced the
        dataset.
        """
        if self._rows is None:
            self._rows = list(zip(*(col.tolist() for col in self.columns)))
        return self._rows

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows())

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return EdgeBlock([col[index] for col in self.columns])
        return self.rows()[index]

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, EdgeBlock):
            return self.rows() == other.rows()
        if isinstance(other, list):
            return self.rows() == other
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeBlock(rows={self._length}, width={self.width})"


def _column_dtype(values: list) -> Any:
    """The numpy dtype a column of Python scalars round-trips through,
    or ``None`` if it does not round-trip exactly."""
    kinds = set(map(type, values))
    if kinds == {int}:
        if all(_INT64_MIN <= v <= _INT64_MAX for v in (min(values), max(values))):
            return np.int64
        return None
    if kinds == {float}:
        return np.float64
    if kinds == {bool}:
        return np.bool_
    return None


def ingest_rows(rows: Sequence[Any]) -> EdgeBlock | None:
    """Build an :class:`EdgeBlock` from *rows*, or ``None`` if they do not
    qualify (non-tuples, ragged widths, fields that would not round-trip
    exactly through a typed column).

    The common case — edge lists, flat tuples of ints — is recognized
    with C-level passes (one flatten, one type scan, one array build);
    per-column dtypes only get inspected on the rarer mixed-type batches.
    """
    if not rows:
        return None
    if isinstance(rows, EdgeBlock):
        return rows
    if set(map(type, rows)) != {tuple}:
        return None
    width = len(rows[0])
    if width == 0:
        return None
    flat = list(chain.from_iterable(rows))
    if len(flat) != width * len(rows):
        return None
    kinds = set(map(type, flat))
    if kinds == {int}:
        lo, hi = min(flat), max(flat)
        if lo < _INT64_MIN or hi > _INT64_MAX:
            return None
        arr = np.array(flat, dtype=np.int64).reshape(len(rows), width)
        return EdgeBlock([arr[:, j] for j in range(width)], len(rows))
    if not kinds <= {int, float, bool}:
        return None
    columns = []
    for j in range(width):
        values = flat[j::width]
        dtype = _column_dtype(values)
        if dtype is None:
            return None
        col = np.array(values, dtype=dtype)
        if dtype is np.float64 and not np.isfinite(col).all():
            # NaN/inf break the ordering equivalence with Python sorts.
            return None
        columns.append(col)
    return EdgeBlock(columns, len(rows))


def value_column(values: list) -> Any | None:
    """A list of scalars as one exact typed column, or ``None`` if the
    values do not round-trip (mixed types, NaN/inf, out-of-range ints)."""
    if not values:
        return None
    dtype = _column_dtype(values)
    if dtype is None:
        return None
    col = np.array(values, dtype=dtype)
    if dtype is np.float64 and not np.isfinite(col).all():
        return None
    return col


def ensure_block(data: Any) -> EdgeBlock | None:
    """*data* as an :class:`EdgeBlock` (lists are ingested), else ``None``."""
    if isinstance(data, EdgeBlock):
        return data
    if isinstance(data, list):
        return ingest_rows(data)
    return None


def uniform_blocks(datasets: Iterable[tuple[int, Any]]) -> dict[int, EdgeBlock] | None:
    """Every non-empty ``(machine_id, data)`` dataset as an
    :class:`EdgeBlock`, or ``None`` unless all of them qualify with one
    width and one dtype per column (all-empty input gives ``{}``).

    All or nothing, because sorted runs and boundary records mix rows from
    different machines.
    """
    blocks: dict[int, EdgeBlock] = {}
    dtypes: tuple | None = None
    for machine_id, data in datasets:
        if not len(data):
            continue
        block = ensure_block(data)
        if block is None:
            return None
        block_dtypes = tuple(col.dtype for col in block.columns)
        if dtypes is None:
            dtypes = block_dtypes
        elif block_dtypes != dtypes:
            return None
        blocks[machine_id] = block
    return blocks


def concat_columns(datasets: Iterable[Any]) -> tuple[list[Any], list[int]] | None:
    """Every dataset's rows, in order, as one array per field, and each
    dataset's row count — the cluster-wide view of per-machine blocks.

    ``None`` unless every non-empty dataset already is an
    :class:`EdgeBlock` of one width and one dtype per column: nothing is
    ingested, so tuple rows keep their own path.  All-empty input gives
    ``([], counts)``.
    """
    blocks: list[EdgeBlock] = []
    counts: list[int] = []
    dtypes: tuple | None = None
    for data in datasets:
        counts.append(len(data))
        if not len(data):
            continue
        if not isinstance(data, EdgeBlock):
            return None
        block_dtypes = tuple(col.dtype for col in data.columns)
        if dtypes is None:
            dtypes = block_dtypes
        elif block_dtypes != dtypes:
            return None
        blocks.append(data)
    if not blocks:
        return [], counts
    return [
        np.concatenate([block.columns[j] for block in blocks])
        for j in range(len(dtypes))
    ], counts


def first_of_runs(columns: Sequence[Any]) -> Any:
    """A mask of the rows that start a run: the first row, and every row
    that differs from the one before it in any of *columns*."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for col in columns:
        first[1:] |= col[1:] != col[:-1]
    return first


def split_columns(columns: Sequence[Any], counts: Iterable[int]) -> list[Any]:
    """Cut cluster-wide columns into consecutive datasets of *counts*
    rows (the inverse of :func:`concat_columns`): an :class:`EdgeBlock`
    of column slices for each non-zero count, ``[]`` for each zero.

    The slices are views, so the columns must never be written in place.
    """
    datasets: list[Any] = []
    start = 0
    for count in counts:
        if count:
            datasets.append(
                EdgeBlock([col[start:start + count] for col in columns], count)
            )
            start += count
        else:
            datasets.append([])
    return datasets


#: Packed sort keys must fit an int64 exactly.
_PACK_LIMIT = 2**63


def spans_fit_packing(spans: Sequence[int]) -> bool:
    """Whether per-field value spans multiply into an int64 composite."""
    product = 1
    for span in spans:
        product *= span
        if product >= _PACK_LIMIT:
            return False
    return True


def pack_columns(
    cols: Sequence[Any], extra_keys: Any = ()
) -> tuple[Any, Any] | None:
    """Pack integer key columns into one int64 composite, order-preserving.

    Returns ``(packed_rows, packed_extras)`` — int64 arrays whose numeric
    order equals the lexicographic order of the key tuples — or ``None``
    when a column is not int/bool or the value spans do not fit 63 bits.
    *extra_keys* (e.g. sort splitters) are packed with the same offsets,
    so cross comparisons between rows and extras stay exact; their values
    widen the per-field spans as needed.  They are key tuples or, to skip
    the conversion, one int64 array with a row per key (sample sort
    builds its splitters into one such array per sort).

    Sorting one packed column (a single stable ``argsort``) is ~2-3x
    faster than a multi-key ``lexsort`` and bucket assignment against
    packed splitters becomes a single vectorized ``searchsorted``.
    """
    if any(col.dtype.kind not in "ib" for col in cols):
        return None
    extras = np.asarray(extra_keys, dtype=np.int64).reshape(
        len(extra_keys), len(cols)
    )
    mins, spans = [], []
    for j, col in enumerate(cols):
        lo = int(col.min()) if len(col) else 0
        hi = int(col.max()) if len(col) else 0
        if len(extras):
            lo = min(lo, int(extras[:, j].min()))
            hi = max(hi, int(extras[:, j].max()))
        mins.append(lo)
        spans.append(hi - lo + 1)
    if not spans_fit_packing(spans):
        return None
    packed = np.zeros(len(cols[0]) if cols else 0, dtype=np.int64)
    packed_extras = np.zeros(len(extras), dtype=np.int64)
    for j, col in enumerate(cols):
        packed = packed * spans[j] + (col.astype(np.int64, copy=False) - mins[j])
        if len(extras):
            packed_extras = packed_extras * spans[j] + (extras[:, j] - mins[j])
    return packed, packed_extras


def pack_words(cols: Sequence[Any]) -> list[Any]:
    """Key columns as the fewest order-preserving key words.

    Runs of consecutive int/bool columns share one int64 word
    (:func:`pack_columns`) while the product of their value spans fits;
    any other column — floats, or ints spanning 2**63 or more — is a word
    of its own, unchanged.  Rows compared word by word order exactly as
    compared column by column, so a ``lexsort`` over the words is the
    ``lexsort`` over the columns with fewer keys.
    """
    words: list[Any] = []
    run: list[Any] = []
    spans: list[int] = []
    for col in cols:
        span = _PACK_LIMIT
        if col.dtype.kind in "ib" and len(col):
            span = int(col.max()) - int(col.min()) + 1
        if run and not spans_fit_packing([*spans, span]):
            words.append(pack_columns(run)[0])
            run, spans = [], []
        if span < _PACK_LIMIT:
            run.append(col)
            spans.append(span)
        else:
            words.append(col)
    if run:
        words.append(pack_columns(run)[0])
    return words


def stable_order(
    block: EdgeBlock, fields: Sequence[int], groups: Any = None
) -> Any:
    """The stable permutation sorting *block* by *fields*.

    Identical to the permutation of ``sorted(rows, key=itemgetter(*fields))``
    — one stable ``argsort`` when the key columns pack into one word
    (:func:`pack_words`), a stable ``lexsort`` over the words otherwise.
    *groups*, an int column, is a primary key before *fields*: rows are
    sorted within each group and groups ascend, which sorts many
    machines' rows in one pass.  It packs like a key column, so a
    ``group * span + key`` composite that fits int64 is one ``argsort``.
    """
    cols = [block.columns[f] for f in fields]
    words = pack_words(cols if groups is None else [groups, *cols])
    if len(words) == 1:
        return np.argsort(words[0], kind="stable")
    return np.lexsort(words[::-1])


# ----------------------------------------------------------------------
# Named reducers (group-by-key aggregation kernels)
# ----------------------------------------------------------------------
def _or(a: Any, b: Any) -> Any:
    return a | b


#: Named binary reducers the columnar aggregation kernel understands.
#: The callables are the object-path semantics; ``builtins.min``/``max``
#: passed as a combine function are recognized as their named forms.
REDUCERS: dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "min": min,
    "max": max,
    "or": _or,
}

_REDUCER_UFUNCS = {"sum": "add", "min": "minimum", "max": "maximum", "or": "bitwise_or"}

#: Keys above this magnitude do not survive the float64 transport used
#: when values are floats (53-bit mantissa, with margin).
_FLOAT_SAFE_KEY = 2**52
#: |value| * count bound that keeps int64 sums exact with margin to spare.
_SUM_SAFE = 2**61


def resolve_reducer(combine: Any) -> str | None:
    """The named form of *combine*, or ``None`` for custom callables."""
    if isinstance(combine, str):
        if combine not in REDUCERS:
            raise ValueError(
                f"unknown reducer {combine!r} (expected one of {sorted(REDUCERS)})"
            )
        return combine
    if combine is min:
        return "min"
    if combine is max:
        return "max"
    return None


def reducer_callable(combine: Any) -> Callable[[Any, Any], Any]:
    """The binary-callable form of *combine* (the object path)."""
    if isinstance(combine, str):
        return REDUCERS[combine]
    return combine


def ingest_pairs(pairs: Sequence[Any]) -> tuple[Any, Any] | None:
    """Qualify ``(key, value)`` pairs for the array aggregation kernel.

    Returns ``(keys, values)`` columns or ``None``.  Keys must be ints
    (they ride the shared transport column, so they must survive float64
    when the values are floats); values must be a single exact scalar
    type.  Reducer compatibility (float sums, overflow headroom) is the
    caller's global check — see :func:`pairs_fit_kind`.
    """
    if isinstance(pairs, EdgeBlock):
        if pairs.width != 2:
            return None
        keys, values = pairs.columns
        if keys.dtype.kind != "i":
            return None
        return keys, values
    if not isinstance(pairs, list) or not pairs:
        return None
    if set(map(type, pairs)) != {tuple}:
        return None
    flat = list(chain.from_iterable(pairs))
    if len(flat) != 2 * len(pairs):
        return None
    key_list = flat[0::2]
    if set(map(type, key_list)) != {int}:
        return None
    if min(key_list) < _INT64_MIN or max(key_list) > _INT64_MAX:
        return None
    value_list = flat[1::2]
    value_dtype = _column_dtype(value_list)
    if value_dtype is None:
        return None
    keys = np.array(key_list, dtype=np.int64)
    values = np.array(value_list, dtype=value_dtype)
    if value_dtype is np.float64 and not np.isfinite(values).all():
        return None
    return keys, values


def pairs_fit_kind(columns: Sequence[tuple[Any, Any]], kind: str) -> bool:
    """Whether reducer *kind* stays exact over all the ingested columns.

    This is the cross-machine check: int sums accumulate across converge
    levels, so the overflow bound must hold for the *global* multiset of
    values, not per machine.
    """
    value_kinds = {values.dtype.kind for _, values in columns}
    if len(value_kinds) > 1:
        # Mixed value types across machines would merge into one column
        # and lose the original Python types.
        return False
    if "f" in value_kinds:
        if kind in ("sum", "or"):
            # Float sums are order-sensitive; bitwise-or is undefined.
            return False
        for keys, _ in columns:
            if len(keys) and int(np.abs(keys).max()) > _FLOAT_SAFE_KEY:
                # Keys share the float64 transport column with the values.
                return False
        return True
    if "b" in value_kinds and kind == "sum":
        # bool + bool is int on the object path but bool under numpy.
        return False
    if kind == "sum":
        bound = sum(
            int(np.abs(values).max()) * len(values)
            for _, values in columns
            if len(values)
        )
        if bound > _SUM_SAFE:
            return False
    return True


def reduce_pairs(keys: Any, values: Any, kind: str) -> tuple[Any, Any]:
    """Group *values* by *keys* and reduce each group with *kind*.

    Results come back in **first-encounter key order** — the insertion
    order of the object path's dict loop — so the two paths emit the same
    pair sequence, which keeps every downstream word count and payload
    identical.  Within a group the reduction is order-free for the named
    reducers (int sums are exact under the ingest guard; min/max/or are
    associative and commutative on exact scalars).
    """
    n = len(keys)
    if n == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    starts_tail = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(([0], starts_tail))
    ufunc = getattr(np, _REDUCER_UFUNCS[kind])
    reduced = ufunc.reduceat(sorted_values, starts)
    unique_keys = sorted_keys[starts]
    # Stable argsort puts each group's earliest original index first, so
    # order[starts] is every key's first-encounter position.
    encounter = np.argsort(order[starts], kind="stable")
    return unique_keys[encounter], reduced[encounter]
