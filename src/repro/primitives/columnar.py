"""Columnar item representation for the MPC primitives.

The round engine stores traffic as per-run blocks (``repro.mpc.plan``);
this module pushes the same representation *up* into the primitives so a
whole pipeline run stays array-native between ``send_indexed`` calls
instead of materializing per-item Python tuples at every step.

Two pieces:

* :class:`EdgeBlock` — a record batch: fixed-width rows held as per-field
  numpy 1-D arrays.  A field is an exact ``int64``, ``float64`` (finite)
  or ``bool`` column when one of those dtypes holds all its values on
  every small machine, and an ``object`` column of the Python values
  otherwise — ints past int64, mixed scalar types, but also tuples,
  ``None``, flow labels or any other value.  A block charges what the
  equivalent tuples charge, its columns sized as arrays
  (:func:`repro.mpc.words.word_size` sizes a record batch by its
  ``columns``): one word per field of a typed column, in O(1), and what
  the values of an ``object`` column cost.  Blocks are sequences of the
  exact row tuples they were built from — iterating one yields the same
  Python tuples the rows were — so downstream consumers cannot tell.

* ingestion/kernels — ``ingest_rows`` turns a list of tuples of one
  width into a block (``None`` for anything else: non-tuples, ragged
  widths); :func:`sharded` reads every small machine's rows of a
  dataset as cluster-wide columns — a sharded dataset's own
  (:meth:`repro.mpc.cluster.Cluster.store`) — so a local step is one
  pass over all machines.
  ``stable_order`` / ``reduce_pairs`` are the array kernels behind sample
  sort and aggregation, and ``transport_dtype`` the one dtype their rows
  travel in.

Sort keys are field specs (column indices) over scalar columns, and
aggregation reduces typed key and value columns with a named reducer
(:func:`reduce_pairs`; :class:`Reducer` and :func:`reduce_rows` over the
transport rows of an array cast).  Neither keeps an object path in
``src/``: the differential property suite compares every sort user with
an object sort, and the aggregate with an object aggregate, both kept in
the tests as oracles.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EdgeBlock",
    "key_fields",
    "object_column",
    "scalar_column",
    "value_column",
    "ingest_rows",
    "ingest_columns",
    "sharded",
    "first_of_runs",
    "rows_at",
    "pack_columns",
    "pack_words",
    "stable_order",
    "transport_dtype",
    "stack_rows",
    "REDUCERS",
    "Reducer",
    "reduce_pairs",
    "reduce_rows",
]

#: Exact int64 range — Python ints outside it ride an ``object`` column.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
#: The Python scalar types a record field may hold.
_SCALARS = frozenset((int, float, bool))


# ----------------------------------------------------------------------
# Sort keys as field specs
# ----------------------------------------------------------------------
def key_fields(key: Any, what: str = "key") -> tuple[int, ...]:
    """Normalize a field-spec key to a tuple of column indices.

    A field spec is an ``int`` or a non-empty tuple of ``int`` — "sort by
    these columns, in this order".  Anything else raises
    :class:`TypeError`, naming the argument as *what*.
    """
    if isinstance(key, int) and not isinstance(key, bool):
        return (key,)
    if (
        isinstance(key, tuple)
        and key
        and all(isinstance(f, int) and not isinstance(f, bool) for f in key)
    ):
        return tuple(key)
    raise TypeError(
        f"{what} must be a column index or a tuple of them, not {key!r}"
    )


# ----------------------------------------------------------------------
# EdgeBlock — a typed record batch
# ----------------------------------------------------------------------
class EdgeBlock:
    """A batch of fixed-width records, stored as per-field columns (typed,
    or ``object`` columns of the Python values).

    Behaves as an immutable sequence of the row tuples it was built from
    (iteration materializes rows lazily, once).
    :func:`repro.mpc.words.word_size` charges it what it charges the
    equivalent tuples, by its ``columns``: in O(1) when every column is
    typed.
    """

    __slots__ = ("columns", "_length", "_rows")

    def __init__(self, columns: Sequence[Any], length: int | None = None) -> None:
        #: Per-field columns: numpy 1-D arrays, all the same length.
        self.columns = tuple(columns)
        if length is None:
            length = len(self.columns[0]) if self.columns else 0
        self._length = int(length)
        self._rows: list[tuple] | None = None

    # -- sequence protocol --------------------------------------------
    def rows(self) -> list[tuple]:
        """The records as Python tuples (materialized once, then cached).

        Columns come back through ``tolist()``, so every field is the
        exact Python value the row was built from (ints, IEEE floats,
        bools; an ``object`` column holds its values as they were) —
        consumers cannot tell a block from the tuples it was built from.
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
        return f"EdgeBlock(rows={self._length}, width={len(self.columns)})"


def object_column(values: Sequence[Any]) -> Any:
    """*values* as a 1-D ``object`` column, one element per value (a list
    of tuples stays 1-D, which ``np.array(values, dtype=object)`` does
    not)."""
    return np.fromiter(values, dtype=object, count=len(values))


def value_column(values: Sequence[Any]) -> Any:
    """*values* as one column: ``int64``, ``float64`` or ``bool`` when
    that dtype holds them all exactly (floats finite, so that sorting
    them orders like Python), an ``object`` column of the values
    otherwise."""
    kinds = set(map(type, values))
    if kinds == {int} and _INT64_MIN <= min(values) and max(values) <= _INT64_MAX:
        return np.array(values, dtype=np.int64)
    if kinds == {float}:
        col = np.array(values, dtype=np.float64)
        if np.isfinite(col).all():
            return col
    if kinds == {bool}:
        return np.array(values, dtype=np.bool_)
    return object_column(values)


def scalar_column(col: Any) -> bool:
    """Whether *col* holds only finite Python ints, floats and bools: a
    typed column, or an ``object`` column of such values."""
    if col.dtype.kind != "O":
        return True
    values = col.tolist()
    return set(map(type, values)) <= _SCALARS and all(
        math.isfinite(v) for v in values if type(v) is float
    )


def ingest_rows(rows: Sequence[Any]) -> EdgeBlock | None:
    """Build an :class:`EdgeBlock` from *rows*, or ``None`` if they are not
    tuples of one width.

    The common case — edge lists, flat tuples of int64 ints — is
    recognized with C-level passes (one flatten, one type scan, one array
    build); per-column dtypes only get inspected on the rarer mixed-type
    batches.
    """
    if not rows:
        return None
    if set(map(type, rows)) != {tuple}:
        return None
    width = len(rows[0])
    if width == 0 or set(map(len, rows)) != {width}:
        return None
    flat = list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    if kinds == {int} and _INT64_MIN <= min(flat) and max(flat) <= _INT64_MAX:
        arr = np.array(flat, dtype=np.int64).reshape(len(rows), width)
        return EdgeBlock([arr[:, j] for j in range(width)], len(rows))
    return EdgeBlock([value_column(flat[j::width]) for j in range(width)], len(rows))


def ingest_columns(datasets: Sequence[Any]) -> tuple[list[Any], list[int]] | None:
    """Every dataset's rows, in order, as one column per field (``[]``
    when there are none), and each dataset's row count; ``None`` when
    the rows are not tuples of one width.

    An :class:`EdgeBlock` keeps its columns; the rows of all other
    datasets are ingested at once (:func:`ingest_rows`).  A field whose
    dtype differs between datasets (int64 on one machine, floats, bools,
    ints past int64 or other values on another) becomes an ``object``
    column of the Python values.
    """
    counts = [len(data) for data in datasets]
    blocks = [data for data in datasets if len(data)]
    lists = [i for i, data in enumerate(blocks) if not isinstance(data, EdgeBlock)]
    if lists:
        ingested = ingest_rows(list(chain.from_iterable(blocks[i] for i in lists)))
        if ingested is None:
            return None
        if len(lists) == len(blocks):
            return list(ingested.columns), counts
        stops = np.cumsum([len(blocks[i]) for i in lists]).tolist()
        for i, lo, hi in zip(lists, [0, *stops], stops):
            blocks[i] = ingested[lo:hi]
    if len({len(block.columns) for block in blocks}) > 1:
        return None
    columns = []
    for field in zip(*(block.columns for block in blocks)):
        if len({col.dtype for col in field}) > 1:
            field = tuple(col.astype(object) for col in field)
        columns.append(np.concatenate(field))
    return columns, counts


def sharded(cluster: Any, name: str, scalars: bool = False) -> tuple[list[Any], Any]:
    """Every small machine's rows of dataset *name* as one column per
    field, in machine order (``[]`` without rows), and each machine's row
    count: a sharded dataset's own columns
    (:meth:`repro.mpc.cluster.Shard.columns`), or any other ingested and
    stored back as one, of the same words.  Raises :class:`TypeError`,
    naming the dataset, for rows that are not tuples of one width — with
    *scalars*, not flat records of finite int, float or bool fields."""
    shard = cluster.shard(name)
    if shard is None:
        datasets = [machine.get(name, []) for machine in cluster.smalls]
        columns, counts = ingest_columns(datasets) or (None, [])
        counts = np.array(counts, dtype=np.int64)
    else:
        columns, counts = shard.columns(), shard.stops - shard.starts
    if columns is None or scalars and not all(
        map(scalar_column, (col for col in columns if col.dtype.kind == "O"))
    ):
        what = "flat records of finite int, float or bool fields" if scalars else "tuples"
        raise TypeError(f"dataset {name!r} holds rows that are not {what} of one width")
    if shard is None and columns:
        cluster.store(name, EdgeBlock(columns), counts)
    return columns, counts


def first_of_runs(columns: Sequence[Any]) -> Any:
    """A mask of the rows that start a run: the first row, and every row
    that differs from the one before it in any of *columns*."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for col in columns:
        first[1:] |= col[1:] != col[:-1]
    return first


def rows_at(columns: Sequence[Any], indices: Sequence[int]) -> list[tuple]:
    """The rows at *indices* of *columns* as tuples of Python scalars,
    without materializing the others."""
    return list(zip(*(col[indices].tolist() for col in columns)))


#: Packed sort keys must fit an int64 exactly.
_PACK_LIMIT = 2**63


def _spans_fit_packing(spans: Sequence[int]) -> bool:
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
    if not _spans_fit_packing(spans):
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
    any other column — floats, ints spanning 2**63 or more, ``object``
    columns (compared as Python values) — is a word of its own,
    unchanged.  Rows compared word by word order exactly as
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
        if run and not _spans_fit_packing([*spans, span]):
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


#: From this many rows on, :func:`stable_order` sorts one packed word by
#: an unstable sort of ``(key, position)`` values: on 100,000 int64 keys
#: that takes 1.3 ms against 6.5 ms for a stable ``argsort``, which stays
#: the faster one below about a thousand rows.
_PACKED_SORT_MIN = 1024


def stable_order(
    block: EdgeBlock, fields: Sequence[int], groups: Any = None
) -> Any:
    """The stable permutation sorting *block* by *fields*.

    Identical to the permutation of ``sorted(rows, key=itemgetter(*fields))``
    — one sort when the key columns pack into one word (:func:`pack_words`;
    from :data:`_PACKED_SORT_MIN` rows on, an unstable sort of the word
    with each row's position packed in, else a stable ``argsort``), a
    stable ``lexsort`` over the words otherwise.
    *groups*, an int column, is a primary key before *fields*: rows are
    sorted within each group and groups ascend, which sorts many
    machines' rows in one pass.  It packs like a key column, so a
    ``group * span + key`` composite that fits int64 is one ``argsort``.
    """
    cols = [block.columns[f] for f in fields]
    words = pack_words(cols if groups is None else [groups, *cols])
    if len(words) > 1:
        return np.lexsort(words[::-1])
    word = words[0]
    n = len(word)
    if n >= _PACKED_SORT_MIN and word.dtype.kind == "i":
        lo = int(word.min())
        if (int(word.max()) - lo + 1) * n <= _INT64_MAX:
            # Every (key, position) value is distinct, so an unstable sort
            # of them is the stable order.
            packed = (word - lo) * n
            packed += np.arange(n)
            return np.sort(packed) % n
    return np.argsort(word, kind="stable")


# ----------------------------------------------------------------------
# Transport rows
# ----------------------------------------------------------------------
#: Ints beyond this magnitude do not survive a float64 transport.
_FLOAT_EXACT = 2**52


def transport_dtype(columns: Sequence[Any]) -> Any:
    """The single dtype *columns* ride the wire in, exact for every value.

    Uniform int/bool columns travel as ``int64``; a float column makes
    the transport ``float64`` while every int column fits its 53-bit
    mantissa; an ``object`` column (of any values), or an int past
    ``2**52`` beside a float, makes it ``object`` (the Python values
    themselves).
    """
    kinds = {col.dtype.kind for col in columns}
    if kinds <= {"i", "b"}:
        return np.int64
    if kinds <= {"i", "b", "f"} and all(
        max(-int(col.min()), int(col.max())) <= _FLOAT_EXACT
        for col in columns
        if col.dtype.kind == "i" and len(col)
    ):
        return np.float64
    return object


def stack_rows(columns: Sequence[Any], dtype: Any) -> Any:
    """*columns* as the columns of one ``(n, len(columns))`` array of
    *dtype* (see :func:`transport_dtype`)."""
    return np.column_stack([col.astype(dtype, copy=False) for col in columns])


# ----------------------------------------------------------------------
# Named reducers (group-by-key aggregation kernels)
# ----------------------------------------------------------------------
#: The named reducers: ``"sum"`` and ``"or"`` combine value columns
#: element-wise, ``"min"`` and ``"max"`` compare whole value rows.
REDUCERS = ("sum", "min", "max", "or")

_ELEMENTWISE = {"sum": np.add, "or": np.bitwise_or}


class Reducer(NamedTuple):
    """A named reducer over the ``(key, value)`` rows of an array cast:
    the first *key_width* columns of a row are its key, the rest its
    value, and *kind* combines the values of rows with equal keys.  The
    rows travel in one transport dtype; column ``j`` is reduced in
    ``dtypes[j]``, the dtype it was built from."""

    kind: str
    key_width: int
    dtypes: tuple


def reduce_pairs(
    keys: Sequence[Any], values: Sequence[Any], kind: str, groups: Any = None
) -> tuple[list[Any], list[Any], Any]:
    """Group the rows of the *values* columns by the rows of the *keys*
    columns and reduce each group with the named reducer *kind*.

    ``"sum"`` and ``"or"`` combine the value columns element-wise;
    ``"min"`` and ``"max"`` keep a group's smallest or largest value row,
    rows compared column by column, as Python compares tuples.  The
    reduction is order-free (int sums are exact under the caller's
    guard; equal value rows are equal), so the tree may combine in any
    grouping.

    Results come back in **first-encounter key order** — the insertion
    order of a dict loop over the pairs — so the order of every pair
    sequence downstream, and with it every payload, is that loop's.

    With *groups* — an int64 holder per pair, each holder's pairs
    contiguous — every holder's pairs reduce apart, all holders in one
    pass: the results keep the holders' order, each holder's keys in
    first-encounter order, exactly as one call per holder would give them
    one after the other.  Returns ``(keys, values, groups)``: the result
    key and value columns and the holder of each result (``None``
    without *groups*).
    """
    n = len(keys[0])
    if n == 0:
        return list(keys), list(values), groups
    lexicographic = kind not in _ELEMENTWISE
    by = [*keys, *values] if lexicographic else list(keys)
    order = stable_order(EdgeBlock(by), range(len(by)), groups=groups)
    change = np.zeros(n - 1, dtype=bool)
    for col in keys if groups is None else [groups, *keys]:
        ranked = col[order]
        change |= ranked[1:] != ranked[:-1]
    starts = np.concatenate(([0], np.flatnonzero(change) + 1))
    if lexicographic:
        # Each group's rows ascend by value: its minimum leads, its
        # maximum closes it.
        first = np.minimum.reduceat(order, starts)
        pick = order[starts if kind == "min" else np.append(starts[1:], n) - 1]
        reduced = [col[pick] for col in values]
    else:
        first = order[starts]
        reduced = [_ELEMENTWISE[kind].reduceat(col[order], starts) for col in values]
    # first holds every group's first-encounter position; the results go
    # out in that order (positions are distinct, so ranking them is a
    # scatter, not a sort), each keyed as its first pair is.
    slot = np.full(n, -1, dtype=np.int64)
    slot[first] = np.arange(len(starts))
    encounter = slot[slot >= 0]
    first = first[encounter]
    return (
        [col[first] for col in keys],
        [col[encounter] for col in reduced],
        None if groups is None else groups[first],
    )


def reduce_rows(rows: Any, reducer: Reducer, groups: Any = None) -> tuple[Any, Any]:
    """:func:`reduce_pairs` over the transport rows of an array cast:
    the reduced rows, in the dtype of *rows*, and the holder of each."""
    kind, width, dtypes = reducer
    columns = [rows[:, j].astype(dtype, copy=False) for j, dtype in enumerate(dtypes)]
    keys, values, owners = reduce_pairs(columns[:width], columns[width:], kind, groups)
    return stack_rows([*keys, *values], rows.dtype), owners
