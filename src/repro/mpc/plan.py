"""RoundPlan — the builder side of the columnar round engine.

A :class:`RoundPlan` describes one synchronous round of traffic as a list
of *entries* in send-call order, kept in flat parallel arrays
(``_run_src``, ``_run_dst``, ``_run_start``, ``_run_len``, ``_run_block``)
over one flat payload store — not as per-item Python lists.  Algorithms
accumulate traffic with :meth:`RoundPlan.send` /
:meth:`RoundPlan.send_batch` / :meth:`RoundPlan.send_indexed` and hand the
plan to :meth:`repro.mpc.cluster.Cluster.execute`, which tallies it in one
pass (:meth:`RoundPlan.volumes`) and fills inboxes from
:meth:`RoundPlan.deliveries`.

The words charged are the sum of the item word sizes, capacity checks
see per-machine totals, a plan always costs exactly one round, and —
since entries are stored in send-call order — each inbox receives its
items exactly as they were sent, even when sources interleave.  A plan
whose batches are all empty moves no data and costs **zero** rounds
(:meth:`Cluster.execute` treats it as a no-op).

Storage, one entry per:

* **object run** (``send`` / ``send_batch``) — a ``[start,
  start+length)`` slice of the flat ``_items`` list.
  Consecutive sends on the same route extend the open run in place, so
  source-major producers still create one run per ``(src, dst)`` route
  and sizing stays one bulk pass per route.
* **block run** (``send_batch`` of a block, see below) — the block
  itself, sized by :func:`~repro.mpc.words.word_size`.
* **scatter** (``send_indexed`` of a numpy array, or
  :meth:`RoundPlan.send_runs` of one whose runs the producer knows) —
  the whole scatter, stored once as a :class:`_Scatter`: its rows
  grouped into per-``(src, dst)`` runs (ascending source, then ascending
  destination, stable within a run) plus run columns.  Each destination
  receives one block: its rows in source order.
* **multicast** (:meth:`RoundPlan.send_multicast`) — one payload on many
  routes, stored once as a :class:`_Multicast` and sized once: each
  route is a one-item run carrying the payload (a broadcast tree level).

Accounting is by columns: :meth:`RoundPlan.run_columns` gives every run
as ``(src, dst, words)`` int64 columns — a scatter's and a multicast's
run columns as they are, the other entries' in one conversion of the
entry lists — and :meth:`RoundPlan.volumes` sums them over machine ids,
two bincounts, into exact per-machine sent and received words.  The
Python work of tallying a scatter or a multicast does not grow with the
runs it holds.

The per-run views (:meth:`runs`, :meth:`run_meta`) expand scatters and
multicasts into their per-``(src, dst)`` runs on demand, for inspection
and the throttle's plan splitter.

What a block is, in one place (:func:`is_block`): a numpy array —
numeric, or ``object``, which costs what its values cost — whose leading
axis indexes items, or an instance of :class:`Block`, a payload that
stores its rows in some other form (the sketch layer's coordinate-form
rows) but charges and splits like a numeric array of ``shape``.  Either
way a block sent whole is one run of ``len(block)`` items and its rows'
words (:func:`~repro.mpc.words.row_words`), is delivered whole, and is
split by row slices ``block[a:b]``.  The plan, the throttle's splitter
and the converge-cast ask :func:`is_block`; none of them looks inside a
:class:`Block`, so the engine never imports the layers that define one.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .errors import ProtocolError
from .words import row_words, word_size, word_size_many

__all__ = ["Block", "RoundPlan", "is_block"]

#: Sums of int words below this are exact in float64.
_FLOAT_EXACT = 2**53


class Block:
    """Base of the blocks that are not numpy arrays (see the module
    docstring).

    A subclass provides ``shape`` — ``(rows, words per row)`` — and row
    slicing: ``block[a:b]`` (a plain slice, step 1) is a block of rows
    ``a`` to ``b``.  A slice owns its data, so a buffer that keeps one
    never pins the block it came from.  The charge is that of a numeric
    array of the same shape: ``size`` words, sized in O(1).
    """

    __slots__ = ()

    shape: tuple[int, ...]

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def word_size(self) -> int:
        return self.size


def is_block(items: Any) -> bool:
    """Whether *items* travels as one block: a numpy array (numeric or
    ``object``, any other dtype refused when queued) or a :class:`Block`."""
    return isinstance(items, (np.ndarray, Block))


def _group_starts(column: Any) -> Any:
    """Start index of every run of equal values in a non-empty 1-D array."""
    change = np.empty(len(column), dtype=bool)
    change[0] = True
    np.not_equal(column[1:], column[:-1], out=change[1:])
    return change.nonzero()[0]


def _stable_order(keys: Any) -> Any:
    """Stable argsort of int keys — a radix sort when they fit 16 bits
    unsigned (ids of up to 65536 machines)."""
    if 0 <= int(keys.min()) and int(keys.max()) < 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


class _Scatter:
    """One array scatter, stored whole: ``rows`` grouped into runs.

    Run ``r`` goes from ``run_src[r]`` to ``run_dst[r]`` and holds rows
    ``bounds[r]:bounds[r + 1]`` of the rows in run order — ``rows`` taken
    in ``order`` (``None`` when they arrived grouped); runs ascend by
    ``(src, dst)``.  A run costs its rows' words: one per element of a
    numeric row, :func:`~repro.mpc.words.row_words` of ``object`` rows.
    Rows are gathered once, into the order their use needs: per
    destination for delivery, per run for the per-run views.
    """

    __slots__ = (
        "rows", "order", "run_src", "run_dst", "bounds", "_run_words", "_by_dst"
    )

    def __init__(
        self, rows: Any, order: Any, run_src: Any, run_dst: Any, bounds: Any
    ) -> None:
        self.rows = rows
        self.order = order
        self.run_src = run_src
        self.run_dst = run_dst
        self.bounds = bounds
        self._run_words: Any = None
        self._by_dst: tuple | None = None

    def run_words(self) -> Any:
        """Every run's words, computed once."""
        if self._run_words is None:
            if self.rows.dtype.kind == "O":
                words = row_words(self.rows)
                if self.order is not None:
                    words = words[self.order]
                self._run_words = np.add.reduceat(words, self.bounds[:-1])
            else:
                self._run_words = self.run_lens() * math.prod(self.rows.shape[1:])
        return self._run_words

    @property
    def words(self) -> int:
        return int(self.run_words().sum())

    def run_lens(self) -> Any:
        return self.bounds[1:] - self.bounds[:-1]

    def _take(self, index: Any) -> Any:
        """The rows at run-order positions *index* (all of them: None)."""
        if index is None:
            index = self.order
        elif self.order is not None:
            index = self.order[index]
        return self.rows if index is None else np.take(self.rows, index, axis=0)

    def runs(self) -> Iterator[tuple[int, int, Any]]:
        bounds = self.bounds.tolist()
        rows = self._take(None)
        for src, dst, start, stop in zip(
            self.run_src.tolist(), self.run_dst.tolist(), bounds, bounds[1:]
        ):
            yield src, dst, rows[start:stop]

    def columns(self) -> tuple[Any, Any, Any]:
        """The run columns as they are: ``(srcs, dsts, words)``."""
        return self.run_src, self.run_dst, self.run_words()

    def deliveries(self) -> Iterator[tuple[int, Any]]:
        """One block per destination (first-appearance order): its rows in
        run order, i.e. the concatenation of the runs it receives."""
        dsts, counts, grouped, starts = self._dst_groups()
        for dst, count, start in zip(dsts, counts, starts):
            yield dst, grouped[start:start + count]

    def _dst_groups(self) -> tuple[list[int], list[int], Any, list[int]]:
        """``(dsts, row counts, rows grouped by dst, group starts)``,
        destinations in first-appearance order; computed once."""
        if self._by_dst is not None:
            return self._by_dst
        run_dst = self.run_dst
        if not np.count_nonzero(run_dst[1:] < run_dst[:-1]):
            # The runs already ascend by destination (a tree level, one
            # destination): the rows are grouped as they are.
            starts = _group_starts(run_dst)
            self._by_dst = (
                run_dst[starts].tolist(),
                np.add.reduceat(self.run_lens(), starts).tolist(),
                self._take(None),
                self.bounds[starts].tolist(),
            )
            return self._by_dst
        by_dst = _stable_order(run_dst)
        sorted_dst = self.run_dst[by_dst]
        sorted_lens = self.run_lens()[by_dst]
        starts = _group_starts(sorted_dst)
        counts = np.add.reduceat(sorted_lens, starts)
        index = None  # runs already in dst order (one source, say)
        if (by_dst[1:] < by_dst[:-1]).any():
            # Gather the runs in (dst, run) order: the rows of the run at
            # position p of `by_dst` land at offset sum(sorted_lens[:p]).
            offsets = np.cumsum(sorted_lens) - sorted_lens
            index = np.repeat(self.bounds[:-1][by_dst] - offsets, sorted_lens)
            index += np.arange(len(index))
        group_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # A stable sort puts each dst's earliest run first, so
        # by_dst[starts] is every dst's first appearance.
        appear = np.argsort(by_dst[starts], kind="stable")
        self._by_dst = (
            sorted_dst[starts][appear].tolist(),
            counts[appear].tolist(),
            self._take(index),
            group_starts[appear].tolist(),
        )
        return self._by_dst


class _Multicast:
    """One payload on many routes, stored whole: route ``r`` carries one
    copy of ``payload`` from ``srcs[r]`` to ``dsts[r]``.

    Each route is a one-item run of ``size`` words; the payload is sized
    once per plan (:meth:`RoundPlan.entry_words`).
    """

    __slots__ = ("payload", "srcs", "dsts", "size")

    def __init__(self, payload: Any, srcs: Any, dsts: Any) -> None:
        self.payload = payload
        self.srcs = srcs
        self.dsts = dsts
        self.size = 0

    def columns(self) -> tuple[Any, Any, Any]:
        return self.srcs, self.dsts, np.full(len(self.srcs), self.size, dtype=np.int64)

    def runs(self) -> Iterator[tuple[int, int, list[Any]]]:
        for src, dst in zip(self.srcs.tolist(), self.dsts.tolist()):
            yield src, dst, [self.payload]

    def deliveries(self) -> Iterator[tuple[int, Any]]:
        payload = self.payload
        for dst in self.dsts.tolist():
            yield dst, payload


#: Entries stored whole, with run columns of their own.
_WHOLE = (_Scatter, _Multicast)


class RoundPlan:
    """Accumulates one round of traffic as columnar entries.

    ``_run_src`` / ``_run_dst`` / ``_run_start`` / ``_run_len`` /
    ``_run_block`` are flat parallel arrays, one entry per object run,
    block run, scatter or multicast, in send-call order — the single
    authoritative store (payloads are never duplicated).  ``_run_block``
    is ``None`` for object runs (whose payloads occupy
    ``_items[start:start+length]``), the block of a block run, or the
    :class:`_Scatter` / :class:`_Multicast` of an entry stored whole
    (whose ``_run_src`` / ``_run_dst`` slots hold ``-1``; ``_whole``
    counts these entries).
    ``_entry_words``, ``_columns``, ``_volumes`` and ``_meta`` cache the
    per-entry word totals, the run columns, the per-machine volumes and
    the per-run lists (invalidated by any later send).
    """

    __slots__ = (
        "note",
        "_run_src",
        "_run_dst",
        "_run_start",
        "_run_len",
        "_run_block",
        "_items",
        "_whole",
        "_entry_words",
        "_columns",
        "_volumes",
        "_meta",
    )

    def __init__(self, note: str = "") -> None:
        self.note = note
        self._run_src: list[int] = []
        self._run_dst: list[int] = []
        self._run_start: list[int] = []
        self._run_len: list[int] = []
        self._run_block: list[Any] = []
        self._items: list[Any] = []
        self._whole = 0  # entries stored whole
        self._entry_words: list[int] | None = None
        self._columns: tuple | None = None
        self._volumes: tuple | None = None
        self._meta: tuple | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def _open(self, src: Any, dst: Any, start: int, count: int, block: Any) -> None:
        self._entry_words = self._columns = self._volumes = self._meta = None
        self._run_src.append(src)
        self._run_dst.append(dst)
        self._run_start.append(start)
        self._run_len.append(count)
        self._run_block.append(block)

    def _append(self, src: int, dst: int, items: Iterable[Any]) -> None:
        """Queue object *items* (copied once into the flat store),
        extending the open run when it is this route's object run.

        Contiguity is an invariant, not a check: object items only ever
        append to the end of ``_items``, and array entries never touch
        it, so whenever the globally-last entry is this route's object run
        its slice necessarily ends exactly where the new items start.
        """
        before = len(self._items)
        self._items.extend(items)
        count = len(self._items) - before
        if not count:
            return
        if (
            self._run_src
            and self._run_block[-1] is None
            and self._run_src[-1] == src
            and self._run_dst[-1] == dst
        ):
            self._entry_words = self._columns = self._volumes = self._meta = None
            self._run_len[-1] += count
        else:
            self._open(src, dst, before, count, None)

    def _append_block(self, src: int, dst: int, block: Any) -> None:
        """Queue a block run (*block* passes :func:`is_block`; its leading
        axis indexes items).

        An empty block is dropped without opening a run, mirroring
        :meth:`_append`: a plan whose scatters are all empty stays empty
        and :meth:`Cluster.execute` charges no round for it.
        """
        count = int(block.shape[0])
        if count:
            if isinstance(block, np.ndarray):
                _check_dtype(block)
            self._open(src, dst, len(self._items), count, block)

    def send(self, src: int, dst: int, *items: Any) -> "RoundPlan":
        """Queue *items* from machine *src* to machine *dst*."""
        if items:
            self._append(src, dst, items)
        return self

    def send_batch(self, src: int, dst: int, items: Iterable[Any]) -> "RoundPlan":
        """Queue a whole batch of items from *src* to *dst*.

        The bulk path of the engine: one run entry and one bulk sizing
        pass regardless of how many items the batch holds.  The input is
        copied once into the flat store (callers may reuse their list).
        A block (:func:`is_block`: a numpy array or a :class:`Block`,
        leading axis indexing items) is kept as a block run directly —
        zero copy, charged the summed word sizes of the equivalent rows
        (in O(1) unless it is an ``object`` array).
        """
        if is_block(items):
            self._append_block(src, dst, items)
        else:
            self._append(src, dst, items)
        return self

    def send_indexed(
        self, src: int | Sequence[int], dsts: Sequence[int], items: Any
    ) -> "RoundPlan":
        """Queue one *scatter* of a numpy array: row ``i`` of *items* goes
        to ``dsts[i]``, from *src* — or from ``src[i]`` when *src* is a
        column of sources.

        The scatter is grouped into per-``(src, dst)`` runs: ascending
        source, then ascending destination, stable within each run — so
        it is exactly the sequence of per-source, per-destination
        :meth:`send_batch` calls it replaces.  The rows are grouped with
        one stable ``argsort`` (skipped when they already arrive grouped)
        and stored whole as one entry: however many runs it holds,
        :meth:`Cluster.execute` tallies and delivers it with vectorized
        passes, one block per destination.  The rows are numeric, or
        ``object`` (Python values of any kind, each run charged the words
        of its rows); anything else raises :class:`TypeError`.
        """
        _check_dtype(items)
        dsts = np.asarray(dsts, dtype=np.int64)
        if len(items) != len(dsts):
            raise ValueError(
                f"scatter shape mismatch: {len(dsts)} destinations for "
                f"{len(items)} items"
            )
        if len(dsts):
            self._append_scatter(src, dsts, items)
        return self

    def _append_scatter(self, src: Any, dsts: Any, rows: Any) -> None:
        """Group a scatter into ``(src, dst)`` runs and store it.

        Runs are found on one route key, ``(src - src_lo) * span + (dst -
        dst_lo)``, sorted only when the rows do not already arrive
        grouped; the rows themselves are gathered later, once.
        """
        srcs = np.asarray(src, dtype=np.int64)
        if srcs.ndim and srcs.shape != dsts.shape:
            raise ValueError(
                f"scatter shape mismatch: {len(srcs)} sources for "
                f"{len(dsts)} destinations"
            )
        src_lo, dst_lo = int(srcs.min()), int(dsts.min())
        span = int(dsts.max()) - dst_lo + 1
        route = (srcs - src_lo) * span + (dsts - dst_lo)
        order = None
        if len(route) > 1 and (route[1:] < route[:-1]).any():
            order = _stable_order(route)
            route = route[order]
        starts = _group_starts(route)
        keys = route[starts]
        bounds = np.concatenate((starts, [len(route)]))
        self._open_scatter(
            _Scatter(rows, order, keys // span + src_lo, keys % span + dst_lo, bounds)
        )

    def send_runs(self, srcs: Any, dsts: Any, counts: Any, rows: Any) -> "RoundPlan":
        """Queue one scatter of a numpy array given by its runs: run ``i``
        carries the next ``counts[i]`` rows from ``srcs[i]`` to
        ``dsts[i]``.

        The runs must ascend by ``(src, dst)``, each with at least one
        row — the scatter :meth:`send_indexed` makes of the same rows, for
        a producer that knows its runs (a converge-cast level), stored
        without grouping the rows again.
        """
        if len(rows):
            _check_dtype(rows)
            bounds = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            self._open_scatter(_Scatter(rows, None, srcs, dsts, bounds))
        return self

    def _open_scatter(self, scatter: "_Scatter") -> None:
        self._open(-1, -1, len(self._items), len(scatter.rows), scatter)
        self._whole += 1

    def send_multicast(self, srcs: Any, dsts: Any, payload: Any) -> "RoundPlan":
        """Queue one *payload* on many routes: a copy goes from ``srcs[i]``
        to ``dsts[i]`` for every ``i``.

        The same traffic as one :meth:`send` per route, in route order —
        the same runs, inboxes and words — stored as one entry: the payload
        is sized once and tallied by columns, so a broadcast level costs
        O(1) plan work however many routes it has.
        """
        srcs = np.asarray(srcs, dtype=np.int64).reshape(-1)
        dsts = np.asarray(dsts, dtype=np.int64).reshape(-1)
        if srcs.shape != dsts.shape:
            raise ValueError(
                f"multicast shape mismatch: {len(srcs)} sources for "
                f"{len(dsts)} destinations"
            )
        if len(dsts):
            multicast = _Multicast(payload, srcs, dsts)
            self._open(-1, -1, len(self._items), len(dsts), multicast)
            self._whole += 1
        return self

    # ------------------------------------------------------------------
    # Accounting and delivery (what Cluster.execute consumes)
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self._run_len

    def entry_words(self) -> list[int]:
        """Per-entry word totals, computed once and cached on the plan.

        Object runs cost one :func:`word_size_many` pass over their flat
        slice; block runs and scatters cost O(1) (every element of a
        numeric dtype is one machine word) unless they hold an ``object``
        array, sized once.  A run of one payload object
        is sized once per plan: a broadcast sends the same object on every
        route, and each further run carrying it reuses the size by object
        identity — so does a multicast, whose routes all carry one payload.
        That is exact because all runs are sized here, in one pass after
        the last send — one object has one size throughout.  Any later
        send invalidates the cache.
        """
        if self._entry_words is None:
            items = self._items
            sized: dict[int, int] = {}  # id(payload) -> words, one-item runs
            words = []
            for block, start, length in zip(
                self._run_block, self._run_start, self._run_len
            ):
                if block is None:
                    if length == 1:
                        payload = items[start]
                        size = sized.get(id(payload))
                        if size is None:
                            size = sized[id(payload)] = word_size(payload)
                        words.append(size)
                    else:
                        words.append(word_size_many(items[start:start + length]))
                elif type(block) is _Scatter:
                    words.append(block.words)
                elif type(block) is _Multicast:
                    payload = block.payload
                    size = sized.get(id(payload))
                    if size is None:
                        size = sized[id(payload)] = word_size(payload)
                    block.size = size
                    words.append(size * length)
                else:
                    words.append(word_size(block))
            self._entry_words = words
        return self._entry_words

    def run_columns(self) -> tuple[Any, Any, Any]:
        """Every run as int64 columns ``(srcs, dsts, words)``, in
        :meth:`runs` order (cached; any later send invalidates).

        Object and block runs contribute one row each; a scatter or a
        multicast contributes its run columns as they are.
        """
        if self._columns is not None:
            return self._columns
        words = self.entry_words()
        blocks = self._run_block
        if blocks and self._whole == len(blocks):
            parts = [block.columns() for block in blocks]
        else:
            srcs, dsts, words = np.array(
                (self._run_src, self._run_dst, words), dtype=np.int64
            )
            parts = []
            start = 0
            if self._whole:
                for index, block in enumerate(blocks):
                    if type(block) in _WHOLE:
                        if index > start:
                            parts.append((
                                srcs[start:index], dsts[start:index], words[start:index]
                            ))
                        parts.append(block.columns())
                        start = index + 1
            if start < len(blocks) or not parts:
                parts.append((srcs[start:], dsts[start:], words[start:]))
        if len(parts) == 1:
            self._columns = parts[0]
        else:
            self._columns = tuple(np.concatenate(column) for column in zip(*parts))
        return self._columns

    def volumes(self, machines: int) -> tuple[Any, int, int]:
        """The round's accounting: ``(volumes, total_words, items)``.

        ``volumes[0]`` / ``volumes[1]`` are the words each machine sends /
        receives, vectors over machine ids ``0 .. machines - 1``: the sums
        of :meth:`run_columns` by source and by destination, as bincounts.
        The sums are exact integers — float64 while the round's words stay
        below 2**53, int64 past that.  A run that names a machine outside
        that range raises :class:`~repro.mpc.errors.ProtocolError`.  Cached
        for the last *machines* asked (any later send invalidates).
        """
        if self._volumes is not None and self._volumes[0] == machines:
            return self._volumes[1]
        total = sum(self.entry_words())
        srcs, dsts, words = self.run_columns()
        try:
            volumes = np.concatenate((
                np.bincount(srcs, words, machines), np.bincount(dsts, words, machines)
            ))
        except ValueError:  # a negative machine id
            volumes = None
        if volumes is None or len(volumes) > 2 * machines:
            unknown = set(srcs.tolist()).union(dsts.tolist()).difference(range(machines))
            raise ProtocolError(
                f"message involves unknown machine(s) {sorted(unknown)}"
            )
        volumes = volumes.reshape(2, machines)
        if total >= _FLOAT_EXACT:
            volumes = np.zeros((2, machines), dtype=np.int64)
            np.add.at(volumes[0], srcs, words)
            np.add.at(volumes[1], dsts, words)
        result = (volumes, total, sum(self._run_len))
        self._volumes = (machines, result)
        return result

    def deliveries(self) -> Iterator[tuple[int, list[Any]]]:
        """Yield ``(dst, items)`` with items in exact send-call order.

        This is the inbox-fill view: it interleaves sources the way the
        sends happened, so per-message and batched producers observe
        identical inbox orderings.  A block run arrives *whole* — one
        inbox entry, the array itself — and a scatter as one block per
        destination, while their logical items stay the rows for all
        accounting.  A multicast hands each of its destinations the
        payload, one inbox item per route.
        """
        inboxes: dict[int, list[Any]] = {}  # first-appearance order
        for index, block in enumerate(self._run_block):
            if block is None:
                start = self._run_start[index]
                inboxes.setdefault(self._run_dst[index], []).extend(
                    self._items[start:start + self._run_len[index]]
                )
            elif type(block) in _WHOLE:
                for dst, rows in block.deliveries():
                    inboxes.setdefault(dst, []).append(rows)
            else:
                inboxes.setdefault(self._run_dst[index], []).append(block)
        yield from inboxes.items()

    # ------------------------------------------------------------------
    # Per-run views
    # ------------------------------------------------------------------
    def runs(self) -> Iterator[tuple[int, int, Any]]:
        """Yield ``(src, dst, items)`` delivery runs in send-call order,
        a scatter's runs in its grouped order and a multicast's in route
        order.  ``items`` is a list for object runs and multicast routes
        and a block otherwise."""
        for index, block in enumerate(self._run_block):
            if type(block) in _WHOLE:
                yield from block.runs()
            elif block is None:
                start = self._run_start[index]
                yield (
                    self._run_src[index],
                    self._run_dst[index],
                    self._items[start:start + self._run_len[index]],
                )
            else:
                yield self._run_src[index], self._run_dst[index], block

    def run_meta(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Per-run columns ``(srcs, dsts, lengths, words)``, parallel
        lists over :meth:`runs` (cached; any later send invalidates)."""
        if self._meta is not None:
            return self._meta
        lens: list[int] = []
        for length, block in zip(self._run_len, self._run_block):
            if type(block) is _Scatter:
                lens.extend(block.run_lens().tolist())
            elif type(block) is _Multicast:
                lens.extend([1] * length)
            else:
                lens.append(length)
        srcs, dsts, words = self.run_columns()
        self._meta = (srcs.tolist(), dsts.tolist(), lens, words.tolist())
        return self._meta

    def run_words(self) -> list[int]:
        """Per-run word totals, parallel to :meth:`runs`."""
        return self.run_meta()[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundPlan(note={self.note!r}, entries={len(self._run_len)}, "
            f"items={sum(self._run_len)})"
        )


def _check_dtype(rows: Any) -> None:
    """Rows queued as an array must be a numpy array, numeric or
    ``object``: no word count exists for any other dtype."""
    if not isinstance(rows, np.ndarray) or rows.dtype.kind not in "iufbO":
        raise TypeError(
            f"cannot send {getattr(rows, 'dtype', type(rows).__name__)} rows: "
            "they must be a numpy array, numeric or of dtype object"
        )
