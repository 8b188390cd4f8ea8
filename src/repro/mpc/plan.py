"""RoundPlan — the builder side of the columnar round engine.

A :class:`RoundPlan` describes one synchronous round of traffic as a list
of *entries* in send-call order, kept in flat parallel arrays
(``_run_src``, ``_run_dst``, ``_run_start``, ``_run_len``, ``_run_block``)
over one flat payload store — not as per-item Python lists.  Algorithms
accumulate traffic with :meth:`RoundPlan.send` /
:meth:`RoundPlan.send_batch` / :meth:`RoundPlan.send_indexed` and hand the
plan to :meth:`repro.mpc.cluster.Cluster.execute`, which tallies it in one
pass (:meth:`RoundPlan.tally`) and fills inboxes from
:meth:`RoundPlan.deliveries`.

The words charged are the sum of the item word sizes, capacity checks
see per-machine totals, a plan always costs exactly one round, and —
since entries are stored in send-call order — each inbox receives its
items exactly as they were sent, even when sources interleave.  A plan
whose batches are all empty moves no data and costs **zero** rounds
(:meth:`Cluster.execute` treats it as a no-op).

Storage, one entry per:

* **object run** (``send`` / ``send_batch`` / list ``send_indexed``) — a
  ``[start, start+length)`` slice of the flat ``_items`` list.
  Consecutive sends on the same route extend the open run in place, so
  source-major producers still create one run per ``(src, dst)`` route
  and sizing stays one bulk pass per route.
* **block run** (``send_batch`` of a block, see below) — the block
  itself, sized O(1) (``block.size``).
* **scatter** (``send_indexed`` of a numeric numpy array) — the whole
  scatter, stored once as a :class:`_Scatter`: its rows grouped into
  per-``(src, dst)`` runs (ascending source, then ascending destination,
  stable within a run) plus run columns.  The scatter is tallied and
  delivered with vectorized passes — O(machines) Python work however
  many runs it holds — and each destination receives one block: its rows
  in source order.

The per-run views (:meth:`runs`, :meth:`run_meta`) expand scatters into
their per-``(src, dst)`` runs on demand, for inspection and the
throttle's plan splitter.

What a block is, in one place (:func:`is_block`): a numeric numpy array
whose leading axis indexes items, or an instance of :class:`Block`, a
payload that stores its rows in some other form (the sketch layer's
coordinate-form rows) but charges and splits like an array of
``shape``.  Either way a block sent whole is one run of ``len(block)``
items and ``block.size`` words, is delivered whole, and is split by row
slices ``block[a:b]``.  The plan, the throttle's splitter and the
converge-cast ask :func:`is_block`; none of them looks inside a
:class:`Block`, so the engine never imports the layers that define
one.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .words import array_words, word_size, word_size_many

__all__ = ["Block", "RoundPlan", "is_block"]


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
    """Whether *items* travels as one block: a numpy array (numeric, or
    refused when queued) or a :class:`Block`."""
    return isinstance(items, (np.ndarray, Block))


def _group_starts(column: Any) -> Any:
    """Start index of every run of equal values in a non-empty 1-D array."""
    return np.flatnonzero(np.concatenate(([True], column[1:] != column[:-1])))


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
    ``(src, dst)``.  Every element of a numeric row is one word, so a row
    costs ``row_words`` words.  Rows are gathered once, into the order
    their use needs: per destination for delivery, per run for the
    per-run views.
    """

    __slots__ = (
        "rows", "order", "run_src", "run_dst", "bounds", "row_words", "_by_dst"
    )

    def __init__(
        self, rows: Any, order: Any, run_src: Any, run_dst: Any, bounds: Any
    ) -> None:
        self.rows = rows
        self.order = order
        self.run_src = run_src
        self.run_dst = run_dst
        self.bounds = bounds
        self.row_words = int(np.prod(rows.shape[1:], dtype=np.int64))
        self._by_dst: tuple | None = None

    @property
    def words(self) -> int:
        return int(self.rows.shape[0]) * self.row_words

    def run_lens(self) -> Any:
        return np.diff(self.bounds)

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

    def sent(self) -> tuple[list[int], list[int]]:
        """Sources in first-appearance order (ascending, as runs are
        grouped by source first) and the words each sends."""
        starts = _group_starts(self.run_src)
        words = np.add.reduceat(self.run_lens(), starts) * self.row_words
        return self.run_src[starts].tolist(), words.tolist()

    def received(self) -> tuple[list[int], list[int]]:
        """Destinations in first-appearance order and the words each gets."""
        dsts, counts, _, _ = self._dst_groups()
        return dsts, [count * self.row_words for count in counts]

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
        by_dst = _stable_order(self.run_dst)
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


class RoundPlan:
    """Accumulates one round of traffic as columnar entries.

    ``_run_src`` / ``_run_dst`` / ``_run_start`` / ``_run_len`` /
    ``_run_block`` are flat parallel arrays, one entry per object run,
    block run or scatter, in send-call order — the single authoritative
    store (payloads are never duplicated).  ``_run_block`` is ``None`` for
    object runs (whose payloads occupy ``_items[start:start+length]``),
    the block of a block run, or the :class:`_Scatter` of a scatter
    (whose ``_run_src`` / ``_run_dst`` slots are ``None``).
    ``_entry_words`` and ``_meta`` cache the per-entry word totals and
    the per-run columns (invalidated by any later send).
    """

    __slots__ = (
        "note",
        "_run_src",
        "_run_dst",
        "_run_start",
        "_run_len",
        "_run_block",
        "_items",
        "_entry_words",
        "_meta",
    )

    def __init__(self, note: str = "") -> None:
        self.note = note
        self._run_src: list[int | None] = []
        self._run_dst: list[int | None] = []
        self._run_start: list[int] = []
        self._run_len: list[int] = []
        self._run_block: list[Any] = []
        self._items: list[Any] = []
        self._entry_words: list[int] | None = None
        self._meta: tuple | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def _open(self, src: Any, dst: Any, start: int, count: int, block: Any) -> None:
        self._entry_words = self._meta = None
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
            self._entry_words = self._meta = None
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
            _check_numeric(block)
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
        zero copy, O(1) sizing (``block.size`` equals the summed word
        sizes of the equivalent rows).
        """
        if is_block(items):
            self._append_block(src, dst, items)
        else:
            self._append(src, dst, items)
        return self

    def send_indexed(
        self, src: int | Sequence[int], dsts: Sequence[int], items: Sequence[Any]
    ) -> "RoundPlan":
        """Queue one *scatter*: item ``i`` goes to ``dsts[i]``, from *src*
        — or, for a numeric numpy block, from ``src[i]`` when *src* is a
        column of sources.

        The scatter is grouped into per-``(src, dst)`` runs: ascending
        source, then ascending destination, stable within each run — so
        it is exactly the sequence of per-source, per-destination
        :meth:`send_batch` calls it replaces.  A list of items is bucketed
        by destination into object runs.  A numeric block is grouped with
        one stable ``argsort`` (skipped when the rows already arrive
        grouped) and stored whole as one entry: however many runs it
        holds, :meth:`Cluster.execute` tallies and delivers it with
        vectorized passes, one block per destination.
        """
        count = items.shape[0] if isinstance(items, np.ndarray) else len(items)
        dst_count = dsts.shape[0] if isinstance(dsts, np.ndarray) else len(dsts)
        if count != dst_count:
            raise ValueError(
                f"scatter shape mismatch: {dst_count} destinations for "
                f"{count} items"
            )
        if not count:
            return self
        if isinstance(items, np.ndarray):
            _check_numeric(items)
            self._append_scatter(src, np.asarray(dsts, dtype=np.int64), items)
            return self
        if np.ndim(src):
            raise TypeError("a column of sources needs a numeric numpy block")
        if isinstance(dsts, np.ndarray):
            dsts = dsts.tolist()
        buckets: dict[int, list[Any]] = {}
        for dst, item in zip(dsts, items):
            bucket = buckets.get(dst)
            if bucket is None:
                buckets[dst] = [item]
            else:
                bucket.append(item)
        for dst in sorted(buckets):
            self._append(src, dst, buckets[dst])
        return self

    def _append_scatter(self, src: Any, dsts: Any, rows: Any) -> None:
        """Group a numeric scatter into ``(src, dst)`` runs and store it.

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
        bounds = np.append(starts, len(route))
        self._open(
            None, None, len(self._items), len(route),
            _Scatter(rows, order, keys // span + src_lo, keys % span + dst_lo, bounds),
        )

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
        numeric dtype is one machine word).  A run of one payload object
        is sized once per plan: a broadcast sends the same object on every
        route, and each further run carrying it reuses the size by object
        identity.  That is exact because all runs are sized here, in one
        pass after the last send — one object has one size throughout.
        Any later send invalidates the cache.
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
                else:
                    words.append(int(block.size))
            self._entry_words = words
        return self._entry_words

    def tally(self) -> tuple[dict[int, int], dict[int, int], int, int]:
        """The round's accounting in one pass: ``(sent, received,
        total_words, items)``.

        ``sent`` / ``received`` map each machine to its words, keyed in
        order of first appearance (as a source, as a destination) over the
        plan's runs — so per-machine checks report in send order.  A
        scatter contributes through vectorized per-machine sums.
        """
        sent: dict[int, int] = {}
        received: dict[int, int] = {}
        words = self.entry_words()
        for src, dst, block, entry in zip(
            self._run_src, self._run_dst, self._run_block, words
        ):
            if type(block) is _Scatter:
                for mid, amount in zip(*block.sent()):
                    sent[mid] = sent.get(mid, 0) + amount
                for mid, amount in zip(*block.received()):
                    received[mid] = received.get(mid, 0) + amount
            else:
                sent[src] = sent.get(src, 0) + entry
                received[dst] = received.get(dst, 0) + entry
        return sent, received, sum(words), sum(self._run_len)

    def deliveries(self) -> Iterator[tuple[int, list[Any]]]:
        """Yield ``(dst, items)`` with items in exact send-call order.

        This is the inbox-fill view: it interleaves sources the way the
        sends happened, so per-message and batched producers observe
        identical inbox orderings.  A block run arrives *whole* — one
        inbox entry, the array itself — and a scatter as one block per
        destination, while their logical items stay the rows for all
        accounting.
        """
        inboxes: dict[int, list[Any]] = {}  # first-appearance order
        for index, block in enumerate(self._run_block):
            if block is None:
                start = self._run_start[index]
                inboxes.setdefault(self._run_dst[index], []).extend(
                    self._items[start:start + self._run_len[index]]
                )
            elif type(block) is _Scatter:
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
        a scatter's runs in its grouped order.  ``items`` is a list for
        object runs and a block otherwise."""
        for index, block in enumerate(self._run_block):
            if type(block) is _Scatter:
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
        srcs: list[int] = []
        dsts: list[int] = []
        lens: list[int] = []
        words: list[int] = []
        for src, dst, length, block, entry in zip(
            self._run_src, self._run_dst, self._run_len, self._run_block,
            self.entry_words(),
        ):
            if type(block) is _Scatter:
                run_lens = block.run_lens()
                srcs.extend(block.run_src.tolist())
                dsts.extend(block.run_dst.tolist())
                lens.extend(run_lens.tolist())
                words.extend((run_lens * block.row_words).tolist())
            else:
                srcs.append(src)
                dsts.append(dst)
                lens.append(length)
                words.append(entry)
        self._meta = (srcs, dsts, lens, words)
        return self._meta

    def run_words(self) -> list[int]:
        """Per-run word totals, parallel to :meth:`runs`."""
        return self.run_meta()[3]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundPlan(note={self.note!r}, entries={len(self._run_len)}, "
            f"items={sum(self._run_len)})"
        )


def _check_numeric(block: Any) -> None:
    """A numpy block must size one word per element: a numeric dtype, or
    an ``object`` array of Python scalars (:func:`~repro.mpc.words.array_words`
    raises otherwise)."""
    if isinstance(block, np.ndarray):
        array_words(block)

