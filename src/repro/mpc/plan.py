"""RoundPlan — the builder side of the columnar round engine.

A :class:`RoundPlan` describes one synchronous round of traffic as a set of
per-``(src, dst)`` *runs* kept in flat parallel arrays (``_run_src``,
``_run_dst``, ``_run_start``, ``_run_len``) over one flat payload store —
not as per-item Python lists.  Algorithms accumulate traffic with
:meth:`RoundPlan.send` / :meth:`RoundPlan.send_batch` /
:meth:`RoundPlan.send_indexed` and hand the plan to
:meth:`repro.mpc.cluster.Cluster.execute`, which sizes every run once
(:func:`repro.mpc.words.word_size_many`, cached on the plan by
:meth:`run_words`) and routes the whole plan in a single grouped pass.

Semantics are identical to the legacy per-message
:meth:`~repro.mpc.cluster.Cluster.exchange` path: the words charged are the
sum of the item word sizes, capacity checks see per-machine totals, a plan
always costs exactly one round, and — since runs are stored in send-call
order — each inbox receives its items exactly as they were sent, even when
sources interleave.  A plan whose batches are all empty moves no data and
costs **zero** rounds (:meth:`Cluster.execute` treats it as a no-op).

Storage:

* Object traffic (``send`` / ``send_batch``) lives once in the flat
  ``_items`` list; a run is a ``[start, start+length)`` slice of it.
  Consecutive sends on the same route extend the open run in place, so
  source-major producers (every bulk producer in this repo) still create
  one run per ``(src, dst)`` route and sizing stays one bulk pass per
  route.
* Columnar traffic (:meth:`send_indexed` with numpy columns under the
  numpy backend) is stored as per-run array *blocks* — zero-copy slices
  of the scatter, sized O(1) per run (``block.size``).

The aggregated :meth:`batches` view is materialized on demand for
inspection and the legacy flatteners.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .backend import get_engine_backend
from .words import word_size, word_size_many

__all__ = ["Message", "RoundPlan"]

#: (source machine id, destination machine id, payload) — the per-item
#: message form; re-exported by :mod:`repro.mpc.cluster`.
Message = tuple[int, int, Any]


class RoundPlan:
    """Accumulates one round of traffic as columnar per-``(src, dst)`` runs.

    ``_run_src`` / ``_run_dst`` / ``_run_start`` / ``_run_len`` are flat
    parallel arrays, one entry per run, in send-call order — the single
    authoritative store (payloads are never duplicated).  ``_run_block``
    is parallel too: ``None`` for object runs (whose payloads occupy
    ``_items[start:start+length]``) or the numpy block of a columnar run.
    ``_routes`` tracks the distinct ``(src, dst)`` pairs in first-send
    order with their queued item counts, so route-level views need no
    scan.  ``_run_words`` caches the per-run word totals computed by
    :meth:`run_words` (invalidated by any later send).
    """

    __slots__ = (
        "note",
        "backend",
        "_run_src",
        "_run_dst",
        "_run_start",
        "_run_len",
        "_run_block",
        "_items",
        "_routes",
        "_run_words",
    )

    def __init__(self, note: str = "", backend: object = None) -> None:
        self.note = note
        #: Engine backend used to group :meth:`send_indexed` scatters —
        #: resolved lazily so ``RoundPlan()`` stays dependency-free.
        self.backend = backend
        self._run_src: list[int] = []
        self._run_dst: list[int] = []
        self._run_start: list[int] = []
        self._run_len: list[int] = []
        self._run_block: list[Any] = []
        self._items: list[Any] = []
        self._routes: dict[tuple[int, int], int] = {}
        self._run_words: list[int] | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def _note_object_run(self, src: int, dst: int, start: int, count: int) -> None:
        """Account a fresh object segment ``[start, start+count)`` of the
        flat store, extending the open run when contiguous.

        Contiguity is an invariant, not a check: object items only ever
        append to the end of ``_items``, and array blocks never touch it,
        so whenever the globally-last run is this route's object run its
        slice necessarily ends exactly at *start*.
        """
        self._run_words = None
        if (
            self._run_src
            and self._run_src[-1] == src
            and self._run_dst[-1] == dst
            and self._run_block[-1] is None
        ):
            self._run_len[-1] += count
        else:
            self._run_src.append(src)
            self._run_dst.append(dst)
            self._run_start.append(start)
            self._run_len.append(count)
            self._run_block.append(None)
        route = (src, dst)
        self._routes[route] = self._routes.get(route, 0) + count

    def _append(self, src: int, dst: int, items: Iterable[Any]) -> None:
        """Queue object *items* (copied once into the flat store)."""
        before = len(self._items)
        self._items.extend(items)
        count = len(self._items) - before
        if count:
            self._note_object_run(src, dst, before, count)

    def _append_block(self, src: int, dst: int, block: Any) -> None:
        """Queue a columnar run (*block* is a numeric numpy array whose
        leading axis indexes items).

        An empty block is dropped without opening a run, mirroring
        :meth:`_append`: a plan whose scatters are all empty stays empty
        and :meth:`Cluster.execute` charges no round for it.
        """
        count = int(block.shape[0])
        if count == 0:
            return
        if block.dtype.kind not in "iufb":
            raise TypeError(
                f"columnar blocks must have a numeric dtype, got {block.dtype}"
            )
        self._run_words = None
        self._run_src.append(src)
        self._run_dst.append(dst)
        self._run_start.append(len(self._items))
        self._run_len.append(count)
        self._run_block.append(block)
        route = (src, dst)
        self._routes[route] = self._routes.get(route, 0) + count

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

        A numpy batch (leading axis indexing items) is kept as a columnar
        run directly — zero copy, O(1) sizing — regardless of the engine
        backend: the columnar primitives pre-group their routing into
        per-destination blocks, and a pre-grouped block needs no backend
        pass.  Accounting is identical either way (``block.size`` equals
        the summed word sizes of the equivalent rows).
        """
        if isinstance(items, np.ndarray):
            self._append_block(src, dst, items)
        else:
            self._append(src, dst, items)
        return self

    def send_indexed(
        self, src: int, dsts: Sequence[int], items: Sequence[Any]
    ) -> "RoundPlan":
        """Queue one *scatter*: item ``i`` goes from *src* to ``dsts[i]``.

        The columnar fast path: the destination column is grouped into
        per-``(src, dst)`` runs by the engine backend (ascending
        destination, stable within each destination) in one pass — no
        caller-side bucketing loop.  With the numpy backend and numpy
        columns, grouping is a single stable ``argsort`` and the payload
        stays an array block end to end (delivered whole, sized O(1)).
        With lists (or the pure backend), items are delivered
        individually, exactly like :meth:`send_batch` traffic.
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
        # Resolve lazily, then pin the instance on the plan so repeated
        # scatters (one per source in the routing primitives) skip the
        # env lookup and group on one backend for the whole plan.
        backend = self.backend = get_engine_backend(self.backend)
        for dst, block in backend.group_indexed(dsts, items):
            if isinstance(block, np.ndarray):
                self._append_block(src, dst, block)
            else:
                self._append(src, dst, block)
        return self

    def extend(self, messages: Iterable[Message]) -> "RoundPlan":
        """Absorb legacy ``(src, dst, payload)`` message tuples."""
        for src, dst, payload in messages:
            self._append(src, dst, (payload,))
        return self

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self._routes

    def _run_items(self, index: int) -> Any:
        """Payloads of run *index*: a list slice or the array block."""
        block = self._run_block[index]
        if block is not None:
            return block
        start = self._run_start[index]
        return self._items[start:start + self._run_len[index]]

    def runs(self) -> Iterator[tuple[int, int, Any]]:
        """Yield ``(src, dst, items)`` delivery runs in send-call order.

        This is the engine's sizing/accounting view: word totals are
        additive over runs, and source-major producers emit exactly one
        run per route, so bulk sizing stays one pass per batch.  ``items``
        is a list for object runs and a numpy block for columnar runs.
        """
        for index in range(len(self._run_src)):
            yield self._run_src[index], self._run_dst[index], self._run_items(index)

    def run_count(self) -> int:
        """Number of stored delivery runs (>= :meth:`routes` when sends
        interleave)."""
        return len(self._run_src)

    def run_words(self) -> list[int]:
        """Per-run word totals, computed once and cached on the plan.

        Object runs cost one :func:`word_size_many` pass over their flat
        slice; columnar runs cost O(1) (``block.size`` — every element of
        a numeric dtype is one machine word).  A run of one payload object
        is sized once per plan: a broadcast sends the same object on every
        route, and each further run carrying it reuses the size by object
        identity.  That is exact because all runs are sized here, in one
        pass after the last send — one object has one size throughout.
        Any later send invalidates the cache.
        """
        if self._run_words is None:
            items = self._items
            sized: dict[int, int] = {}  # id(payload) -> words, one-item runs
            words = []
            for block, start, length in zip(
                self._run_block, self._run_start, self._run_len
            ):
                if block is not None:
                    words.append(int(block.size))
                elif length == 1:
                    payload = items[start]
                    size = sized.get(id(payload))
                    if size is None:
                        size = sized[id(payload)] = word_size(payload)
                    words.append(size)
                else:
                    words.append(word_size_many(items[start:start + length]))
            self._run_words = words
        return self._run_words

    def run_meta(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The accounting columns: ``(srcs, dsts, lengths, words)`` —
        parallel arrays over runs, words from the :meth:`run_words`
        cache.  This is everything the grouped accounting pass of
        :meth:`Cluster.execute` consumes."""
        return self._run_src, self._run_dst, self._run_len, self.run_words()

    def batches(self) -> Iterator[tuple[int, int, list[Any]]]:
        """Yield ``(src, dst, items)`` aggregated per route, routes in
        first-send order (materialized on demand; columnar blocks are
        flattened to rows)."""
        grouped: dict[tuple[int, int], list[Any]] = {
            route: [] for route in self._routes
        }
        for src, dst, items in self.runs():
            grouped[(src, dst)].extend(_as_rows(items))
        for (src, dst), items in grouped.items():
            yield src, dst, items

    def deliveries(self) -> Iterator[tuple[int, list[Any]]]:
        """Yield ``(dst, items)`` with items in exact send-call order.

        This is the inbox-fill view: unlike :meth:`batches` it interleaves
        sources the way the sends happened, so per-message and batched
        producers observe identical inbox orderings.  Columnar runs
        deliver their block *whole* — one inbox entry per block, a
        zero-copy array view — while their logical items stay the block's
        rows for all accounting.
        """
        order: list[int] = []
        grouped: dict[int, list[Any]] = {}
        for index in range(len(self._run_src)):
            dst = self._run_dst[index]
            inbox = grouped.get(dst)
            if inbox is None:
                inbox = grouped[dst] = []
                order.append(dst)
            block = self._run_block[index]
            if block is not None:
                inbox.append(block)
            else:
                start = self._run_start[index]
                inbox.extend(self._items[start:start + self._run_len[index]])
        for dst in order:
            yield dst, grouped[dst]

    def routes(self) -> int:
        """Number of distinct ``(src, dst)`` pairs with traffic."""
        return len(self._routes)

    def item_count(self) -> int:
        """Total number of logical items queued (block rows count one each)."""
        return sum(self._run_len)

    def __len__(self) -> int:
        return self.item_count()

    def messages(self) -> Iterator[Message]:
        """Flatten back to legacy message tuples (debugging / tests)."""
        for src, dst, items in self.batches():
            for item in items:
                yield src, dst, item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoundPlan(note={self.note!r}, routes={self.routes()}, "
            f"items={self.item_count()})"
        )


def _as_rows(items: Any) -> list[Any]:
    """Flatten a run's payloads to per-item Python objects (legacy views):
    2D blocks become tuples of scalars, 1D blocks plain scalars."""
    if isinstance(items, np.ndarray):
        if items.ndim >= 2:
            return [tuple(row) for row in items.tolist()]
        return items.tolist()
    return list(items)
