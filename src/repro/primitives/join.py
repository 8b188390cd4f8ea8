"""Annotating edges with per-endpoint values (a constant-round sort-join).

Many steps of the paper's algorithms end with: "the large machine
disseminates a value per vertex, and each small machine examines every edge
{u, v} it stores using the values of *both* u and v" (F-light filtering,
cluster-center records, matched-vertex flags, palettes, ...).

With edges laid out as directed copies, dissemination by source key (Claim
3) hands each copy the value of one endpoint only.  The standard MPC remedy
is a sort-join, and that is what we implement:

1. make directed copies ``(src, *edge)``, sort them, and disseminate
   values keyed by source, so each copy of edge ``{u, v}`` oriented at
   ``u`` becomes ``(*edge, u, value[u])``;
2. re-sort the annotated copies by ``(*edge, src)`` — the two copies of
   each undirected edge become globally adjacent (ranks 2j, 2j+1), the
   copy at ``min(u, v)`` first;
3. one boundary round re-unites pairs that straddle a machine boundary;
4. each machine checks that every pair holds one copy at each endpoint
   and zips it into one flat row ``(*edge, value_u, value_v)``.

Total cost: O(1) rounds.

Consumers read an output row as ``row[:-2], row[-2], row[-1]``; it is
charged one word per edge field plus the words of the two values, the
leaves it holds.  The output is an
:class:`~repro.primitives.columnar.EdgeBlock` per machine whatever the
values are: scalars ride typed value columns, and ints past int64, mixed
scalar types, tuples, ``None`` defaults and flow labels ride ``object``
columns.

Every copy is a flat row, built by
:func:`~repro.primitives.arrange.directed_rows`, so the edge records must
be flat rows of scalars.  Both sorts pass the field spec ``(0, ...,
width)``; the second one's rows also carry the value, which the spec
leaves out.  Between the sorts the join sees all small machines' rows at
once, as the columns of one sharded dataset
(:func:`~repro.primitives.columnar.sharded`), so the value column, the
boundary round and the zip are one pass each: the boundary round only
moves machines' row bounds (:meth:`repro.mpc.cluster.Cluster.rebound`),
and the result is stored as one sharded dataset.
"""

from __future__ import annotations

from itertools import groupby
from typing import Any, Hashable

import numpy as np

from ..mpc.cluster import Cluster
from ..mpc.errors import ProtocolError
from ..mpc.plan import RoundPlan
from . import columnar
from .arrange import directed_rows
from .columnar import EdgeBlock
from .disseminate import disseminate
from .sort import sample_sort

__all__ = ["annotate_edges_with_vertex_values"]


def annotate_edges_with_vertex_values(
    cluster: Cluster,
    edges_name: str,
    values: dict[Hashable, Any],
    out_name: str,
    default: Any = None,
    note: str = "annotate",
) -> None:
    """Build dataset *out_name*: one flat row ``(*edge, value_u, value_v)``
    per undirected edge of *edges_name* (``value_u`` matches ``edge[0]``).

    Vertices absent from *values* get *default*.  The input dataset is left
    untouched.  Raises :class:`~repro.mpc.errors.ProtocolError`, naming the
    edge, when the two copies of an edge do not pair up — as they cannot
    when the input holds an edge twice.
    """
    machine_ids = cluster.small_ids
    work = f"{out_name}__directed"

    # Step 1: directed copies (src, *edge), sorted by source vertex.
    width, rows, counts = directed_rows(cluster, edges_name, with_dst=False)
    cluster.store(work, EdgeBlock(rows), counts)
    key = tuple(range(width + 1))
    sample_sort(cluster, work, key=key, note=f"{note}/sort-src")

    # Disseminate values down per-vertex trees (Claim 3) to the machines
    # holding each source, and append each copy's value as its machine
    # received it: (*edge, src, value).
    columns, counts = columnar.sharded(cluster, work)
    copies = EdgeBlock(columns or [np.empty(0, dtype=np.int64)] * (width + 1))
    run_machine, run_source, run_sizes = _source_runs(copies, counts)
    # Each machine lists its sources in its set's iteration order, which
    # fixes the order of the dissemination's sends.
    holders: dict[Hashable, list[int]] = {}
    for index, runs in groupby(zip(run_machine, run_source), key=lambda run: run[0]):
        for vertex in set(source for _, source in runs):
            holders.setdefault(vertex, []).append(machine_ids[index])
    present = {vertex: values.get(vertex, default) for vertex in holders}
    received = disseminate(cluster, present, holders, note=f"{note}/values")
    run_values = [
        received[machine_ids[index]][vertex]
        for index, vertex in zip(run_machine, run_source)
    ]
    columns = copies.columns
    copies = EdgeBlock([
        *columns[1:],
        columns[0],
        np.repeat(columnar.value_column(run_values), run_sizes),
    ])
    cluster.store(work, copies, counts)

    # Step 2: re-sort by (*edge, src); the two copies become adjacent.
    layout = sample_sort(cluster, work, key=key, note=f"{note}/sort-edge")
    columns, counts = columnar.sharded(cluster, work)
    copies = EdgeBlock(columns or [np.empty(0, dtype=np.int64)] * (width + 2))

    # Step 3: pairs live at global ranks (2j, 2j+1); a machine whose range
    # starts at an odd rank sends its first copy back to the machine that
    # holds the rank just before it.  One round fixes all boundaries, and
    # the cluster-wide order of the copies does not change: only the
    # machines' bounds do.  Senders shrink before the round, receivers
    # grow after it; receivers ascend, as their senders do.
    stops = np.cumsum(counts)
    starts = stops - counts
    senders = np.flatnonzero((counts > 0) & (starts % 2 == 1))
    targets = layout.machine_of_rank_many((starts[senders] - 1).tolist())
    firsts = columnar.rows_at(copies.columns, starts[senders])
    plan = RoundPlan(note=f"{note}/boundary")
    for mid, target, first in zip(senders.tolist(), targets, firsts):
        plan.send(mid, target, first)
    if len(senders):
        starts[senders] += 1
        cluster.rebound(work, starts, stops)
    inboxes = cluster.execute(plan)
    if inboxes:
        # A received copy holds the rank right after its receiver's last
        # one, so the receiver's bounds grow by one at their end.
        for mid, received_copies in inboxes.items():
            stops[mid] += len(received_copies)
        cluster.rebound(work, starts, stops)

    # Step 4: zip adjacent copies into one flat row per undirected edge.
    joined = _zip_pairs(copies, width)
    cluster.pop(work)
    cluster.store(out_name, joined, (stops - starts) // 2)


def _source_runs(copies: EdgeBlock, counts: list[int]) -> tuple[list, list, list]:
    """The runs of consecutive copies with one machine and one source:
    each run's machine index, source and length, in order."""
    sources = copies.columns[0]
    machine = np.repeat(np.arange(len(counts)), counts)
    heads = np.flatnonzero(columnar.first_of_runs([machine, sources]))
    sizes = np.diff(np.append(heads, len(sources)))
    return machine[heads].tolist(), sources[heads].tolist(), sizes.tolist()


def _zip_pairs(copies: EdgeBlock, width: int) -> EdgeBlock:
    """Step 4 over all machines at once: the copies at ranks 2j and 2j+1
    must be the same edge, oriented at ``min(u, v)`` and at ``max(u, v)``
    in that order; each pair becomes ``(*edge, value_u, value_v)``."""
    cols = copies.columns
    first = [col[0::2] for col in cols]
    second = [col[1::2] for col in cols]
    u, v = first[0], first[1]
    bad = (first[width] != np.minimum(u, v)) | (second[width] != np.maximum(u, v))
    for j in range(width):
        bad |= first[j] != second[j]
    if bad.any():
        pair = 2 * int(np.argmax(bad))
        raise _pair_error(*columnar.rows_at(cols, [pair, pair + 1]), width)
    forward = u <= v
    return EdgeBlock([
        *first[:width],
        np.where(forward, first[-1], second[-1]),
        np.where(forward, second[-1], first[-1]),
    ])


def _pair_error(first: tuple, second: tuple, width: int) -> ProtocolError:
    """The error for two adjacent copies that do not pair up."""
    if first[:width] != second[:width]:
        return ProtocolError(f"mismatched edge copies {first} / {second}")
    return ProtocolError(
        f"edge {first[:width]} has copies at sources {first[width]} and "
        f"{second[width]}, not one at each endpoint; duplicate edges?"
    )
