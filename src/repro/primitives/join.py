"""Annotating edges with per-endpoint values (a constant-round sort-join).

Many steps of the paper's algorithms end with: "the large machine
disseminates a value per vertex, and each small machine examines every edge
{u, v} it stores using the values of *both* u and v" (F-light filtering,
cluster-center records, matched-vertex flags, palettes, ...).

With edges laid out as directed copies, dissemination by source key (Claim
3) hands each copy the value of one endpoint only.  The standard MPC remedy
is a sort-join, and that is what we implement:

1. make directed copies, sort by source, disseminate values keyed by source
   so each copy of edge ``{u, v}`` oriented at ``u`` learns ``value[u]``;
2. re-sort the annotated copies by canonical edge id — the two copies of
   each undirected edge become globally adjacent (ranks 2j, 2j+1);
3. one boundary round re-unites pairs that straddle a machine boundary;
4. each machine zips adjacent copies into a single record
   ``(edge, value_u, value_v)``.

Total cost: O(1) rounds.

When the stored edges qualify as typed record batches
(:mod:`repro.primitives.columnar`) the directed copies are built as *flat*
:class:`~repro.primitives.columnar.EdgeBlock` rows ``(src, e0, ..,
e_{w-1})`` instead of nested ``(src, edge)`` tuples, which lets both sorts
ride :func:`~repro.primitives.sort.sample_sort`'s columnar path with field
-spec keys.  Flat and nested rows cost identical words (tuples charge the
sum of their leaves), the sort keys order isomorphically, and the final
records are re-nested — so ledgers and outputs match the object path bit
for bit.  Annotation values that do not fit a typed column (tuples,
``None``) drop the flat rows back to nested tuples mid-flight at the
annotate step, which is ledger-neutral for the same word-parity reason;
the second sort then runs on the object path, exactly as if the columnar
path had never engaged.  (The second flat sort passes ``assume_unique``:
duplicate ``(edge, src)`` copies — the only possible key ties — carry the
same disseminated value, so tied rows are identical and any stable order
of them matches the object path.)
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from ..mpc.cluster import Cluster
from ..mpc.errors import ProtocolError
from ..mpc.plan import RoundPlan
from . import columnar
from .columnar import EdgeBlock
from .disseminate import disseminate
from .sort import sample_sort

__all__ = ["annotate_edges_with_vertex_values"]


def _flat_directed_copies(columns: tuple) -> EdgeBlock:
    """One machine's directed-copy build, flat path: interleave both
    orientations (row ``2i`` is ``(u, edge_i...)``, row ``2i+1`` is
    ``(v, edge_i...)``)."""
    src = np.empty(2 * len(columns[0]), dtype=columns[0].dtype)
    src[0::2] = columns[0]
    src[1::2] = columns[1]
    return EdgeBlock([src, *(np.repeat(col, 2) for col in columns)])


def _directed_records(edges: list) -> list[tuple]:
    """One machine's directed-copy build, nested path."""
    records = []
    for edge in edges:
        records.append((edge[0], edge))
        records.append((edge[1], edge))
    return records


def annotate_edges_with_vertex_values(
    cluster: Cluster,
    edges_name: str,
    values: dict[Hashable, Any],
    out_name: str,
    default: Any = None,
    note: str = "annotate",
) -> None:
    """Build dataset *out_name*: one record ``(edge, value_u, value_v)`` per
    undirected edge of *edges_name* (``value_u`` matches ``edge[0]``).

    Vertices absent from *values* get *default*.  The input dataset is left
    untouched.
    """
    work = f"{out_name}__directed"

    # Step 1: directed copies, sorted by source vertex.  Flat columnar
    # copies when every machine's edges qualify (the representation must
    # be uniform across machines: boundary records travel between them).
    directed = _directed_blocks(cluster, edges_name)
    if directed is not None:
        width, blocks = directed
        for machine in cluster.smalls:
            machine.put(work, blocks[machine.machine_id])
        sort1_key: Any = tuple(range(width + 1))
    else:
        width = -1
        for machine in cluster.smalls:
            machine.put(work, _directed_records(list(machine.get(edges_name, []))))
        sort1_key = lambda r: (r[0], r[1])  # noqa: E731
    sample_sort(cluster, work, key=sort1_key, note=f"{note}/sort-src")

    # Step 2: disseminate values down per-vertex trees (Claim 3).  Both
    # representations feed the holder sets in record order, so the holder
    # (and therefore ``present``) iteration orders are identical.
    holders: dict[Hashable, list[int]] = {}
    for machine in cluster.smalls:
        data = machine.get(work, [])
        if isinstance(data, EdgeBlock):
            vertices = set(data.columns[0].tolist())
        else:
            vertices = {record[0] for record in data}
        for vertex in vertices:
            holders.setdefault(vertex, []).append(machine.machine_id)
    present = {key: values.get(key, default) for key in holders}
    received = disseminate(cluster, present, holders, note=f"{note}/values")

    flat = directed is not None
    if flat:
        flat = _annotate_flat(cluster, work, received, default)
    if not flat:
        for machine in cluster.smalls:
            local_values = received.get(machine.machine_id, {})
            data = machine.get(work, [])
            rows = data.rows() if isinstance(data, EdgeBlock) else data
            if directed is not None:
                # Nested fallback off flat rows (value did not columnize):
                # the exact records the object path would have built.
                machine.put(
                    work,
                    [
                        (row[1:], row[0], local_values.get(row[0], default))
                        for row in rows
                    ],
                )
            else:
                machine.put(
                    work,
                    [
                        (record[1], record[0], local_values.get(record[0], default))
                        for record in rows
                    ],
                )

    # Step 3: re-sort by canonical edge id; the two copies become adjacent.
    if flat:
        sort2_key: Any = tuple(range(width + 1))
        layout = sample_sort(
            cluster, work, key=sort2_key, note=f"{note}/sort-edge", assume_unique=True
        )
    else:
        sort2_key = lambda r: (r[0], r[1])  # noqa: E731
        layout = sample_sort(cluster, work, key=sort2_key, note=f"{note}/sort-edge")
    if layout.total % 2 != 0:
        raise ProtocolError("odd number of directed copies; duplicate edges?")

    # Step 4: pairs live at global ranks (2j, 2j+1); a machine whose range
    # starts at an odd rank sends its first record back to the machine that
    # holds the rank just before it.  One round fixes all boundaries.
    offsets = layout.offsets
    senders = []
    for index, machine in enumerate(cluster.smalls):
        records = machine.get(work, [])
        if len(records) and offsets[index] % 2 == 1:
            senders.append((machine, records, offsets[index] - 1))
    targets = layout.machine_of_rank_many([rank for _, _, rank in senders])
    plan = RoundPlan(note=f"{note}/boundary")
    for (machine, records, _), target in zip(senders, targets):
        if isinstance(records, EdgeBlock):
            first: Any = tuple(col[0].item() for col in records.columns)
        else:
            first = records[0]
        plan.send(machine.machine_id, target, first)
        machine.put(work, records[1:])
    inboxes = cluster.execute(plan)
    for mid, received_records in inboxes.items():
        machine = cluster.machine(mid)
        local = machine.get(work, [])
        if flat and isinstance(local, EdgeBlock):
            merged = EdgeBlock(
                [
                    np.concatenate(
                        [col, np.array([row[j] for row in received_records], col.dtype)]
                    )
                    for j, col in enumerate(local.columns)
                ]
            )
            machine.put(work, columnar.lexsort_block(merged, sort2_key))
        elif flat:
            # An empty bucket that received a boundary record: sort the
            # flat rows by the full (edge, src) prefix, like the lexsort.
            local = list(local)
            local.extend(received_records)
            local.sort(key=lambda r: r[: width + 1])
            machine.put(work, local)
        else:
            local.extend(received_records)
            machine.put(work, sorted(local, key=lambda r: (r[0], r[1])))

    # Step 5: zip adjacent copies into one record per undirected edge.
    for machine in cluster.smalls:
        records = machine.pop(work, [])
        rows = records.rows() if isinstance(records, EdgeBlock) else records
        if len(rows) % 2 != 0:
            raise ProtocolError(
                f"machine {machine.machine_id} holds an unpaired edge copy"
            )
        joined = []
        if flat:
            for index in range(0, len(rows), 2):
                first, second = rows[index], rows[index + 1]
                if first[:width] != second[:width]:
                    raise ProtocolError(f"mismatched edge copies {first} / {second}")
                edge = first[:width]
                by_vertex = {first[width]: first[width + 1], second[width]: second[width + 1]}
                joined.append((edge, by_vertex[edge[0]], by_vertex[edge[1]]))
        else:
            for index in range(0, len(rows), 2):
                first, second = rows[index], rows[index + 1]
                if first[0] != second[0]:
                    raise ProtocolError(f"mismatched edge copies {first} / {second}")
                edge = first[0]
                by_vertex = {first[1]: first[2], second[1]: second[2]}
                joined.append((edge, by_vertex[edge[0]], by_vertex[edge[1]]))
        machine.put(out_name, joined)


def _directed_blocks(
    cluster: Cluster, edges_name: str
) -> tuple[int, dict[int, Any]] | None:
    """Directed copies of every machine's edges as flat blocks.

    Returns ``(edge_width, blocks_by_machine)`` (empty machines map to
    ``[]``) or ``None`` when any machine's edges do not qualify — the flat
    representation must be all-or-nothing, because sorted runs and
    boundary records mix rows from different machines.  Flat row ``2i``
    is ``(u, edge_i...)`` and row ``2i + 1`` is ``(v, edge_i...)`` — the
    interleaving the object path builds.  Nothing is mutated.
    """
    width: int | None = None
    dtypes: tuple | None = None
    blocks: dict[int, Any] = {}
    qualified: list[tuple[int, EdgeBlock]] = []
    for machine in cluster.smalls:
        local = machine.get(edges_name, [])
        if not len(local):
            blocks[machine.machine_id] = []
            continue
        block = columnar.ensure_block(local)
        if block is None or block.width < 2:
            return None
        col_dtypes = tuple(col.dtype for col in block.columns)
        if width is None:
            width, dtypes = block.width, col_dtypes
        elif block.width != width or col_dtypes != dtypes:
            return None
        src_dtype = block.columns[0].dtype
        if src_dtype.kind != "i" or block.columns[1].dtype != src_dtype:
            return None
        qualified.append((machine.machine_id, block))
    if not qualified:
        # All machines empty: the object path costs zero rounds anyway.
        return None
    for mid, block in qualified:
        blocks[mid] = _flat_directed_copies(block.columns)
    return width, blocks


def _annotate_flat(
    cluster: Cluster,
    work: str,
    received: dict[int, dict[Hashable, Any]],
    default: Any,
) -> bool:
    """Attach the value column to every machine's flat block.

    All-or-nothing: if any machine's values do not fit one exact typed
    column, nothing is written and the caller re-nests (a mixed fleet
    would leave the second sort with per-machine dtype mismatches).
    Value lookups run in record order, exactly like the object path.
    """
    annotated: dict[int, tuple[Any, Any]] = {}
    for machine in cluster.smalls:
        data = machine.get(work, [])
        if not len(data):
            continue
        if not isinstance(data, EdgeBlock):
            # The source sort itself declined the columnar path and left
            # plain rows; keep one representation and re-nest.
            return False
        local_values = received.get(machine.machine_id, {})
        vals = [local_values.get(v, default) for v in data.columns[0].tolist()]
        col = columnar.value_column(vals)
        if col is None:
            return False
        annotated[machine.machine_id] = (data, col)
    value_dtypes = {col.dtype for _, col in annotated.values()}
    if len(value_dtypes) > 1:
        # Mixed value types across machines (a heterogeneous values dict)
        # would fail the sort qualification anyway; re-nest for exactness.
        return False
    for machine in cluster.smalls:
        entry = annotated.get(machine.machine_id)
        if entry is None:
            machine.put(work, [])
            continue
        data, col = entry
        machine.put(work, EdgeBlock([*data.columns[1:], data.columns[0], col]))
    return True
