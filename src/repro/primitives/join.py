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
   each undirected edge become globally adjacent (ranks 2j, 2j+1);
3. one boundary round re-unites pairs that straddle a machine boundary;
4. each machine zips adjacent copies into a single record
   ``(edge, value_u, value_v)``.

Total cost: O(1) rounds.

Every copy is a flat row, built by
:func:`~repro.primitives.arrange.directed_rows`: an
:class:`~repro.primitives.columnar.EdgeBlock` per machine when the edges
qualify as typed columns, tuples otherwise.  Step 1 adds the value as one
more column when a machine's values fit one
(:func:`~repro.primitives.columnar.value_column`) and appends it to tuple
rows when they do not (``None`` defaults, flow labels, tuples).  Both
sorts pass the field spec ``(0, ..., width)``, so
:func:`~repro.primitives.sort.sample_sort` picks its path from the rows
alone.  The second sort passes ``assume_unique``: duplicate
``(*edge, src)`` copies — the only possible key ties — carry the same
disseminated value, so tied rows are identical.
"""

from __future__ import annotations

from typing import Any, Hashable

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
    """Build dataset *out_name*: one record ``(edge, value_u, value_v)`` per
    undirected edge of *edges_name* (``value_u`` matches ``edge[0]``).

    Vertices absent from *values* get *default*.  The input dataset is left
    untouched.
    """
    work = f"{out_name}__directed"

    # Step 1: directed copies (src, *edge), sorted by source vertex.
    width, rows = directed_rows(cluster, edges_name, with_dst=False)
    for machine in cluster.smalls:
        machine.put(work, rows[machine.machine_id])
    key = tuple(range(width + 1))
    sample_sort(cluster, work, key=key, note=f"{note}/sort-src")

    # Disseminate values down per-vertex trees (Claim 3) and append each
    # copy's value: (*edge, src, value).
    sources: dict[int, list] = {}
    holders: dict[Hashable, list[int]] = {}
    for machine in cluster.smalls:
        data = machine.get(work, [])
        if isinstance(data, EdgeBlock):
            sources[machine.machine_id] = data.columns[0].tolist()
        else:
            sources[machine.machine_id] = [row[0] for row in data]
        for vertex in set(sources[machine.machine_id]):
            holders.setdefault(vertex, []).append(machine.machine_id)
    present = {vertex: values.get(vertex, default) for vertex in holders}
    received = disseminate(cluster, present, holders, note=f"{note}/values")
    for machine in cluster.smalls:
        data = machine.get(work, [])
        local_values = received.get(machine.machine_id, {})
        vals = [local_values.get(v, default) for v in sources[machine.machine_id]]
        col = columnar.value_column(vals) if isinstance(data, EdgeBlock) else None
        if col is not None:
            machine.put(work, EdgeBlock([*data.columns[1:], data.columns[0], col]))
        else:
            machine.put(
                work, [(*row[1:], row[0], value) for row, value in zip(data, vals)]
            )

    # Step 2: re-sort by (*edge, src); the two copies become adjacent.
    layout = sample_sort(
        cluster, work, key=key, note=f"{note}/sort-edge", assume_unique=True
    )
    if layout.total % 2 != 0:
        raise ProtocolError("odd number of directed copies; duplicate edges?")

    # Step 3: pairs live at global ranks (2j, 2j+1); a machine whose range
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
        # A one-row slice: a block materializes that row alone.
        plan.send(machine.machine_id, target, *records[:1])
        machine.put(work, records[1:])
    for mid, received_records in cluster.execute(plan).items():
        # The received copy holds the rank right after the receiver's last
        # one, so appending it keeps the machine's rows sorted.
        machine = cluster.machine(mid)
        machine.put(work, [*machine.get(work), *received_records])

    # Step 4: zip adjacent copies into one record per undirected edge.
    for machine in cluster.smalls:
        rows = list(machine.pop(work, []))
        if len(rows) % 2 != 0:
            raise ProtocolError(
                f"machine {machine.machine_id} holds an unpaired edge copy"
            )
        joined = []
        for first, second in zip(rows[0::2], rows[1::2]):
            edge = first[:width]
            if second[:width] != edge:
                raise ProtocolError(f"mismatched edge copies {first} / {second}")
            by_vertex = {first[width]: first[width + 1], second[width]: second[width + 1]}
            joined.append((edge, by_vertex[edge[0]], by_vertex[edge[1]]))
        machine.put(out_name, joined)
