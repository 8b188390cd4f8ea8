"""Text tables for the benchmark artifacts.

:func:`render_table` aligns row dicts into the text format the benchmark
scenarios print and the generated ``docs/REPRODUCTION.md`` quotes (see
``repro.experiments``, whose ``Scenario`` + ``Runner`` run the sweeps).
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["render_table"]


def render_table(rows: Sequence[dict[str, Any]], columns: Sequence[str]) -> str:
    """Align *rows* (dicts) into a printable text table."""
    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    table = [columns] + [[fmt(row.get(c, "")) for c in columns] for row in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)
