"""Analysis helpers: Table 1 theory predictions, text tables, and
least-squares asymptotic fits (``repro.analysis.fits`` /
``repro.analysis.costmodel`` — the latter is imported lazily by the CLI
because it reads benchmark artifacts through ``repro.experiments``)."""

from .fits import (
    CONSTANT,
    GROWTH_ORDER,
    UNDERDETERMINED,
    FitReport,
    LeastSquares,
    growth_rank,
    least_squares,
    select_model,
    verdict,
)
from .tables import render_table
from .theory import TABLE1, Table1Row, loglog, loglog_raw, predicted_rounds

__all__ = [
    "render_table",
    "TABLE1",
    "Table1Row",
    "predicted_rounds",
    "loglog",
    "loglog_raw",
    "CONSTANT",
    "GROWTH_ORDER",
    "UNDERDETERMINED",
    "FitReport",
    "LeastSquares",
    "growth_rank",
    "least_squares",
    "select_model",
    "verdict",
]
