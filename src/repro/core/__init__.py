"""The paper's algorithms for the Heterogeneous MPC model.

Sections 3–5 (the new algorithms) and Appendix C (near-linear algorithms
that transfer to the heterogeneous model).
"""

from .coloring import ColoringResult, heterogeneous_coloring, palette_size
from .connectivity import (
    ConnectivityResult,
    heterogeneous_connectivity,
    sketch_components,
)
from .cycle import CycleResult, solve_one_vs_two_cycles
from .matching import (
    MatchingResult,
    filtering_matching,
    heterogeneous_matching,
    low_degree_phase_rounds,
)
from .mincut import (
    MinCutResult,
    approximate_weighted_mincut,
    exact_unweighted_mincut,
)
from .mis import MISResult, heterogeneous_mis, prefix_thresholds
from .mst import (
    MSTResult,
    boruvka_step_budget,
    heterogeneous_mst,
    planned_boruvka_steps,
)
from .mst_approx import MSTApproxResult, approximate_mst_weight, geometric_thresholds
from .spanner import (
    ApproximateAPSP,
    SpannerResult,
    build_apsp_oracle,
    heterogeneous_spanner,
    modified_baswana_sen_local,
)

__all__ = [
    "ColoringResult",
    "heterogeneous_coloring",
    "palette_size",
    "ConnectivityResult",
    "heterogeneous_connectivity",
    "sketch_components",
    "CycleResult",
    "solve_one_vs_two_cycles",
    "MatchingResult",
    "filtering_matching",
    "heterogeneous_matching",
    "low_degree_phase_rounds",
    "MinCutResult",
    "approximate_weighted_mincut",
    "exact_unweighted_mincut",
    "MISResult",
    "heterogeneous_mis",
    "prefix_thresholds",
    "MSTResult",
    "boruvka_step_budget",
    "heterogeneous_mst",
    "planned_boruvka_steps",
    "MSTApproxResult",
    "approximate_mst_weight",
    "geometric_thresholds",
    "ApproximateAPSP",
    "SpannerResult",
    "build_apsp_oracle",
    "heterogeneous_spanner",
    "modified_baswana_sen_local",
]
