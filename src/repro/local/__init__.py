"""Sequential algorithms: the large machine's local toolbox (Kruskal,
F-light filtering, Baswana–Sen, list coloring, greedy matching,
Stoer–Wagner)."""

from . import baswana_sen, coloring, matching, mincut, mst

__all__ = ["baswana_sen", "coloring", "matching", "mincut", "mst"]
