"""Section 6 extensions: weaker/stronger guarantees and other query shapes."""

from repro.extensions.counts import run_count_known, run_count_unknown
from repro.extensions.mistakes import run_ifocus_mistakes
from repro.extensions.multi import (
    MultiAvgResult,
    composite_group_column,
    run_ifocus_multi_avg,
)
from repro.extensions.noindex import run_noindex
from repro.extensions.sums import run_ifocus_sum, run_ifocus_sum_unknown
from repro.extensions.topt import TopTResult, run_ifocus_topt
from repro.extensions.trends import chain_neighbors, grid_neighbors, run_ifocus_trends
from repro.extensions.values import run_ifocus_values

__all__ = [
    "run_count_known",
    "run_count_unknown",
    "run_ifocus_mistakes",
    "MultiAvgResult",
    "composite_group_column",
    "run_ifocus_multi_avg",
    "run_noindex",
    "run_ifocus_sum",
    "run_ifocus_sum_unknown",
    "TopTResult",
    "run_ifocus_topt",
    "chain_neighbors",
    "grid_neighbors",
    "run_ifocus_trends",
    "run_ifocus_values",
]
