"""Statistical substrate used throughout the reproduction.

The paper's guarantees rest on three pieces of classical probability:

* Beta posteriors for per-group selectivity estimates obtained by sampling
  (Section 4.1 of the paper),
* Hoeffding's inequality for the perfect-selectivity linear program
  (Section 3.2), and
* Chebyshev's inequality for the estimated-selectivity convex programs
  (Section 3.3).

This package implements those pieces along with the precision/recall metrics
used to evaluate query results and seeded random-number helpers that keep
every experiment reproducible.
"""

from repro.stats.beta import (
    BetaPosterior,
    beta_mean,
    beta_variance,
    clopper_pearson_upper,
)
from repro.stats.chebyshev import chebyshev_deviation_factor, chebyshev_tail_bound
from repro.stats.hoeffding import (
    hoeffding_bound,
    hoeffding_precision_margin,
    hoeffding_recall_margin,
    hoeffding_sample_size,
)
from repro.stats.metrics import (
    ResultQuality,
    f1_score,
    precision,
    recall,
    result_quality,
)
from repro.stats.random import RandomState, spawn_children
from repro.stats.summaries import (
    SeriesSummary,
    mean_and_deviation,
    pearson_correlation,
    summarize_series,
)

__all__ = [
    "BetaPosterior",
    "beta_mean",
    "beta_variance",
    "clopper_pearson_upper",
    "chebyshev_deviation_factor",
    "chebyshev_tail_bound",
    "hoeffding_bound",
    "hoeffding_precision_margin",
    "hoeffding_recall_margin",
    "hoeffding_sample_size",
    "ResultQuality",
    "precision",
    "recall",
    "f1_score",
    "result_quality",
    "RandomState",
    "spawn_children",
    "SeriesSummary",
    "mean_and_deviation",
    "pearson_correlation",
    "summarize_series",
]
