"""The paper's guarantee, path by path: precision >= alpha and recall >= beta
with probability >= rho per query, on a fresh sample.

Each path runs Intel-Sample on prosper with the default
:class:`~repro.experiments.ExperimentConfig` (scale 0.15, alpha = beta =
rho = 0.8, 5 % per group) over 150 independent sample seeds.  A path fails
on *evidence of a violation*: the one-sided 95 % Clopper–Pearson upper bound
of its precision or recall satisfaction rate below rho.  One seeded run, or
a rate a little under rho, is not such evidence.

Measured: the given column satisfies .967 / .993 (precision / recall) and
the automatically chosen column .947 / .987.  The virtual column satisfies
.900 / .840 — upper bounds .937 / .887 — since the rows that fit its model
and bucket edges are no longer its buckets' selectivity evidence (ROADMAP
item 1(a)); before that it satisfied .673 / .640 (upper bounds .737 / .705)
and failed.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import ExperimentConfig, run_strategy
from repro.stats.beta import clopper_pearson_upper

RUNS = 150
CONFIDENCE = 0.95
CONFIG = ExperimentConfig()


@pytest.fixture(scope="module")
def prosper():
    return CONFIG.load("prosper")


@pytest.mark.parametrize(
    "column, virtual",
    [
        pytest.param(None, False, id="given column"),
        pytest.param("", False, id="auto column"),
        pytest.param(
            "", True, id="virtual column",
        ),
    ],
)
def test_satisfaction_rates_are_not_provably_below_rho(prosper, column, virtual):
    stats = run_strategy(
        "intel_sample", prosper, CONFIG, iterations=RUNS,
        correlated_column=column, use_virtual_column=virtual,
    )
    eps = 1e-12    # as ResultQuality.satisfies compares
    met = {
        "precision": sum(p >= CONFIG.alpha - eps for p in stats.precisions),
        "recall": sum(r >= CONFIG.beta - eps for r in stats.recalls),
    }
    upper = {name: clopper_pearson_upper(count, RUNS, CONFIDENCE) for name, count in met.items()}
    assert all(bound >= CONFIG.rho for bound in upper.values()), (met, upper)
