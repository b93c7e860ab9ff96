"""Ablation benchmarks for the design choices called out in DESIGN.md.

* Safety margins: dropping the Hoeffding margin makes the plan cheaper but
  erodes the probability of meeting the constraints.
* BiGreedy vs the scipy LP: identical costs, so the solver-free algorithm is a
  safe default.
* Independent-groups vs unknown-correlations convex program: the independent
  variant is never more expensive.
"""

import numpy as np

from repro.core.bigreedy import solve_bigreedy
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.estimated import solve_estimated_selectivity
from repro.core.executor import PlanExecutor
from repro.core.groups import SelectivityModel
from repro.core.hoeffding_lp import SelectivityMargins, solve_perfect_selectivity_lp
from repro.db.index import GroupIndex
from repro.db.udf import CostLedger
from repro.experiments.report import format_table
from repro.stats.metrics import result_quality


def margin_ablation(dataset, constraints, runs=10):
    """Satisfaction rates with and without the Hoeffding safety margins."""
    index = GroupIndex(dataset.table, dataset.correlated_column)
    truth = dataset.ground_truth_row_ids()
    model = SelectivityModel.from_ground_truth(index, truth)
    outcomes = {}
    for label, margins in (
        ("with_margins", None),
        ("no_margins", SelectivityMargins(0.0, 0.0)),
    ):
        plan = solve_bigreedy(model, constraints, margins=margins).plan
        satisfied = 0
        for seed in range(runs):
            udf = dataset.make_udf(f"ablate_{label}_{seed}")
            ledger = CostLedger()
            result = PlanExecutor().execute(
                dataset.table, index, udf, plan, ledger, seed
            )
            quality = result_quality(result.returned_row_ids, truth)
            if quality.satisfies(constraints.alpha, constraints.beta):
                satisfied += 1
        outcomes[label] = {
            "satisfaction_rate": satisfied / runs,
            "expected_cost": plan.expected_cost(model, CostModel(), include_sampling=False),
        }
    return outcomes


def test_margin_ablation(run_once, bench_config):
    dataset = bench_config.load("prosper")
    constraints = QueryConstraints(0.8, 0.8, 0.8)
    outcomes = run_once(margin_ablation, dataset, constraints)
    print("\nAblation — Hoeffding safety margins (Prosper-like dataset)")
    print(
        format_table(
            ["variant", "satisfaction_rate", "expected_cost"],
            [
                [label, values["satisfaction_rate"], round(values["expected_cost"])]
                for label, values in outcomes.items()
            ],
        )
    )
    assert outcomes["no_margins"]["expected_cost"] <= outcomes["with_margins"]["expected_cost"]
    assert (
        outcomes["with_margins"]["satisfaction_rate"]
        >= outcomes["no_margins"]["satisfaction_rate"]
    )


def solver_comparison(model, constraints):
    greedy = solve_bigreedy(model, constraints)
    lp = solve_perfect_selectivity_lp(model, constraints)
    independent = solve_estimated_selectivity(model, constraints, independent=True)
    unknown = solve_estimated_selectivity(model, constraints, independent=False)
    return {
        "bigreedy": greedy.expected_cost,
        "scipy_lp": lp.expected_cost,
        "convex_independent": independent.expected_cost,
        "lp_unknown_correlations": unknown.expected_cost,
    }


def test_solver_equivalence_and_convex_ablation(run_once, bench_config):
    dataset = bench_config.load("census")
    index = GroupIndex(dataset.table, dataset.correlated_column)
    truth = dataset.ground_truth_row_ids()
    exact = SelectivityModel.from_ground_truth(index, truth)
    # Re-interpret the exact selectivities as estimates with a small variance
    # so that the convex programs have something to be cautious about.
    # The variance corresponds to a few hundred samples per group; much larger
    # values make the deliberately conservative unknown-correlations program
    # infeasible at benchmark scale.
    estimated = SelectivityModel.from_selectivities(
        sizes={g.key: g.size for g in exact},
        selectivities={g.key: g.selectivity for g in exact},
        variances={g.key: 1e-4 for g in exact},
    )
    constraints = QueryConstraints(0.8, 0.8, 0.8)
    costs = run_once(solver_comparison, estimated, constraints)
    print("\nAblation — solver comparison (Census-like dataset)")
    print(format_table(["solver", "expected_cost"], [[k, round(v)] for k, v in costs.items()]))

    assert np.isclose(costs["bigreedy"], costs["scipy_lp"], rtol=1e-3)
    assert costs["convex_independent"] <= costs["lp_unknown_correlations"] + 1e-6
    # Uncertainty-aware plans can only be at least as expensive as the
    # perfect-selectivity LP run on the same means.
    assert costs["convex_independent"] >= costs["bigreedy"] - 1e-6
