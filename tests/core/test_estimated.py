"""Tests for the estimated-selectivity convex programs (Sections 3.3 / 4.2)."""

import math

import pytest

from repro.core.bigreedy import solve_bigreedy
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.estimated import solve_estimated_selectivity
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.core.plan import ExecutionPlan
from repro.core.sampling_program import solve_from_model, solve_with_samples
from repro.db.index import GroupIndex
from repro.db.udf import CostLedger
from repro.sampling.sampler import GroupSampler
from repro.stats.chebyshev import chebyshev_deviation_factor


@pytest.fixture
def estimated_model():
    """Three groups with sampling-based estimates (moderate uncertainty)."""
    return SelectivityModel(
        [
            GroupStatistics(key=1, size=1000, selectivity=0.9, variance=0.001,
                            sampled=50, sampled_positives=45),
            GroupStatistics(key=2, size=1000, selectivity=0.5, variance=0.002,
                            sampled=50, sampled_positives=25),
            GroupStatistics(key=3, size=1000, selectivity=0.1, variance=0.001,
                            sampled=50, sampled_positives=5),
        ]
    )


def chebyshev_constraint_values(model, plan, constraints):
    """LHS minus RHS of the independent-groups precision and recall constraints."""
    alpha, beta = constraints.alpha, constraints.beta
    e_rho = chebyshev_deviation_factor(constraints.rho)
    precision_expect = 0.0
    precision_var = 0.0
    recall_expect = 0.0
    recall_var = 0.0
    total_correct = 0.0
    for group in model:
        decision = plan.decision(group.key)
        r, e = decision.retrieve_probability, decision.evaluate_probability
        rem = group.remaining
        precision_expect += group.sampled_positives * (1 - alpha)
        precision_expect += (1 - alpha) * rem * group.selectivity * r
        precision_expect -= alpha * rem * (1 - group.selectivity) * (r - e)
        precision_var += rem**2 * group.variance * (r - alpha * e) ** 2 + 0.25 * rem
        recall_expect += group.sampled_positives + rem * group.selectivity * r
        recall_var += rem**2 * group.variance * (r - beta) ** 2 + 0.25 * rem
        total_correct += group.sampled_positives + rem * group.selectivity
    recall_expect -= beta * total_correct
    return (
        precision_expect - e_rho * math.sqrt(precision_var),
        recall_expect - e_rho * math.sqrt(recall_var),
    )


class TestIndependentProgram:
    def test_constraints_satisfied(self, estimated_model, default_constraints):
        solution = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=True
        )
        precision_slack, recall_slack = chebyshev_constraint_values(
            estimated_model, solution.plan, default_constraints
        )
        assert precision_slack >= -1.0  # small numerical slack on ~1000-tuple scale
        assert recall_slack >= -1.0

    def test_cheaper_than_unknown_correlations(self, estimated_model, default_constraints):
        independent = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=True
        )
        unknown = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=False
        )
        # Quadrature deviations are never larger than summed deviations, so the
        # independent program can only be cheaper (or equal).
        assert independent.expected_cost <= unknown.expected_cost + 1e-6

    def test_more_expensive_than_perfect_selectivities(self, estimated_model, default_constraints):
        exact_model = SelectivityModel.from_selectivities(
            sizes={g.key: g.remaining for g in estimated_model},
            selectivities={g.key: g.selectivity for g in estimated_model},
        )
        estimated = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=True
        )
        exact = solve_bigreedy(exact_model, default_constraints)
        assert estimated.expected_cost >= exact.expected_cost - 1e-6

    def test_high_selectivity_group_returned_without_evaluation(
        self, estimated_model, default_constraints
    ):
        solution = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=True
        )
        decision = solution.plan.decision(1)
        assert decision.retrieve_probability > 0.9
        assert decision.evaluate_probability < 0.5

    def test_browsing_scenario(self, estimated_model):
        solution = solve_estimated_selectivity(
            estimated_model, QueryConstraints(1.0, 0.8, 0.8), independent=True
        )
        for key, decision in solution.plan:
            assert decision.evaluate_probability == pytest.approx(
                decision.retrieve_probability, abs=1e-6
            )

    def test_cost_grows_with_uncertainty(self, default_constraints):
        def model_with_variance(variance):
            return SelectivityModel(
                [
                    GroupStatistics(key=k, size=1000, selectivity=s, variance=variance)
                    for k, s in ((1, 0.9), (2, 0.5), (3, 0.1))
                ]
            )

        low = solve_estimated_selectivity(
            model_with_variance(1e-4), default_constraints, independent=True
        )
        high = solve_estimated_selectivity(
            model_with_variance(2e-2), default_constraints, independent=True
        )
        assert high.expected_cost >= low.expected_cost - 1e-6

    def test_empty_model(self, default_constraints):
        solution = solve_estimated_selectivity(
            SelectivityModel([]), default_constraints, independent=True
        )
        assert solution.expected_cost == 0.0


class TestUnknownCorrelationsProgram:
    def test_constraints_satisfied_linearly(self, estimated_model, default_constraints):
        solution = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=False
        )
        # The linear (unknown correlations) program upper-bounds deviations by
        # their sum, so its solution also satisfies the quadrature version.
        precision_slack, recall_slack = chebyshev_constraint_values(
            estimated_model, solution.plan, default_constraints
        )
        assert precision_slack >= -1.0
        assert recall_slack >= -1.0

    def test_plan_probabilities_valid(self, estimated_model, default_constraints):
        solution = solve_estimated_selectivity(
            estimated_model, default_constraints, independent=False
        )
        for key, decision in solution.plan:
            assert 0.0 <= decision.evaluate_probability <= decision.retrieve_probability <= 1.0

    def test_empty_model(self, default_constraints):
        solution = solve_estimated_selectivity(
            SelectivityModel([]), default_constraints, independent=False
        )
        assert solution.expected_cost == 0.0


class TestSamplingProgram:
    @pytest.mark.parametrize("level", [0.5, 0.9], ids=["feasible", "infeasible"])
    def test_solution_from_samples(self, toy_table, toy_index, toy_udf, level):
        ledger = CostLedger()
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 2, 3: 2}, ledger
        )
        solution = solve_with_samples(
            toy_index, outcome, QueryConstraints(level, level, level), CostModel()
        )
        assert solution.sunk_sampling_cost == pytest.approx(6 * 4.0)
        assert solution.expected_total_cost >= solution.expected_execution_cost
        if level == 0.9:  # two samples a group cannot meet .9: evaluate everything
            plan = ExecutionPlan.evaluate_everything(toy_index.values)
            assert solution.used_fallback and solution.plan.decisions == plan.decisions
            assert solution.expected_total_cost == plan.expected_cost(solution.model, CostModel())

    def test_solve_from_model_equivalent(self, estimated_model, default_constraints):
        direct = solve_from_model(estimated_model, default_constraints)
        assert direct.sunk_sampling_cost == pytest.approx(150 * 4.0)
        assert direct.plan is not None

    def test_fully_sampled_table_costs_nothing_more(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 4, 2: 3, 3: 5}, CostLedger()
        )
        solution = solve_with_samples(
            toy_index, outcome, QueryConstraints(0.5, 0.5, 0.5), CostModel()
        )
        assert solution.expected_execution_cost == pytest.approx(0.0, abs=1e-6)
