"""Tests for the core data model: groups, constraints, cost model, plans."""

import copy
import pickle

import pytest

from repro.core.constraints import CostModel, QueryConstraints
from repro.core.groups import GroupStatistics, SelectivityModel
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.index import GroupIndex
from repro.db.udf import CostLedger
from repro.sampling.sampler import GroupSampler


class TestQueryConstraints:
    def test_defaults_match_paper(self):
        constraints = QueryConstraints()
        assert constraints.alpha == constraints.beta == constraints.rho == 0.8

    def test_browsing_scenario_flag(self):
        assert QueryConstraints(alpha=1.0, beta=0.5, rho=0.8).requires_perfect_precision

    def test_perfect_recall_flag(self):
        assert QueryConstraints(alpha=0.5, beta=1.0, rho=0.8).requires_perfect_recall

    def test_with_methods_return_copies(self):
        base = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)
        assert base.with_alpha(0.9).alpha == 0.9
        assert base.with_beta(0.7).beta == 0.7
        assert base.with_rho(0.95).rho == 0.95
        assert base.alpha == 0.8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            QueryConstraints(alpha=1.5)
        with pytest.raises(ValueError):
            QueryConstraints(beta=-0.1)
        with pytest.raises(ValueError):
            QueryConstraints(rho=1.0)


class TestCostModel:
    def test_plan_cost(self):
        cost_model = CostModel(retrieval_cost=1.0, evaluation_cost=3.0)
        assert cost_model.plan_cost(10, 4) == pytest.approx(22.0)

    def test_ratio(self):
        assert CostModel(1.0, 3.0).evaluation_to_retrieval_ratio == pytest.approx(3.0)

    def test_zero_retrieval_cost_ratio(self):
        assert CostModel(0.0, 3.0).evaluation_to_retrieval_ratio == float("inf")

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(retrieval_cost=-1.0)


class TestGroupStatistics:
    def test_exact_counts_derive_selectivity(self):
        model = SelectivityModel.from_exact_counts({"a": (90, 10)})
        group = model.group("a")
        assert group.size == 100
        assert group.selectivity == pytest.approx(0.9)
        assert group.has_exact_counts

    def test_sampled_bookkeeping(self):
        group = GroupStatistics(
            key="a", size=100, selectivity=0.6, variance=0.01,
            sampled=20, sampled_positives=12,
        )
        assert group.remaining == 80
        assert group.sampled_negatives == 8
        assert group.expected_correct == pytest.approx(12 + 80 * 0.6)

    def test_expected_correct_prefers_exact_counts(self):
        group = GroupStatistics(
            key="a", size=10, selectivity=0.5, correct_count=7, incorrect_count=3
        )
        assert group.expected_correct == 7.0

    def test_invalid_statistics_rejected(self):
        with pytest.raises(ValueError):
            GroupStatistics(key="a", size=-1, selectivity=0.5)
        with pytest.raises(ValueError):
            GroupStatistics(key="a", size=10, selectivity=1.5)
        with pytest.raises(ValueError):
            GroupStatistics(key="a", size=10, selectivity=0.5, sampled=11)
        with pytest.raises(ValueError):
            GroupStatistics(key="a", size=10, selectivity=0.5, sampled=2, sampled_positives=3)
        with pytest.raises(ValueError):
            GroupStatistics(key="a", size=10, selectivity=0.5, correct_count=5, incorrect_count=6)

    def test_with_selectivity(self):
        group = GroupStatistics(key="a", size=10, selectivity=0.5)
        updated = group.with_selectivity(0.7, variance=0.02)
        assert updated.selectivity == 0.7
        assert group.selectivity == 0.5


class TestSelectivityModel:
    def test_example_totals(self, example_model):
        assert example_model.total_size == 3000
        assert example_model.expected_correct_total == pytest.approx(1500)
        assert example_model.overall_selectivity == pytest.approx(0.5)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            SelectivityModel(
                [
                    GroupStatistics(key="a", size=1, selectivity=0.5),
                    GroupStatistics(key="a", size=2, selectivity=0.5),
                ]
            )

    def test_sorted_by_selectivity(self, selectivity_model):
        descending = selectivity_model.sorted_by_selectivity()
        assert [g.key for g in descending] == [1, 2, 3]
        ascending = selectivity_model.sorted_by_selectivity(descending=False)
        assert [g.key for g in ascending] == [3, 2, 1]

    def test_minimum_positive_selectivity(self):
        model = SelectivityModel.from_selectivities(
            sizes={"a": 10, "b": 10, "c": 10},
            selectivities={"a": 0.0, "b": 0.2, "c": 0.9},
        )
        assert model.minimum_positive_selectivity == pytest.approx(0.2)

    def test_group_lookup_errors(self, selectivity_model):
        with pytest.raises(KeyError):
            selectivity_model.group("missing")
        assert not selectivity_model.has_group("missing")

    def test_from_ground_truth(self, toy_table, toy_index, toy_truth):
        model = SelectivityModel.from_ground_truth(toy_index, toy_truth)
        assert model.group(1).correct_count == 4
        assert model.group(2).correct_count == 1
        assert model.group(3).correct_count == 1

    def test_from_sample_outcome(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 4, 2: 3, 3: 5}, CostLedger()
        )
        model = SelectivityModel.from_sample_outcome(toy_index, outcome)
        # Group 1 is all-positive: posterior mean (4+1)/(4+2).
        assert model.group(1).selectivity == pytest.approx(5 / 6)
        assert model.group(1).sampled == 4
        assert model.total_remaining == 0

    def test_unsampled_group_gets_uninformed_prior(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 2}, CostLedger()
        )
        model = SelectivityModel.from_sample_outcome(toy_index, outcome)
        assert model.group(3).selectivity == pytest.approx(0.5)
        assert model.group(3).variance > model.group(1).variance


class TestGroupDecision:
    def test_factories(self):
        assert GroupDecision.discard().retrieve_probability == 0.0
        assert GroupDecision.return_all().evaluate_probability == 0.0
        assert GroupDecision.evaluate_all().evaluate_probability == 1.0

    def test_conditional_probability(self):
        decision = GroupDecision(retrieve=0.8, evaluate=0.4)
        assert decision.conditional_evaluate_probability == pytest.approx(0.5)

    def test_conditional_probability_zero_retrieve(self):
        assert GroupDecision.discard().conditional_evaluate_probability == 0.0

    def test_determinism_flag(self):
        assert GroupDecision.evaluate_all().is_deterministic
        assert not GroupDecision(retrieve=0.7, evaluate=0.1).is_deterministic

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            GroupDecision(retrieve=1.2, evaluate=0.0)
        with pytest.raises(ValueError):
            GroupDecision(retrieve=0.5, evaluate=0.7)

    def test_clipped_probabilities_are_not_state(self):
        # Slightly outside [0, 1] within tolerance: clipped, but repr, ==
        # and hash see the pair as given.
        decision = GroupDecision(retrieve=1.0 + 1e-12, evaluate=-1e-12)
        assert (decision.retrieve_probability, decision.evaluate_probability) == (1.0, 0.0)
        assert repr(decision) == f"GroupDecision(retrieve={1.0 + 1e-12!r}, evaluate={-1e-12!r})"
        assert decision != GroupDecision(retrieve=1.0, evaluate=0.0)
        assert {decision: 1}[GroupDecision(retrieve=1.0 + 1e-12, evaluate=-1e-12)] == 1

    def test_pickled_form_holds_the_pair_only(self):
        # Protocol 4 (the warm blob's) bytes of GroupDecision(0.75, 0.25), as
        # written when the clipped probabilities were properties: an older
        # blob restores, and a new one is byte-identical to it.
        older = (
            b"\x80\x04\x95U\x00\x00\x00\x00\x00\x00\x00\x8c\x0frepro.core.plan\x94"
            b"\x8c\rGroupDecision\x94\x93\x94)\x81\x94}\x94(\x8c\x08retrieve\x94"
            b"G?\xe8\x00\x00\x00\x00\x00\x00\x8c\x08evaluate\x94G?\xd0\x00\x00\x00"
            b"\x00\x00\x00ub."
        )
        decision = GroupDecision(retrieve=0.75, evaluate=0.25)
        assert pickle.dumps(decision, protocol=4) == older
        restored = pickle.loads(older)
        assert restored == decision
        assert restored.conditional_evaluate_probability == pytest.approx(1 / 3)
        assert copy.deepcopy(decision).evaluate_probability == 0.25


class TestExecutionPlan:
    def test_expected_cost_matches_hand_computation(self, selectivity_model):
        plan = ExecutionPlan.from_probabilities(
            retrieve={1: 1.0, 2: 1.0, 3: 0.0},
            evaluate={1: 0.0, 2: 1.0, 3: 0.0},
        )
        cost_model = CostModel(retrieval_cost=1.0, evaluation_cost=3.0)
        # Retrievals: 2000, evaluations: 1000 -> cost 2000 + 3000.
        assert plan.expected_cost(selectivity_model, cost_model) == pytest.approx(5000.0)
        assert plan.expected_retrievals(selectivity_model) == pytest.approx(2000.0)
        assert plan.expected_evaluations(selectivity_model) == pytest.approx(1000.0)

    def test_expected_precision_recall_example(self, selectivity_model):
        # Return group 1, evaluate group 2, discard group 3 (paper Example 3.1).
        plan = ExecutionPlan.from_probabilities(
            retrieve={1: 1.0, 2: 1.0, 3: 0.0},
            evaluate={1: 0.0, 2: 1.0, 3: 0.0},
        )
        precision = plan.expected_precision(selectivity_model)
        recall = plan.expected_recall(selectivity_model)
        assert precision == pytest.approx(1400 / 1500)
        assert recall == pytest.approx(1400 / 1500)

    def test_missing_group_defaults_to_discard(self, selectivity_model):
        plan = ExecutionPlan({})
        assert plan.decision(1).retrieve_probability == 0.0
        assert plan.expected_cost(selectivity_model, CostModel()) == 0.0

    def test_evaluate_everything_factory(self, selectivity_model):
        plan = ExecutionPlan.evaluate_everything(selectivity_model.keys)
        assert plan.expected_evaluations(selectivity_model) == pytest.approx(3000.0)
        assert plan.expected_precision(selectivity_model) == pytest.approx(1.0)
        assert plan.expected_recall(selectivity_model) == pytest.approx(1.0)

    def test_discard_everything_factory(self, selectivity_model):
        plan = ExecutionPlan.discard_everything(selectivity_model.keys)
        assert plan.expected_recall(selectivity_model) == pytest.approx(0.0)

    def test_from_probabilities_requires_aligned_keys(self):
        with pytest.raises(ValueError):
            ExecutionPlan.from_probabilities(retrieve={1: 1.0}, evaluate={2: 1.0})

    def test_sunk_sampling_cost_included(self):
        model = SelectivityModel(
            [
                GroupStatistics(
                    key="a", size=100, selectivity=0.5, sampled=10, sampled_positives=5
                )
            ]
        )
        plan = ExecutionPlan.discard_everything(["a"])
        cost_model = CostModel(1.0, 3.0)
        assert plan.expected_cost(model, cost_model, include_sampling=True) == pytest.approx(40.0)
        assert plan.expected_cost(model, cost_model, include_sampling=False) == 0.0

    def test_is_deterministic(self):
        plan = ExecutionPlan.evaluate_everything(["a", "b"])
        assert plan.is_deterministic
        plan2 = ExecutionPlan({"a": GroupDecision(retrieve=0.5, evaluate=0.1)})
        assert not plan2.is_deterministic

    def test_describe_contains_groups(self):
        plan = ExecutionPlan.evaluate_everything(["x"])
        assert "x" in plan.describe()

    def test_equality(self):
        a = ExecutionPlan.evaluate_everything(["x"])
        b = ExecutionPlan.evaluate_everything(["x"])
        assert a == b
