"""Tests for the probabilistic plan executor."""

import pytest

from repro.core.executor import PlanExecutor
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.udf import CostLedger
from repro.sampling.sampler import GroupSampler
from repro.stats.metrics import result_quality


class TestDeterministicPlans:
    def test_evaluate_everything_returns_ground_truth(
        self, toy_table, toy_index, toy_udf, toy_truth
    ):
        plan = ExecutionPlan.evaluate_everything(toy_index.values)
        ledger = CostLedger()
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, ledger, 0
        )
        assert result.returned_set == toy_truth
        assert ledger.retrieved_count == toy_table.num_rows
        assert ledger.evaluated_count == toy_table.num_rows

    def test_discard_everything_returns_nothing(
        self, toy_table, toy_index, toy_udf, assert_same_rows
    ):
        plan = ExecutionPlan.discard_everything(toy_index.values)
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0
        )
        assert_same_rows(result.returned_row_ids, [])
        assert result.total_cost == 0.0

    def test_return_without_evaluation_keeps_incorrect_tuples(
        self, toy_table, toy_index, toy_udf, toy_truth
    ):
        plan = ExecutionPlan(
            {1: GroupDecision.return_all(), 2: GroupDecision.return_all(), 3: GroupDecision.discard()}
        )
        ledger = CostLedger()
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, ledger, 0
        )
        assert len(result.returned_row_ids) == 7  # groups 1 and 2 in full
        assert ledger.evaluated_count == 0
        quality = result_quality(result.returned_row_ids, toy_truth)
        assert quality.precision == pytest.approx(5 / 7)

    def test_paper_example_plan(self, toy_table, toy_index, toy_udf, toy_truth):
        # Return group 1, evaluate group 2, discard group 3.
        plan = ExecutionPlan(
            {1: GroupDecision.return_all(), 2: GroupDecision.evaluate_all(), 3: GroupDecision.discard()}
        )
        ledger = CostLedger()
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, ledger, 0
        )
        quality = result_quality(result.returned_row_ids, toy_truth)
        assert quality.precision == 1.0  # group 1 all-correct, group 2 filtered
        assert ledger.evaluated_count == 3
        assert ledger.retrieved_count == 7

    def test_group_counts_bookkeeping(self, toy_table, toy_index, toy_udf):
        plan = ExecutionPlan({2: GroupDecision.evaluate_all()})
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0
        )
        counts = result.group_counts[2]
        assert counts.evaluated == 3
        assert counts.evaluated_correct == 1
        assert counts.evaluated_incorrect == 2
        assert counts.returned == 1


class TestProbabilisticPlans:
    def test_fractional_retrieval_probability_respected(self, small_lending_club):
        table = small_lending_club.table
        udf = small_lending_club.make_udf("frac")
        from repro.db.index import GroupIndex

        index = GroupIndex(table, "grade")
        plan = ExecutionPlan(
            {key: GroupDecision(retrieve=0.5, evaluate=0.0) for key in index.values}
        )
        ledger = CostLedger()
        result = PlanExecutor().execute(table, index, udf, plan, ledger, 1)
        fraction = ledger.retrieved_count / table.num_rows
        assert 0.4 < fraction < 0.6
        assert ledger.evaluated_count == 0

    def test_conditional_evaluation_probability(self, small_lending_club):
        table = small_lending_club.table
        udf = small_lending_club.make_udf("cond")
        from repro.db.index import GroupIndex

        index = GroupIndex(table, "grade")
        plan = ExecutionPlan(
            {key: GroupDecision(retrieve=1.0, evaluate=0.3) for key in index.values}
        )
        ledger = CostLedger()
        PlanExecutor().execute(table, index, udf, plan, ledger, 2)
        fraction = ledger.evaluated_count / table.num_rows
        assert 0.2 < fraction < 0.4

    def test_deterministic_given_seed(self, toy_table, toy_index, toy_udf, assert_same_rows):
        plan = ExecutionPlan(
            {key: GroupDecision(retrieve=0.5, evaluate=0.25) for key in toy_index.values}
        )
        a = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 3
        )
        b = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 3
        )
        assert_same_rows(a.returned_row_ids, b.returned_row_ids)


class TestSampledTupleHandling:
    def test_sampled_positives_returned_for_free(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 4, 2: 3, 3: 5}, CostLedger()
        )
        plan = ExecutionPlan.discard_everything(toy_index.values)
        ledger = CostLedger()
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, ledger, 0, sample_outcome=outcome
        )
        # Every positive found during sampling is in the output even though the
        # plan discards everything, and execution charges nothing extra.
        assert result.returned_set == set(outcome.positives.tolist())
        assert ledger.total_cost == 0.0

    def test_sampled_rows_not_reprocessed(self, toy_table, toy_index, toy_udf):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 2, 2: 2, 3: 2}, CostLedger()
        )
        plan = ExecutionPlan.evaluate_everything(toy_index.values)
        ledger = CostLedger()
        PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, ledger, 0, sample_outcome=outcome
        )
        assert ledger.evaluated_count == toy_table.num_rows - 6

    def test_returned_set_is_cached_and_read_only(self, toy_table, toy_index, toy_udf):
        plan = ExecutionPlan.evaluate_everything(toy_index.values)
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0
        )
        first = result.returned_set
        assert first is result.returned_set  # built once, not per access
        assert isinstance(first, frozenset)

    def test_no_duplicates_in_output(self, toy_table, toy_index, toy_udf, toy_truth):
        outcome = GroupSampler(random_state=0).sample(
            toy_table, toy_index, toy_udf, {1: 4, 2: 3, 3: 5}, CostLedger()
        )
        plan = ExecutionPlan.evaluate_everything(toy_index.values)
        result = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0, sample_outcome=outcome
        )
        assert len(result.returned_row_ids) == len(set(result.returned_row_ids))
        assert result.returned_set == toy_truth
