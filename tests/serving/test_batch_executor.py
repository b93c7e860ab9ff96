"""Tests for the vectorised batch execution backend."""

import numpy as np
import pytest

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor, PlanExecutor
from repro.core.pipeline import IntelSample
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.datasets.registry import load_dataset
from repro.db.index import GroupIndex
from repro.db.udf import CostLedger
from repro.stats.metrics import result_quality

DATASETS = ("lending_club", "census", "marketing")


class TestDeterministicPlans:
    """With 0/1 probabilities there is no randomness: backends must agree."""

    @pytest.mark.parametrize("retrieve,evaluate", [(1.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    def test_matches_serial_executor_exactly(
        self, toy_table, toy_udf, toy_index, retrieve, evaluate, assert_same_rows
    ):
        plan = ExecutionPlan(
            {key: GroupDecision(retrieve=retrieve, evaluate=evaluate) for key in toy_index.values}
        )
        serial = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0
        )
        toy_udf.reset()
        batch = BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0
        )
        assert_same_rows(batch.returned_row_ids, serial.returned_row_ids)
        assert batch.ledger.retrieved_count == serial.ledger.retrieved_count
        assert batch.ledger.evaluated_count == serial.ledger.evaluated_count

    def test_mixed_deterministic_plan(self, toy_table, toy_udf, toy_index, assert_same_rows):
        decisions = {}
        for position, key in enumerate(toy_index.values):
            cycle = position % 3
            decisions[key] = GroupDecision(
                retrieve=1.0 if cycle < 2 else 0.0,
                evaluate=1.0 if cycle == 0 else 0.0,
            )
        plan = ExecutionPlan(decisions)
        serial = PlanExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 1
        )
        toy_udf.reset()
        batch = BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 1
        )
        assert_same_rows(batch.returned_row_ids, serial.returned_row_ids)

    def test_sampled_positives_returned_for_free(self, toy_table, toy_udf, toy_index):
        from repro.sampling.sampler import GroupSampler
        from repro.sampling.schemes import ConstantScheme

        sampler = GroupSampler(random_state=3)
        allocation = ConstantScheme(2).allocate(toy_index.group_sizes())
        outcome = sampler.sample(toy_table, toy_index, toy_udf, allocation, CostLedger())
        plan = ExecutionPlan.discard_everything(toy_index.values)
        result = BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0, sample_outcome=outcome
        )
        assert sorted(result.returned_row_ids) == sorted(outcome.positives)
        assert result.ledger.retrieved_count == 0


class TestSeedDeterminism:
    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_fixed_seed_reproduces_row_ids(self, dataset_name, assert_same_rows):
        dataset = load_dataset(dataset_name, random_state=11, scale=0.02)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)

        def run():
            udf = dataset.make_udf(f"det_{dataset_name}")
            strategy = IntelSample(
                random_state=77,
                executor=BatchExecutor(),
            )
            return strategy.answer(
                dataset.table,
                udf,
                constraints,
                CostLedger(),
                correlated_column=dataset.correlated_column,
            )

        first, second = run(), run()
        assert_same_rows(first.row_ids, second.row_ids)
        assert first.ledger.evaluated_count == second.ledger.evaluated_count

    def test_different_seeds_differ(self):
        dataset = load_dataset("lending_club", random_state=11, scale=0.02)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)
        results = []
        for seed in (1, 2):
            strategy = IntelSample(
                random_state=seed,
                executor=BatchExecutor(),
            )
            results.append(
                strategy.answer(
                    dataset.table,
                    dataset.make_udf(f"seed_{seed}"),
                    constraints,
                    CostLedger(),
                    correlated_column="grade",
                ).row_ids
            )
        assert not np.array_equal(results[0], results[1])


class TestStatisticalEquivalence:
    def test_batch_backend_meets_constraints(self, small_lending_club):
        """The vectorised backend keeps the pipeline's quality guarantees."""
        dataset = small_lending_club
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)
        satisfied = 0
        runs = 5
        for seed in range(runs):
            strategy = IntelSample(
                random_state=seed,
                executor=BatchExecutor(),
            )
            result = strategy.answer(
                dataset.table,
                dataset.make_udf(f"batch_{seed}"),
                constraints,
                CostLedger(),
                correlated_column="grade",
            )
            quality = result_quality(result.row_ids, dataset.ground_truth_row_ids())
            if quality.satisfies(constraints.alpha, constraints.beta):
                satisfied += 1
        assert satisfied >= runs - 1

    def test_batch_cheaper_than_exhaustive(self, small_lending_club):
        dataset = small_lending_club
        ledger = CostLedger()
        IntelSample(
            random_state=5,
            executor=BatchExecutor(),
        ).answer(
            dataset.table,
            dataset.make_udf("batch_cheap"),
            QueryConstraints(alpha=0.8, beta=0.8, rho=0.8),
            ledger,
            correlated_column="grade",
        )
        assert ledger.evaluated_count < dataset.num_rows


class TestFreeMemoized:
    def test_memoized_rows_not_recharged(self, toy_table, toy_udf, toy_index):
        plan = ExecutionPlan.evaluate_everything(toy_index.values)
        # First pass pays for every row and fills the memo cache.
        first = BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(free_memoized=True), 0
        )
        assert first.ledger.evaluated_count == toy_table.num_rows
        # Second pass over the same rows is free under serving accounting.
        second = BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(free_memoized=True), 1
        )
        assert second.ledger.evaluated_count == 0
        assert sorted(second.returned_row_ids) == sorted(first.returned_row_ids)

    def test_paper_accounting_recharges(self, toy_table, toy_udf, toy_index):
        plan = ExecutionPlan.evaluate_everything(toy_index.values)
        BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 0
        )
        repeat = BatchExecutor().execute(
            toy_table, toy_index, toy_udf, plan, CostLedger(), 1
        )
        assert repeat.ledger.evaluated_count == toy_table.num_rows
