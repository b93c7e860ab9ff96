"""Tests for the Naive, Learning and Multiple baselines."""

import math

import pytest

from repro.baselines import LearningBaseline, MultipleImputationBaseline, NaiveBaseline
from repro.core.constraints import QueryConstraints
from repro.db.udf import CostLedger
from repro.stats.metrics import result_quality


@pytest.fixture
def constraints():
    return QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)


class TestNaive:
    def test_evaluates_beta_fraction(self, small_lending_club, constraints):
        ledger = CostLedger()
        NaiveBaseline(random_state=0).answer(
            small_lending_club.table, small_lending_club.make_udf("naive"),
            constraints, ledger,
        )
        expected = math.ceil(constraints.beta * small_lending_club.num_rows)
        assert ledger.evaluated_count == expected
        assert ledger.retrieved_count == expected

    def test_perfect_precision(self, small_lending_club, constraints):
        result = NaiveBaseline(random_state=1).answer(
            small_lending_club.table, small_lending_club.make_udf("naive_p"),
            constraints, CostLedger(),
        )
        quality = result_quality(result.row_ids, small_lending_club.ground_truth_row_ids())
        assert quality.precision == 1.0

    def test_recall_close_to_beta_in_expectation(self, small_lending_club, constraints):
        recalls = []
        for seed in range(5):
            result = NaiveBaseline(random_state=seed).answer(
                small_lending_club.table, small_lending_club.make_udf(f"naive_{seed}"),
                constraints, CostLedger(),
            )
            quality = result_quality(
                result.row_ids, small_lending_club.ground_truth_row_ids()
            )
            recalls.append(quality.recall)
        average = sum(recalls) / len(recalls)
        assert abs(average - constraints.beta) < 0.05

    def test_beta_zero_returns_nothing(self, small_lending_club, assert_same_rows):
        result = NaiveBaseline(random_state=2).answer(
            small_lending_club.table, small_lending_club.make_udf("naive_zero"),
            QueryConstraints(alpha=0.8, beta=0.0, rho=0.8), CostLedger(),
        )
        assert_same_rows(result.row_ids, [])

    def test_metadata(self, small_lending_club, constraints):
        result = NaiveBaseline(random_state=3).answer(
            small_lending_club.table, small_lending_club.make_udf("naive_meta"),
            constraints, CostLedger(),
        )
        assert result.metadata["strategy"] == "naive"


class TestLearning:
    def test_meets_constraints(self, tiny_lending_club, constraints):
        dataset = tiny_lending_club
        result = LearningBaseline(random_state=0).answer(
            dataset.table, dataset.make_udf("learning"), constraints, CostLedger()
        )
        quality = result_quality(result.row_ids, dataset.ground_truth_row_ids())
        assert quality.satisfies(constraints.alpha, constraints.beta)

    def test_cost_includes_training_evaluations(self, tiny_lending_club, constraints):
        dataset = tiny_lending_club
        ledger = CostLedger()
        result = LearningBaseline(random_state=1).answer(
            dataset.table, dataset.make_udf("learning_cost"), constraints, ledger
        )
        assert ledger.evaluated_count == result.metadata["training_size"]
        assert ledger.evaluated_count > 0
        assert ledger.evaluated_count < dataset.num_rows

    def test_training_fractions_validated(self):
        with pytest.raises(ValueError):
            LearningBaseline(training_fractions=())

    def test_easy_constraints_use_smallest_fraction(self, tiny_lending_club):
        dataset = tiny_lending_club
        loose = QueryConstraints(alpha=0.1, beta=0.1, rho=0.8)
        result = LearningBaseline(
            training_fractions=(0.05, 0.5), random_state=2
        ).answer(dataset.table, dataset.make_udf("learning_easy"), loose, CostLedger())
        assert result.metadata["training_size"] <= int(0.05 * dataset.num_rows) + 1


class TestMultiple:
    def test_meets_constraints(self, tiny_lending_club, constraints):
        dataset = tiny_lending_club
        result = MultipleImputationBaseline(random_state=0).answer(
            dataset.table, dataset.make_udf("multiple"), constraints, CostLedger()
        )
        quality = result_quality(result.row_ids, dataset.ground_truth_row_ids())
        assert quality.satisfies(constraints.alpha, constraints.beta)

    def test_metadata_and_cost(self, tiny_lending_club, constraints):
        dataset = tiny_lending_club
        ledger = CostLedger()
        result = MultipleImputationBaseline(random_state=1).answer(
            dataset.table, dataset.make_udf("multiple_cost"), constraints, ledger
        )
        assert result.metadata["strategy"] == "multiple_imputation"
        assert ledger.evaluated_count == result.metadata["training_size"]

    def test_rejects_empty_training_schedule(self):
        with pytest.raises(ValueError):
            MultipleImputationBaseline(training_fractions=())
