"""Tests for ParallelBatchExecutor: invariance, fan-out, accounting."""

import threading

import numpy as np
import pytest

from repro.core.constraints import QueryConstraints
from repro.core.parallel import ParallelBatchExecutor, default_max_workers
from repro.core.pipeline import IntelSample, OptimalOracle
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.errors import BudgetExhaustedError
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.sampling.sampler import GroupSampler


def _table(n=400, groups=5, seed=11):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        "ptab",
        {
            "A": [f"a{int(v)}" for v in rng.integers(0, groups, n)],
            "f": [bool(v) for v in rng.random(n) < 0.45],
        },
        hidden_columns=["f"],
    )


def _udf(name="pudf"):
    return UserDefinedFunction.from_label_column(name, "f")


def _mixed_plan(index):
    """A plan exercising every decision regime across the groups."""
    regimes = [
        (0.0, 0.0),  # skipped group
        (1.0, 1.0),  # retrieve and evaluate everything
        (0.6, 0.0),  # probabilistic retrieval, no evaluation
        (1.0, 0.5),  # certain retrieval, probabilistic evaluation
        (0.7, 0.8),  # probabilistic both
    ]
    decisions = {}
    for code, value in enumerate(index.values):
        retrieve, evaluate = regimes[code % len(regimes)]
        decisions[value] = GroupDecision(
            retrieve=retrieve, evaluate=retrieve * evaluate
        )
    return ExecutionPlan(decisions=decisions)


def _execute(table, workers, seed=7, sample_outcome=None, free_memoized=False, udf=None):
    index = table.group_index("A")
    plan = _mixed_plan(index)
    ledger = CostLedger()
    executor = ParallelBatchExecutor(
        random_state=seed, max_workers=workers, free_memoized=free_memoized
    )
    result = executor.execute(
        table, index, udf or _udf(), plan, ledger, sample_outcome=sample_outcome
    )
    return result, ledger


class TestInvariance:
    def test_identical_across_shard_layouts(self):
        plain = _table()
        reference, ref_ledger = _execute(plain, workers=1)
        for shards in (1, 2, 3, 7):
            sharded = ShardedTable.from_table(plain, num_shards=shards)
            result, ledger = _execute(sharded, workers=1)
            assert np.array_equal(
                np.asarray(reference.returned_row_ids),
                np.asarray(result.returned_row_ids),
            ), f"row ids diverged at {shards} shards"
            assert ledger.evaluated_count == ref_ledger.evaluated_count
            assert ledger.retrieved_count == ref_ledger.retrieved_count

    def test_identical_across_worker_counts(self):
        sharded = ShardedTable.from_table(_table(), num_shards=4)
        reference, ref_ledger = _execute(sharded, workers=1)
        for workers in (2, 3, 8):
            result, ledger = _execute(sharded, workers=workers)
            assert np.array_equal(
                np.asarray(reference.returned_row_ids),
                np.asarray(result.returned_row_ids),
            )
            assert ledger.evaluated_count == ref_ledger.evaluated_count

    def test_group_counts_match_across_layouts(self):
        plain = _table()
        sharded = ShardedTable.from_table(plain, num_shards=3)
        reference, _ = _execute(plain, workers=1)
        result, _ = _execute(sharded, workers=2)
        for key, counts in reference.group_counts.items():
            other = result.group_counts[key]
            assert (
                counts.retrieved,
                counts.evaluated,
                counts.returned,
                counts.evaluated_correct,
            ) == (other.retrieved, other.evaluated, other.returned, other.evaluated_correct)

    def test_sampled_rows_are_excluded_and_positives_returned_free(self):
        plain = _table()
        index = plain.group_index("A")
        udf = _udf("sampler_udf")
        sampler = GroupSampler(random_state=3)
        allocation = {value: 5 for value in index.values}
        outcome = sampler.sample(plain, index, udf, allocation, CostLedger())
        sampled = set(outcome.row_ids.tolist())
        positives = set(outcome.positives.tolist())

        reference, _ = _execute(plain, workers=1, sample_outcome=outcome)
        sharded = ShardedTable.from_table(plain, num_shards=4)
        result, _ = _execute(sharded, workers=2, sample_outcome=outcome)
        assert np.array_equal(
            np.asarray(reference.returned_row_ids),
            np.asarray(result.returned_row_ids),
        )
        returned = set(int(r) for r in result.returned_row_ids)
        assert positives <= returned
        # Sampled negatives can never re-enter through the probabilistic pass.
        assert not (sampled - positives) & returned

    def test_seed_changes_results(self):
        sharded = ShardedTable.from_table(_table(), num_shards=3)
        a, _ = _execute(sharded, workers=2, seed=1)
        b, _ = _execute(sharded, workers=2, seed=2)
        assert not np.array_equal(
            np.asarray(a.returned_row_ids), np.asarray(b.returned_row_ids)
        )


class TestPipelineParity:
    def test_intel_sample_sharded_equals_unsharded(self):
        plain = _table(n=600)
        sharded = ShardedTable.from_table(plain, num_shards=5)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)

        outcomes = []
        for table in (plain, sharded):
            udf = _udf(f"pipeline_{table.__class__.__name__}")
            ledger = CostLedger()
            strategy = IntelSample(
                random_state=42,
                executor_factory=lambda rng: ParallelBatchExecutor(
                    rng, max_workers=2
                ),
            )
            result = strategy.answer(
                table, udf, constraints, ledger, correlated_column="A"
            )
            outcomes.append(
                (list(int(r) for r in result.row_ids), ledger.evaluated_count,
                 ledger.retrieved_count, udf.call_count)
            )
        assert outcomes[0] == outcomes[1]

    def test_optimal_oracle_sharded_equals_unsharded(self):
        plain = _table(n=500)
        sharded = ShardedTable.from_table(plain, num_shards=4)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)

        outcomes = []
        for table in (plain, sharded):
            udf = _udf(f"oracle_{table.__class__.__name__}")
            ledger = CostLedger()
            oracle = OptimalOracle(
                random_state=13,
                executor_factory=lambda rng: ParallelBatchExecutor(
                    rng, max_workers=2
                ),
            )
            result = oracle.answer(
                table, udf, constraints, ledger, correlated_column="A"
            )
            outcomes.append(
                (list(int(r) for r in result.row_ids), ledger.evaluated_count)
            )
        assert outcomes[0] == outcomes[1]
        # the oracle peek must stay free and traceless
        assert outcomes[0][1] > 0


class TestBulkEvaluationFanOut:
    def test_matches_serial_outcomes_and_counters(self):
        plain = _table(n=300)
        sharded = ShardedTable.from_table(plain, num_shards=3)
        ids = np.random.default_rng(5).permutation(300)[:200]

        serial_udf = _udf("bulk_serial")
        serial = serial_udf.evaluate_rows(plain, ids)

        parallel_udf = _udf("bulk_parallel")
        executor = ParallelBatchExecutor(max_workers=3)
        # force the fan even below the size threshold
        executor_eval = executor.bulk_evaluator(parallel_udf)
        import repro.core.parallel as parallel_module

        original = parallel_module._MIN_PARALLEL_EVAL_ROWS
        parallel_module._MIN_PARALLEL_EVAL_ROWS = 1
        try:
            fanned = executor_eval(sharded, ids)
        finally:
            parallel_module._MIN_PARALLEL_EVAL_ROWS = original
        assert np.array_equal(serial, fanned)
        assert parallel_udf.call_count == serial_udf.call_count
        assert parallel_udf.cache_misses == serial_udf.cache_misses

    def test_monolithic_table_degrades_to_single_call(self):
        plain = _table(n=100)
        udf = _udf("bulk_mono")
        executor = ParallelBatchExecutor(max_workers=4)
        outcomes = executor.evaluate_rows(plain, udf, np.arange(100))
        assert outcomes.size == 100
        assert udf.bulk_calls == 1


class TestThreadPlacement:
    """Spans leave the calling thread only for a UDF that releases the GIL."""

    @staticmethod
    def _recording_udf(name, seen):
        def reveal(row):
            seen.add(threading.get_ident())
            return bool(row["f"])

        return UserDefinedFunction(name, reveal)

    def test_python_callable_udf_never_leaves_the_calling_thread(self, assert_same_rows):
        sharded = ShardedTable.from_table(_table(), num_shards=4)
        seen = set()
        fanned, fanned_ledger = _execute(
            sharded, workers=4, udf=self._recording_udf("rec_fan", seen)
        )
        assert seen == {threading.get_ident()}
        inline, inline_ledger = _execute(
            sharded, workers=1, udf=self._recording_udf("rec_inline", set())
        )
        assert_same_rows(fanned.returned_row_ids, inline.returned_row_ids)
        assert fanned_ledger.evaluated_count == inline_ledger.evaluated_count
        assert fanned_ledger.retrieved_count == inline_ledger.retrieved_count
        assert fanned.group_counts == inline.group_counts

    def test_python_callable_bulk_evaluation_never_fans(self, monkeypatch):
        import repro.core.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_MIN_PARALLEL_EVAL_ROWS", 1)
        sharded = ShardedTable.from_table(_table(), num_shards=4)
        seen = set()
        udf = self._recording_udf("rec_bulk", seen)
        outcomes = ParallelBatchExecutor(max_workers=4).evaluate_rows(
            sharded, udf, np.arange(sharded.num_rows)
        )
        assert outcomes.size == sharded.num_rows
        assert seen == {threading.get_ident()}
        assert udf.bulk_calls == 1  # one serial call, not one per span

    def test_label_udf_still_submits_to_the_shared_pool(self, record_pool_submits):
        import repro.core.parallel as parallel_module

        submitted = record_pool_submits(parallel_module, "shared_pool")
        sharded = ShardedTable.from_table(_table(), num_shards=4)
        fanned, _ = _execute(sharded, workers=4)
        assert len(submitted) == 4  # one per span with work
        submitted.clear()
        inline, _ = _execute(sharded, workers=1)
        assert submitted == []
        assert np.array_equal(fanned.returned_row_ids, inline.returned_row_ids)


class TestAccounting:
    def test_budget_exhaustion_raises_before_udf_work(self):
        sharded = ShardedTable.from_table(_table(), num_shards=3)
        udf = _udf("budgeted")
        index = sharded.group_index("A")
        plan = _mixed_plan(index)
        ledger = CostLedger()
        ledger.set_budget(1.0)  # cannot afford even one span's retrievals
        executor = ParallelBatchExecutor(random_state=0, max_workers=2)
        with pytest.raises(BudgetExhaustedError):
            executor.execute(sharded, index, udf, plan, ledger)
        assert udf.call_count == 0

    def test_free_memoized_does_not_recharge_known_rows(self):
        plain = _table()
        udf = _udf("memoized")
        # pre-pay every row so serving accounting has nothing left to charge
        udf.evaluate_rows(plain, np.arange(plain.num_rows))
        sharded = ShardedTable.from_table(plain, num_shards=3)
        result, ledger = _execute(
            sharded, workers=2, free_memoized=True, udf=udf
        )
        assert ledger.evaluated_count == 0
        assert ledger.retrieved_count > 0
        assert len(result.returned_row_ids) > 0

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ParallelBatchExecutor(max_workers=0)
        assert default_max_workers() >= 1
