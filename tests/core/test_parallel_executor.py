"""Tests for ParallelBatchExecutor: the serial backend's coins, inline placement, accounting."""

import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor
import repro.core.procpool as procpool_module
from repro.core.parallel import ParallelBatchExecutor
from repro.core.pipeline import IntelSample, OptimalOracle
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor, default_max_workers
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


def _execute(table, seed=7, sample_outcome=None, free_memoized=False, udf=None):
    index = table.group_index("A")
    plan = _mixed_plan(index)
    ledger = CostLedger(free_memoized=free_memoized)
    executor = ParallelBatchExecutor(random_state=seed)
    result = executor.execute(
        table, index, udf or _udf(), plan, ledger, sample_outcome=sample_outcome
    )
    return result, ledger


class TestInvariance:
    def test_every_layout_returns_the_serial_backends_answer(self):
        """Plain and 1-7 shards, after a sample: BatchExecutor's rows, ledger
        and per-group counts, and the generator left where BatchExecutor
        leaves it — the span path draws the serial backend's coins, in its
        order, and no others."""
        plain = _table()
        index = plain.group_index("A")
        outcome = GroupSampler(random_state=3).sample(
            plain, index, _udf("sampler"), {value: 5 for value in index.values}, CostLedger()
        )
        serial, ledger = BatchExecutor(random_state=7), CostLedger()
        expected = serial.execute(
            plain, index, _udf("serial"), _mixed_plan(index), ledger, sample_outcome=outcome
        )
        next_draw = serial.random_state.random()
        for shards in (None, 1, 2, 3, 7):
            table = plain if shards is None else ShardedTable.from_table(plain, shards)
            executor, span_ledger = ParallelBatchExecutor(random_state=7), CostLedger()
            result = executor.execute(
                table, table.group_index("A"), _udf(), _mixed_plan(index), span_ledger,
                sample_outcome=outcome,
            )
            assert result.returned_row_ids.tolist() == expected.returned_row_ids.tolist()
            assert result.group_counts == expected.group_counts, shards
            assert (span_ledger.retrieved_count, span_ledger.evaluated_count) == (
                ledger.retrieved_count,
                ledger.evaluated_count,
            )
            assert executor.random_state.random() == next_draw
        returned = set(expected.returned_row_ids.tolist())
        positives = set(outcome.positives.tolist())
        assert positives <= returned  # returned free
        assert not (set(outcome.row_ids.tolist()) - positives) & returned  # never re-drawn

    def test_seed_changes_results(self):
        sharded = ShardedTable.from_table(_table(), num_shards=3)
        a, _ = _execute(sharded, seed=1)
        b, _ = _execute(sharded, seed=2)
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
                executor_factory=ParallelBatchExecutor,
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
                executor_factory=ParallelBatchExecutor,
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


class TestInlinePlacement:
    """Spans and bulk evaluations run on the calling thread, whatever the UDF."""

    @staticmethod
    def _recording_label_udf(name, seen):
        """A label-column UDF that notes the thread of every bulk call."""
        udf = _udf(name)
        real = udf.evaluate_rows

        def evaluate_rows(*args, **kwargs):
            seen.append(threading.get_ident())
            return real(*args, **kwargs)

        udf.evaluate_rows = evaluate_rows
        return udf

    def test_label_udf_work_never_leaves_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(procpool_module, "_MIN_PARALLEL_EVAL_ROWS", 1)
        sharded = ShardedTable.from_table(_table(), num_shards=4)
        here = threading.get_ident()

        seen = []
        _execute(sharded, udf=self._recording_label_udf("rec_execute", seen))
        assert len(seen) == 4  # one bulk call per span with work
        assert set(seen) == {here}

        seen.clear()
        udf = self._recording_label_udf("rec_bulk", seen)
        outcomes = ParallelBatchExecutor().evaluate_rows(
            sharded, udf, np.arange(sharded.num_rows)
        )
        assert seen == [here]  # one bulk call, on this thread
        assert udf.bulk_calls == 1
        expected = sharded.column_array("f", allow_hidden=True).astype(bool)
        assert np.array_equal(outcomes, expected)

    def test_the_module_holds_no_pool_machinery(self):
        """Neither a thread pool nor a context copy: spans run where called."""
        import ast

        import repro.core.parallel as parallel_module

        tree = ast.parse(Path(parallel_module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"concurrent", "contextvars", "threading", "os"}

    def test_sharded_bulk_evaluation_matches_serial_outcomes_and_counters(self):
        plain = _table(n=300)
        sharded = ShardedTable.from_table(plain, num_shards=3)
        ids = np.random.default_rng(5).permutation(300)[:200]

        serial_udf = _udf("bulk_serial")
        serial = serial_udf.evaluate_rows(plain, ids)

        inline_udf = _udf("bulk_inline")
        inline = ParallelBatchExecutor().evaluate_rows(sharded, inline_udf, ids)
        assert np.array_equal(serial, inline)
        assert inline_udf.call_count == serial_udf.call_count
        assert inline_udf.cache_misses == serial_udf.cache_misses
        assert inline_udf.bulk_calls == serial_udf.bulk_calls == 1

    def test_monolithic_table_is_one_bulk_call(self):
        plain = _table(n=100)
        udf = _udf("bulk_mono")
        outcomes = ParallelBatchExecutor().evaluate_rows(plain, udf, np.arange(100))
        assert outcomes.size == 100
        assert udf.bulk_calls == 1


class TestAccounting:
    def test_budget_exhaustion_raises_before_udf_work(self):
        sharded = ShardedTable.from_table(_table(), num_shards=3)
        udf = _udf("budgeted")
        index = sharded.group_index("A")
        plan = _mixed_plan(index)
        ledger = CostLedger()
        ledger.set_budget(1.0)  # cannot afford even one span's retrievals
        executor = ParallelBatchExecutor(random_state=0)
        with pytest.raises(BudgetExhaustedError):
            executor.execute(sharded, index, udf, plan, ledger)
        assert udf.call_count == 0

    def test_free_memoized_does_not_recharge_known_rows(self):
        plain = _table()
        udf = _udf("memoized")
        # pre-pay every row so serving accounting has nothing left to charge
        udf.evaluate_rows(plain, np.arange(plain.num_rows))
        sharded = ShardedTable.from_table(plain, num_shards=3)
        result, ledger = _execute(sharded, free_memoized=True, udf=udf)
        assert ledger.evaluated_count == 0
        assert ledger.retrieved_count > 0
        assert len(result.returned_row_ids) > 0

    def test_only_the_process_pool_takes_a_worker_count(self):
        with pytest.raises(TypeError):
            ParallelBatchExecutor(max_workers=2)

    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBatchExecutor(max_workers=0)
        assert default_max_workers() >= 1
