"""One answer type: every producer hands out a read-only 1-d ``intp`` array.

``ExecutionResult.returned_row_ids`` and ``QueryResult.row_ids`` used to be a
python list from the serial backends and an array from the parallel ones.
They are now one thing, normalised where the two dataclasses are built, so
this module walks every producer in the package — the four executors, the
exact scan, the three baselines, the adaptive strategy, both pipeline
strategies and both serving paths — and checks the type, including on empty
answers; that the vectorised backend still equals the tuple-at-a-time oracle
seed for seed on every table kind; and that what callers did with a list
(``len``, iteration, ``sorted``, set conversion) still works.
"""

import tempfile

import numpy as np
import pytest

from repro.baselines import LearningBaseline, MultipleImputationBaseline, NaiveBaseline
from repro.core.adaptive import AdaptiveIntelSample
from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor, ExecutionResult, PlanExecutor
from repro.core.parallel import ParallelBatchExecutor
from repro.core.pipeline import IntelSample, OptimalOracle
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.catalog import Catalog
from repro.db.engine import Engine, QueryResult
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.shm import release_exports
from repro.db.storage import TableStore
from repro.db.table import Table, as_row_ids
from repro.db.udf import CostLedger, RevealLabel, UserDefinedFunction
from repro.serving import QueryService

from leakcheck import assert_no_leaked_resources

CONSTRAINTS = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)


def assert_answer_type(ids):
    assert isinstance(ids, np.ndarray), type(ids)
    assert ids.dtype == np.intp
    assert ids.ndim == 1
    assert not ids.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ids[:1] = 0


def _columns(rows=600, groups=5, seed=11):
    rng = np.random.default_rng(seed)
    return {
        "A": [f"a{int(v)}" for v in rng.integers(0, groups, rows)],
        "f": [bool(v) for v in rng.random(rows) < 0.45],
    }


def _table(name="rtab", **kwargs):
    return Table.from_columns(name, _columns(**kwargs), hidden_columns=["f"])


def _mixed_plan(index):
    regimes = [(0.0, 0.0), (1.0, 1.0), (0.6, 0.0), (1.0, 0.5), (0.7, 0.8)]
    return ExecutionPlan(
        decisions={
            value: GroupDecision(retrieve=r, evaluate=r * e)
            for value, (r, e) in zip(
                index.values, regimes * (len(index.values) // len(regimes) + 1)
            )
        }
    )


def _discard_plan(index):
    return ExecutionPlan(
        decisions={value: GroupDecision(retrieve=0.0, evaluate=0.0) for value in index.values}
    )


def _label_udf(name="rudf"):
    return UserDefinedFunction.from_label_column(name, "f")


EXECUTORS = {
    "plan": PlanExecutor(),
    "batch": BatchExecutor(),
    "inline": ParallelBatchExecutor(),
    "process": ProcessPoolBatchExecutor(max_workers=2),
}


class TestNormalisation:
    def test_list_input_becomes_the_answer_type(self):
        for ids in (
            QueryResult(row_ids=[3, 1, 2], ledger=CostLedger()).row_ids,
            ExecutionResult(returned_row_ids=[3, 1, 2], ledger=CostLedger()).returned_row_ids,
        ):
            assert_answer_type(ids)
            assert ids.tolist() == [3, 1, 2]

    def test_empty_input_is_an_empty_intp_array(self):
        for empty in ([], (), np.empty(0, dtype=np.intp), range(0)):
            ids = QueryResult(row_ids=empty, ledger=CostLedger()).row_ids
            assert_answer_type(ids)
            assert ids.size == 0

    def test_intp_array_is_handed_over_not_copied(self):
        produced = np.arange(5, dtype=np.intp)
        ids = ExecutionResult(returned_row_ids=produced, ledger=CostLedger()).returned_row_ids
        assert ids is produced
        assert_answer_type(ids)
        with pytest.raises(ValueError, match="read-only"):
            produced[0] = 9  # the producer gave it away: no edits behind the result's back
        # Handed on as is, which is how results share one answer.
        assert QueryResult(row_ids=ids, ledger=CostLedger()).row_ids is ids

    def test_other_integer_widths_and_sequences_are_converted(self):
        assert_answer_type(as_row_ids(np.array([1, 2], dtype=np.int32)))
        assert_answer_type(as_row_ids((4, 5)))
        assert as_row_ids(range(3)).tolist() == [0, 1, 2]

    def test_non_one_dimensional_input_is_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_row_ids(np.zeros((2, 2), dtype=np.intp))
        with pytest.raises(ValueError, match="one-dimensional"):
            as_row_ids(7)

    def test_list_like_behaviour_is_kept(self):
        result = QueryResult(row_ids=[5, 3, 9], ledger=CostLedger())
        assert len(result) == 3 and len(result.row_ids) == 3
        assert [int(row) for row in result.row_ids] == [5, 3, 9]
        assert sorted(result.row_ids) == [3, 5, 9]
        assert result.row_id_set == frozenset({3, 5, 9})
        assert all(type(row) is int for row in result.row_id_set)
        assert set(result.row_ids) == {3, 5, 9}
        assert 9 in result.row_ids and 4 not in result.row_ids
        assert all(type(row) is int for row in result.row_ids.tolist())
        execution = ExecutionResult(returned_row_ids=[5, 3, 9], ledger=CostLedger())
        assert execution.returned_set == frozenset({3, 5, 9})
        assert all(type(row) is int for row in execution.returned_set)


class TestExecutors:
    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    @pytest.mark.parametrize("plan_of", [_mixed_plan, _discard_plan])
    def test_every_executor_returns_the_answer_type(self, backend, plan_of):
        table = ShardedTable.from_table(_table(), num_shards=4)
        try:
            index = table.group_index("A")
            result = EXECUTORS[backend].execute(
                table, index, _label_udf(), plan_of(index), CostLedger(), 7
            )
            assert_answer_type(result.returned_row_ids)
            if plan_of is _discard_plan:
                assert result.returned_row_ids.size == 0
            else:
                assert result.returned_row_ids.size > 0
                assert result.returned_set == frozenset(result.returned_row_ids.tolist())
        finally:
            release_exports(table)
        assert_no_leaked_resources()

    def test_process_executor_with_a_python_callable_udf(self):
        table = ShardedTable.from_table(_table(), num_shards=4)
        try:
            index = table.group_index("A")
            plan = _mixed_plan(index)
            results = [
                executor.execute(
                    table, index, UserDefinedFunction(f"py{i}", RevealLabel("f", True)),
                    plan, CostLedger(), 7,
                )
                for i, executor in enumerate((EXECUTORS["inline"], EXECUTORS["process"]))
            ]
            for result in results:
                assert_answer_type(result.returned_row_ids)
            assert np.array_equal(results[0].returned_row_ids, results[1].returned_row_ids)
        finally:
            release_exports(table)
        assert_no_leaked_resources()

    @pytest.mark.parametrize("kind", ["table", "sharded", "lazy"])
    def test_batch_equals_the_plan_executor_oracle_seed_for_seed(
        self, kind, assert_same_rows
    ):
        columns = _columns(rows=900, groups=6, seed=3)
        with tempfile.TemporaryDirectory() as directory:
            manager = None
            if kind == "table":
                table = Table.from_columns("otab", columns, hidden_columns=["f"])
            else:
                table = ShardedTable.from_columns(
                    "otab", columns, hidden_columns=["f"], shard_rows=128
                )
                if kind == "lazy":
                    store = TableStore(directory)
                    store.save(table)
                    manager = ResidencyManager(budget_bytes=4096)
                    table, _report = store.open(residency=manager)
            try:
                index = table.group_index("A")
                plan = _mixed_plan(index)
                for seed in range(6):
                    ledgers = CostLedger(), CostLedger()
                    oracle = PlanExecutor().execute(
                        table, index, _label_udf("o"), plan, ledgers[0], seed
                    )
                    batch = BatchExecutor().execute(
                        table, index, _label_udf("b"), plan, ledgers[1], seed
                    )
                    assert_answer_type(batch.returned_row_ids)
                    assert_answer_type(oracle.returned_row_ids)
                    assert_same_rows(batch.returned_row_ids, oracle.returned_row_ids)
                    assert ledgers[1].retrieved_count == ledgers[0].retrieved_count
                    assert ledgers[1].evaluated_count == ledgers[0].evaluated_count
            finally:
                if manager is not None:
                    manager.evict_all()
                del table
        assert_no_leaked_resources()


class TestStrategiesAndEngine:
    def test_exact_scan(self, tiny_lending_club):
        dataset = tiny_lending_club
        catalog = Catalog()
        catalog.register_table(dataset.table)
        udf = dataset.make_udf("exact_arrays")
        catalog.register_udf(udf)
        engine = Engine(catalog)
        query = SelectQuery(table=dataset.table.name, predicate=UdfPredicate(udf))
        result = engine.execute(query, audit=True)
        assert_answer_type(result.row_ids)
        assert result.row_id_set == frozenset(dataset.ground_truth_row_ids())
        assert result.quality.precision == result.quality.recall == 1.0

    def test_exact_scan_with_no_match_is_an_empty_array(self):
        table = Table.from_columns(
            "nomatch", {"A": list("abab"), "f": [False] * 4}, hidden_columns=["f"]
        )
        catalog = Catalog()
        catalog.register_table(table)
        udf = _label_udf("never")
        catalog.register_udf(udf)
        result = Engine(catalog).execute(
            SelectQuery(table="nomatch", predicate=UdfPredicate(udf)), audit=True
        )
        assert_answer_type(result.row_ids)
        assert result.row_ids.size == 0
        assert result.quality.returned_count == result.quality.correct_count == 0

    def test_baselines(self, tiny_lending_club):
        dataset = tiny_lending_club
        for position, baseline in enumerate(
            (
                NaiveBaseline(random_state=0),
                LearningBaseline(training_fractions=(0.05, 0.5), random_state=0),
                MultipleImputationBaseline(training_fractions=(0.05, 0.5), random_state=0),
            )
        ):
            result = baseline.answer(
                dataset.table, dataset.make_udf(f"baseline{position}"),
                CONSTRAINTS, CostLedger(),
            )
            assert_answer_type(result.row_ids)
            assert result.row_ids.size > 0
        empty = NaiveBaseline(random_state=0).answer(
            dataset.table, dataset.make_udf("baseline_empty"),
            QueryConstraints(alpha=0.8, beta=0.0, rho=0.8), CostLedger(),
        )
        assert_answer_type(empty.row_ids)
        assert empty.row_ids.size == 0

    def test_pipeline_and_adaptive_strategies(self, small_lending_club):
        dataset = small_lending_club
        column = dataset.correlated_column
        strategies = (
            IntelSample(random_state=1, correlated_column=column),
            OptimalOracle(random_state=1, correlated_column=column),
            AdaptiveIntelSample(correlated_column=column, random_state=1),
        )
        for position, strategy in enumerate(strategies):
            result = strategy.answer(
                dataset.table, dataset.make_udf(f"strategy{position}"),
                CONSTRAINTS, CostLedger(),
            )
            assert_answer_type(result.row_ids)
            assert result.row_ids.size > 0
            assert len(result) == result.row_ids.size == len(result.row_id_set)


class TestServing:
    def test_miss_and_hit_paths(self, assert_same_rows):
        table = _table(name="svc")
        catalog = Catalog()
        catalog.register_table(table)
        udf = _label_udf("svc_udf")
        catalog.register_udf(udf)
        service = QueryService(Engine(catalog))
        try:
            query = SelectQuery(
                table="svc", predicate=UdfPredicate(udf),
                alpha=0.7, beta=0.7, rho=0.8, correlated_column="A",
            )
            miss = service.submit(query, seed=1)
            hit = service.submit(query, seed=2)
            again = service.submit(query, seed=2)
            assert miss.metadata["plan_cache"] == "miss"
            assert hit.metadata["plan_cache"] == again.metadata["plan_cache"] == "hit"
            for result in (miss, hit, again):
                assert_answer_type(result.row_ids)
                assert result.row_ids.size > 0
            assert_same_rows(again.row_ids, hit.row_ids)
            assert not np.shares_memory(again.row_ids, hit.row_ids)  # own answers
        finally:
            service.close()
