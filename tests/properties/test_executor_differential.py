"""Differential tests: vectorised defaults versus the reference paths.

Two promises this suite pins down:

* the promoted default :class:`~repro.core.executor.BatchExecutor` is
  *seed-for-seed identical* to the paper-faithful tuple-at-a-time
  :class:`~repro.core.executor.PlanExecutor` — same returned row ids (and
  order), same ledger counts, same per-group R+/R-/E+/E- bookkeeping — for
  arbitrary plans, with and without sampled-tuple handling, across the
  registry datasets;
* the factorised :class:`~repro.db.index.GroupIndex` produces exactly the
  grouping of the dict-based reference :meth:`Table.group_row_ids` (keys,
  key order, row ids, row order), including its per-row codes.

These guarantees are what make it safe to run the whole library — pipeline,
oracle, adaptive strategy, serving layer — on the vectorised backend while
citing the serial executor's semantics.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor, PlanExecutor
from repro.core.pipeline import IntelSample
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.datasets.registry import load_dataset
from repro.db.index import GroupIndex
from repro.db.udf import CostLedger
from repro.sampling.sampler import GroupSampler
from repro.sampling.schemes import ConstantScheme

DATASETS = ("lending_club", "census", "marketing")


def _dataset(name):
    return load_dataset(name, random_state=17, scale=0.02)


def _run_both(dataset, plan, seed, outcome=None):
    index = dataset.table.group_index(dataset.correlated_column)
    serial_udf = dataset.make_udf("serial")
    serial_ledger = CostLedger()
    serial = PlanExecutor(random_state=seed).execute(
        dataset.table, index, serial_udf, plan, serial_ledger, sample_outcome=outcome
    )
    batch_udf = dataset.make_udf("batch")
    batch_ledger = CostLedger()
    batch = BatchExecutor(random_state=seed).execute(
        dataset.table, index, batch_udf, plan, batch_ledger, sample_outcome=outcome
    )
    return serial, serial_ledger, batch, batch_ledger


def _assert_identical(assert_same_rows, serial, serial_ledger, batch, batch_ledger):
    assert_same_rows(batch.returned_row_ids, serial.returned_row_ids)
    assert batch_ledger.retrieved_count == serial_ledger.retrieved_count
    assert batch_ledger.evaluated_count == serial_ledger.evaluated_count
    assert batch.group_counts.keys() == serial.group_counts.keys()
    for key, serial_counts in serial.group_counts.items():
        assert batch.group_counts[key] == serial_counts, key


class TestExecutorSeedForSeed:
    @pytest.mark.parametrize("dataset_name", DATASETS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_plans_match(self, dataset_name, data, assert_same_rows):
        dataset = _dataset(dataset_name)
        index = dataset.table.group_index(dataset.correlated_column)
        decisions = {}
        for key in index.values:
            retrieve = data.draw(
                st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]), label=f"retrieve[{key}]"
            )
            evaluate = (
                data.draw(
                    st.sampled_from([0.0, 0.3, 0.7, 1.0]), label=f"evaluate[{key}]"
                )
                * retrieve
            )
            decisions[key] = GroupDecision(retrieve=retrieve, evaluate=evaluate)
        plan = ExecutionPlan(decisions)
        seed = data.draw(st.integers(0, 2**20), label="seed")
        _assert_identical(assert_same_rows, *_run_both(dataset, plan, seed))

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_with_sampled_tuples(self, dataset_name, assert_same_rows):
        dataset = _dataset(dataset_name)
        index = dataset.table.group_index(dataset.correlated_column)
        sampler_udf = dataset.make_udf("sampler")
        outcome = GroupSampler(random_state=5).sample(
            dataset.table,
            index,
            sampler_udf,
            ConstantScheme(4).allocate(index.group_sizes()),
            CostLedger(),
        )
        plan = ExecutionPlan(
            {key: GroupDecision(retrieve=0.6, evaluate=0.3) for key in index.values}
        )
        for seed in range(5):
            _assert_identical(
                assert_same_rows, *_run_both(dataset, plan, seed, outcome=outcome)
            )

    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_full_pipeline_matches_across_backends(self, dataset_name, assert_same_rows):
        """IntelSample returns identical results on either backend."""
        dataset = _dataset(dataset_name)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)

        def run(factory):
            return IntelSample(random_state=99, executor_factory=factory).answer(
                dataset.table,
                dataset.make_udf("pipe"),
                constraints,
                CostLedger(),
                correlated_column=dataset.correlated_column,
            )

        batch = run(None)  # the default is BatchExecutor
        serial = run(lambda rng: PlanExecutor(random_state=rng))
        assert_same_rows(batch.row_ids, serial.row_ids)
        assert batch.ledger.evaluated_count == serial.ledger.evaluated_count
        assert batch.ledger.retrieved_count == serial.ledger.retrieved_count


class TestGroupIndexDifferential:
    @pytest.mark.parametrize("dataset_name", DATASETS)
    def test_vectorised_grouping_equals_dict_reference(self, dataset_name):
        dataset = _dataset(dataset_name)
        table = dataset.table
        for column in table.schema.categorical_columns():
            index = GroupIndex(table, column.name)
            reference = table.group_row_ids(column.name)
            assert index.values == list(reference.keys())
            for value, expected_rows in reference.items():
                assert index.row_ids(value).tolist() == expected_rows
                assert index.group_size(value) == len(expected_rows)
            # Codes invert the grouping exactly.
            keys = index.values
            column_values = table.column_values(column.name)
            assert [keys[c] for c in index.codes.tolist()] == column_values

    def test_nan_cells_match_dict_reference(self):
        """np.unique collapses NaNs; the index must follow dict semantics."""
        import math

        from repro.db.table import Table

        nan = float("nan")
        table = Table.from_columns(
            "nantest",
            {"x": [1.0, nan, 2.0, nan, 1.0]},
            column_types={"x": "categorical"},
        )
        index = GroupIndex(table, "x")
        reference = table.group_row_ids("x")
        assert index.num_groups == len(reference)
        for (key, rows), (ref_key, ref_rows) in zip(index.items(), reference.items()):
            assert key == ref_key or (math.isnan(key) and math.isnan(ref_key))
            assert rows.tolist() == ref_rows

    @given(
        values=st.lists(
            st.sampled_from(["a", "b", "c", "d", 1, 2, True]), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_factorisation_property(self, values):
        """Arbitrary (even mixed-type) columns factorise like the dict path."""
        from repro.db.table import Table

        table = Table.from_columns(
            "prop", {"x": values}, column_types={"x": "categorical"}
        )
        index = GroupIndex(table, "x")
        reference = table.group_row_ids("x")
        assert index.values == list(reference.keys())
        for value, expected_rows in reference.items():
            assert index.row_ids(value).tolist() == expected_rows
        assert index.total_rows() == len(values)
        sizes = index.size_array()
        assert int(np.sum(sizes)) == len(values)
