"""Pickle safety of the UDF worker contract.

Process-pool execution ships a :class:`~repro.db.udf.UdfSpec` to spawn
workers, so every UDF the library hands out must survive
``worker_spec() -> pickle -> spec_evaluate`` with outcomes identical to
in-process evaluation.  CI runs this file as the pickle-safety gate (the
``-k pickle_safety`` step), so a dataset whose UDF silently stops being
shippable fails loudly here, not as a quiet serial fallback in production.
"""

import pickle

import numpy as np
import pytest

from repro.core.procpool import spec_evaluate
from repro.datasets.registry import dataset_names, load_dataset
from repro.db.errors import UnpicklableUdfError
from repro.db.shm import export_table_spans, release_exports
from repro.db.table import Table
from repro.db.udf import RevealLabel, UdfSpec, UserDefinedFunction


def _spec_roundtrip(udf):
    spec = udf.worker_spec()
    restored = pickle.loads(pickle.dumps(spec))
    assert isinstance(restored, UdfSpec)
    assert restored.name == spec.name
    return restored


class TestDatasetUdfsRoundTrip:
    @pytest.mark.parametrize("name", dataset_names())
    def test_pickle_safety(self, name):
        """Every registered dataset UDF ships to workers and agrees bitwise."""
        bundle = load_dataset(name, random_state=7, scale=0.05)
        udf = bundle.make_udf()
        spec = _spec_roundtrip(udf)

        table = bundle.table
        if spec.func is None:
            columns = [spec.label_column]
        else:
            columns = table.schema.column_names
        exports = export_table_spans(table, columns)
        try:
            rng = np.random.default_rng(3)
            ids = np.sort(
                rng.choice(table.num_rows, size=min(200, table.num_rows), replace=False)
            ).astype(np.intp)
            remote = spec_evaluate(spec, exports, ids)
            local = udf.evaluate_rows(table, ids)
            assert np.array_equal(np.asarray(remote), np.asarray(local))
        finally:
            release_exports(table)


class TestWorkerSpec:
    def test_label_udf_spec_has_no_func(self):
        udf = UserDefinedFunction.from_label_column("lbl", "f")
        spec = _spec_roundtrip(udf)
        assert spec.func is None
        assert spec.label_column == "f"

    def test_module_level_callable_ships(self):
        udf = UserDefinedFunction("reveal", RevealLabel("f", True))
        spec = _spec_roundtrip(udf)
        assert spec.label_column is None
        assert isinstance(spec.func, RevealLabel)

    def test_lambda_raises_typed_error(self):
        udf = UserDefinedFunction("lam", lambda row: True)
        with pytest.raises(UnpicklableUdfError) as excinfo:
            udf.worker_spec()
        assert excinfo.value.name == "lam"
        # The verdict is cached; the second call must not re-pickle.
        with pytest.raises(UnpicklableUdfError):
            udf.worker_spec()


class TestWorkerRows:
    """The row dicts a worker hands a python callable are ``Table.row``'s."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_rows_equal_table_rows_in_content_and_python_type(self, shards):
        from repro.db.sharding import ShardedTable

        rows = 41
        rng = np.random.default_rng(4)
        columns = {
            "name": [f"n{int(v)}" for v in rng.integers(0, 9, rows)],  # str
            "flag": [bool(v) for v in rng.random(rows) < 0.5],  # bool
            "score": [float(v) for v in rng.normal(0.0, 3.0, rows)],  # float
            "count": [int(v) for v in rng.integers(-5, 500, rows)],  # int
        }
        table = Table.from_columns("wrows", columns, hidden_columns=["flag"])
        if shards > 1:
            table = ShardedTable.from_table(table, num_shards=shards)
        seen = []

        def record(row):
            seen.append(row)
            return row["flag"]

        spec = UdfSpec(name="rec", label_column=None, positive_value=True, func=record)
        exports = export_table_spans(table, table.schema.column_names)
        try:
            # Unsorted, spanning every export, with both ends of the table.
            ids = np.asarray([rows - 1, 0, 17, 5, 30, 29, 2, 16], dtype=np.intp)
            outcomes = spec_evaluate(spec, exports, ids)
        finally:
            release_exports(table)
        assert outcomes.tolist() == [columns["flag"][i] for i in ids.tolist()]
        assert len(seen) == ids.size
        # Rows are visited span by span; match them up by content.
        expected = {
            row_id: table.row(row_id, include_hidden=True) for row_id in ids.tolist()
        }
        by_key = {(row["name"], row["score"], row["count"]): row for row in seen}
        for row_id, reference in expected.items():
            got = by_key[(reference["name"], reference["score"], reference["count"])]
            assert got == reference
            assert list(got) == list(reference)  # same column order
            for column, value in reference.items():
                assert type(got[column]) is type(value), (column, type(got[column]))
        assert {type(v) for v in seen[0].values()} == {str, bool, float, int}


class TestMergeRemoteEvaluations:
    def _table(self, n=120):
        rng = np.random.default_rng(2)
        return Table.from_columns(
            "mtab",
            {
                "A": [f"a{int(v)}" for v in rng.integers(0, 3, n)],
                "f": [bool(v) for v in rng.random(n) < 0.5],
            },
            hidden_columns=["f"],
        )

    def test_counters_match_a_serial_bulk_call(self):
        table = self._table()
        ids = np.arange(table.num_rows, dtype=np.intp)
        serial = UserDefinedFunction.from_label_column("ser", "f")
        merged = UserDefinedFunction.from_label_column("mer", "f")
        expected = serial.evaluate_rows(table, ids)
        outcomes = np.asarray(
            [bool(v) for v in table.column_array("f", allow_hidden=True)]
        )
        got = merged.merge_remote_evaluations(ids, outcomes)
        assert np.array_equal(np.asarray(expected), np.asarray(got))
        assert merged.counter_snapshot() == serial.counter_snapshot()
        assert [part.tolist() for part in merged.memo_arrays()] == [
            part.tolist() for part in serial.memo_arrays()
        ]

    def test_memoized_rows_keep_cached_values_and_count_hits(self):
        table = self._table()
        warm = np.arange(0, 60, dtype=np.intp)
        ids = np.arange(table.num_rows, dtype=np.intp)
        serial = UserDefinedFunction.from_label_column("ser2", "f")
        merged = UserDefinedFunction.from_label_column("mer2", "f")
        serial.evaluate_rows(table, warm)
        merged.evaluate_rows(table, warm)
        expected = serial.evaluate_rows(table, ids)
        outcomes = np.asarray(
            [bool(v) for v in table.column_array("f", allow_hidden=True)]
        )
        got = merged.merge_remote_evaluations(ids, outcomes)
        assert np.array_equal(np.asarray(expected), np.asarray(got))
        snap = merged.counter_snapshot()
        assert snap == serial.counter_snapshot()
        assert snap["cache_hits"] >= warm.size

    def test_shape_mismatch_is_rejected(self):
        merged = UserDefinedFunction.from_label_column("bad", "f")
        with pytest.raises(ValueError):
            merged.merge_remote_evaluations(
                np.arange(4, dtype=np.intp), np.asarray([True, False])
            )
