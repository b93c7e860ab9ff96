"""Direct segment attach: workers map durable files, skipping shm exports.

When a table is served from lazy durable segments, the process-pool
executor hands workers ``(path, offset, dtype)`` coordinates instead of
copying columns into ``shared_memory`` — zero export segments, bitwise
identical results.  Tables that are not fully lazy-durable (in-memory,
pickled object columns, materialised after degrade) fall back to the
shm path, so nothing ever silently breaks.
"""

import numpy as np
import pytest

from repro.core.parallel import ParallelBatchExecutor
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.residency import durable_span_exports
from repro.db.shm import exported_segment_count
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.obs.metrics import MetricsRegistry, disable_metrics, enable_metrics

WORKERS = 2


def _mixed_plan(index):
    regimes = [(0.0, 0.0), (1.0, 1.0), (0.6, 0.0), (1.0, 0.5), (0.7, 0.8)]
    decisions = {}
    for code, value in enumerate(index.values):
        retrieve, evaluate = regimes[code % len(regimes)]
        decisions[value] = GroupDecision(retrieve=retrieve, evaluate=retrieve * evaluate)
    return ExecutionPlan(decisions=decisions)


def _execute(table, executor_cls, udf, workers=None, seed=7):
    index = table.group_index("A")
    plan = _mixed_plan(index)
    ledger = CostLedger()
    sizing = {} if workers is None else {"max_workers": workers}
    executor = executor_cls(random_state=seed, **sizing)
    result = executor.execute(table, index, udf, plan, ledger)
    return result, ledger


class TestDurableSpanExports:
    def test_lazy_sharded_numeric_columns_export_blocks(
        self, sharded_table, make_lazy
    ):
        lazy, _, _ = make_lazy(sharded_table)
        exports = durable_span_exports(lazy, ["f", "amount"])
        assert exports is not None
        assert len(exports) == len(lazy.shards)
        for export in exports:
            for block in export.columns.values():
                assert block.shm_name is None
                assert block.path is not None
                assert block.offset >= 0

    def test_in_memory_table_is_not_directly_attachable(self, sharded_table):
        assert durable_span_exports(sharded_table, ["f"]) is None

    def test_pickled_object_column_falls_back(self, make_lazy):
        # Mixed-type values have no fixed-width dtype: the segment is
        # pickled, so there is no (path, offset, dtype) block to attach.
        from repro.db.table import Table

        source = Table.from_columns(
            "objtab",
            {"A": ["a", 1, True, "b"] * 60, "f": [True, False] * 120},
            hidden_columns=["f"],
        )
        lazy, _, _ = make_lazy(source)
        assert durable_span_exports(lazy, ["A"]) is None
        assert durable_span_exports(lazy, ["f"]) is not None

    def test_materialised_table_falls_back(self, table, make_lazy):
        lazy, _, _ = make_lazy(table)
        lazy._materialise("test")
        assert durable_span_exports(lazy, ["f"]) is None


class TestProcessPoolDirectAttach:
    def test_procpool_over_lazy_durable_is_bitwise_serial_with_zero_exports(
        self, sharded_table, make_lazy
    ):
        lazy, manager, store = make_lazy(sharded_table, budget_bytes=3000)
        eager, _ = store.open()
        serial_udf = UserDefinedFunction.from_label_column("da_serial", "f")
        remote_udf = UserDefinedFunction.from_label_column("da_remote", "f")
        registry = enable_metrics(MetricsRegistry())
        try:
            serial, serial_ledger = _execute(eager, ParallelBatchExecutor, serial_udf)
            remote, remote_ledger = _execute(
                lazy, ProcessPoolBatchExecutor, remote_udf, workers=WORKERS
            )
            counters = registry.snapshot()["counters"]
            attached = [
                key for key in counters if "direct_attach" in key
            ]
            assert attached and counters[attached[0]] >= 1
        finally:
            disable_metrics()
        assert np.array_equal(
            np.asarray(serial.returned_row_ids),
            np.asarray(remote.returned_row_ids),
        )
        assert remote_ledger.retrieved_count == serial_ledger.retrieved_count
        assert remote_ledger.evaluated_count == serial_ledger.evaluated_count
        assert remote_udf.counter_snapshot() == serial_udf.counter_snapshot()
        assert [part.tolist() for part in remote_udf.memo_arrays()] == [
            part.tolist() for part in serial_udf.memo_arrays()
        ]
        # The proof of direct attach: the run exported nothing through shm.
        assert exported_segment_count() == 0
        assert manager.resident_bytes <= 3000
