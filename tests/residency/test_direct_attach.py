"""One worker transport: every exported column is a segment file workers map.

``export_table_spans`` chooses per ``(shard, column)``: a shard served from
lazy durable segments hands out its committed files (workers ``np.memmap``
them where they are — nothing is written), every other shard column is
written once into this process's export directory.  A table that is durable
in some shards and in memory in others (a lazy table after an append) mixes
the two, and process execution over it stays bitwise identical to the
inline path.
"""

import os
import time

import numpy as np
import pytest

from residency_tables import build_columns
from repro.core.parallel import ParallelBatchExecutor
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core import procpool
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db import shm
from repro.db.errors import SegmentMapError
from repro.db.sharding import ShardedTable
from repro.db.shm import (
    EXPORT_PREFIX,
    EXPORT_ROOT,
    UnshareableColumnError,
    attach_array,
    export_table_spans,
    exported_segment_count,
    release_exports,
)
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction

WORKERS = 2


class FlaggedEvenCount:
    """A picklable python-callable UDF that reads two columns."""

    def __call__(self, row):
        return bool(row["f"]) and row["count"] % 2 == 0


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


def _assert_bitwise(serial, serial_ledger, serial_udf, remote, remote_ledger, remote_udf):
    assert np.array_equal(serial.returned_row_ids, remote.returned_row_ids)
    assert remote_ledger.retrieved_count == serial_ledger.retrieved_count
    assert remote_ledger.evaluated_count == serial_ledger.evaluated_count
    assert remote_udf.counter_snapshot() == serial_udf.counter_snapshot()
    assert [part.tolist() for part in remote_udf.memo_arrays()] == [
        part.tolist() for part in serial_udf.memo_arrays()
    ]


def _in_export_directory(path):
    own = os.path.join(EXPORT_ROOT, f"{EXPORT_PREFIX}{os.getpid()}-")
    return os.path.dirname(path).startswith(own)


class TestExportTableSpans:
    def test_committed_shards_hand_out_their_store_files(self, sharded_table, make_lazy):
        lazy, _, store = make_lazy(sharded_table)
        exports = export_table_spans(lazy, ["f", "amount"])
        assert len(exports) == len(lazy.shards)
        segments = os.path.realpath(os.path.join(store.directory, "segments"))
        for export in exports:
            for block in export.columns.values():
                assert os.path.dirname(os.path.realpath(block.path)) == segments
                assert block.offset > 0
        assert exported_segment_count() == 0  # nothing written

    def test_in_memory_shards_are_written_to_the_export_directory(self, sharded_table):
        columns = ["f", "amount", "A"]
        exports = export_table_spans(sharded_table, columns)
        assert exported_segment_count() == len(sharded_table.shards) * len(columns)
        for export, shard in zip(exports, sharded_table.shards):
            for column, block in export.columns.items():
                assert _in_export_directory(block.path)
                expected = shard.column_array(column, allow_hidden=True)
                assert np.array_equal(attach_array(block), expected)
        # Warm: the same files again, nothing rewritten.
        again = export_table_spans(sharded_table, columns)
        assert again == exports
        assert exported_segment_count() == len(sharded_table.shards) * len(columns)

    def test_materialised_shard_is_written(self, table, make_lazy):
        lazy, _, _ = make_lazy(table)
        lazy._materialise("test")
        (export,) = export_table_spans(lazy, ["f"])
        assert _in_export_directory(export.columns["f"].path)
        assert exported_segment_count() == 1

    def test_object_column_raises(self, make_lazy):
        # Mixed-type values have no fixed-width dtype: the store pickles the
        # segment and an export has no buffer to write, lazy or not.
        source = Table.from_columns(
            "objtab",
            {"A": ["a", 1, True, "b"] * 60, "f": [True, False] * 120},
            hidden_columns=["f"],
        )
        with pytest.raises(UnshareableColumnError):
            export_table_spans(source, ["A"])
        lazy, _, _ = make_lazy(source)
        with pytest.raises(UnshareableColumnError):
            export_table_spans(lazy, ["A"])
        assert export_table_spans(lazy, ["f"])
        assert exported_segment_count() == 0


class TestExportRaces:
    """A file is written outside the module lock; a lost race removes it."""

    @staticmethod
    def _interrupt_first_write(monkeypatch, action):
        """Run ``action`` right after the first export file is written."""
        calls = []

        def write_then_act(*args):
            entry = real_write(*args)
            if not calls:
                calls.append(args[0])
                action()
            return entry

        real_write = shm.write_segment
        monkeypatch.setattr(shm, "write_segment", write_then_act)
        return calls

    def test_a_concurrent_export_of_the_same_column_keeps_one_file(
        self, table, monkeypatch
    ):
        winner = []
        written = self._interrupt_first_write(
            monkeypatch, lambda: winner.append(export_table_spans(table, ["f"]))
        )
        (export,) = export_table_spans(table, ["f"])
        assert (export,) == winner[0]  # the export that finished first is kept
        assert not os.path.exists(written[0])
        assert exported_segment_count() == 1

    def test_a_release_during_a_write_removes_the_file(self, table, monkeypatch):
        written = self._interrupt_first_write(monkeypatch, lambda: release_exports(table))
        with pytest.raises(SegmentMapError):
            export_table_spans(table, ["f"])
        assert not os.path.exists(written[0])
        assert exported_segment_count() == 0


class TestProcessPoolOverSegmentFiles:
    def test_procpool_over_lazy_durable_is_bitwise_serial_with_zero_exports(
        self, sharded_table, make_lazy
    ):
        lazy, manager, store = make_lazy(sharded_table, budget_bytes=3000)
        eager, _ = store.open()
        serial_udf = UserDefinedFunction.from_label_column("da_serial", "f")
        remote_udf = UserDefinedFunction.from_label_column("da_remote", "f")
        serial, serial_ledger = _execute(eager, ParallelBatchExecutor, serial_udf)
        remote, remote_ledger = _execute(
            lazy, ProcessPoolBatchExecutor, remote_udf, workers=WORKERS
        )
        _assert_bitwise(serial, serial_ledger, serial_udf, remote, remote_ledger, remote_udf)
        # Every worker mapped a committed file: the run wrote nothing.
        assert exported_segment_count() == 0
        assert manager.resident_bytes <= 3000
        del lazy
        manager.evict_all()

    def test_lazy_table_after_an_append_writes_only_its_tail(self, make_lazy):
        source = ShardedTable.from_columns(
            "mixtab", build_columns(rows=3000, seed=9), shard_rows=800, hidden_columns=["f"]
        )
        lazy, manager, store = make_lazy(source)
        store.append(lazy, build_columns(rows=7, seed=4))
        assert len(lazy.shards) == 4  # the tail had room: no seal
        assert [shard.is_lazy for shard in lazy.shards] == [True, True, True, False]
        eager, _ = store.open()
        serial_udf = UserDefinedFunction("mix_serial", FlaggedEvenCount())
        remote_udf = UserDefinedFunction("mix_remote", FlaggedEvenCount())
        serial, serial_ledger = _execute(eager, ParallelBatchExecutor, serial_udf)
        remote, remote_ledger = _execute(
            lazy, ProcessPoolBatchExecutor, remote_udf, workers=WORKERS
        )
        _assert_bitwise(serial, serial_ledger, serial_udf, remote, remote_ledger, remote_udf)
        # The three committed shards were mapped where they are; only the
        # appended-to tail was written, one file per column.
        assert exported_segment_count() == len(lazy.schema.column_names)
        del lazy
        manager.evict_all()


def _worker_map_count(_):
    """In a pool worker: its pid and how many maps its attach cache holds.

    The pause keeps this worker busy so the other tasks of a round land on
    the other workers.
    """
    time.sleep(0.3)
    return os.getpid(), len(shm._ATTACHED)


class TestWorkerMapCache:
    def test_appends_keep_each_workers_maps_bounded_by_the_live_files(self):
        # Fresh workers: no map another test left cached.
        procpool._discard_process_pool(WORKERS)
        table = ShardedTable.from_columns(
            "churn", build_columns(rows=350, seed=3), shard_rows=100, hidden_columns=["f"]
        )
        udf = UserDefinedFunction.from_label_column("churn_udf", "f")
        for step in range(10):
            if step:
                table.append_columns(build_columns(rows=5, seed=step))
            index = table.group_index("A")
            plan = ExecutionPlan.evaluate_everything(index.values)
            executor = ProcessPoolBatchExecutor(random_state=step, max_workers=WORKERS)
            executor.execute(table, index, udf, plan, CostLedger())
        assert len(table.shards) == 4  # the tail had room: no seal
        # Every append rewrote the tail's one exported file ("f").
        live = exported_segment_count()
        assert live == len(table.shards)

        pool = procpool.shared_process_pool(WORKERS)
        counts = {}
        for _ in range(10):
            counts.update(pool.map(_worker_map_count, range(WORKERS)))
            if len(counts) == WORKERS:
                break
        assert len(counts) == WORKERS
        # The last query ran every span remotely: each live file is mapped.
        assert sum(counts.values()) >= live, counts
        # Without dropping removed files' maps the workers would hold one
        # per append on top of the live ones.
        assert max(counts.values()) <= live, counts
