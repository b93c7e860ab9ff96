"""Chaos gate: every injected crash point recovers — no silent corruption.

For each fault site (``manifest_write``, ``segment_write``,
``journal_append``, ``segment_read``) the contract is differential: after
an injected torn write or bit flip, reopening the store either serves data
**bitwise identical to the pre-crash durable generation**, or raises a
typed quarantine error and rebuilds from source.  ``error``-kind rules
model the torn write in-process (``crash`` would ``os._exit`` the test
runner — the write path is identical up to the fault, so the on-disk state
is the same); ``garbage`` at ``segment_read`` models a media bit flip.
The suite-wide autouse fixture additionally asserts zero leaked temp files
after every test, including the torn ones.
"""

import os

import pytest

from repro.db.errors import CorruptSegmentError
from repro.db.storage import TableStore
from repro.resilience.faults import (
    ERROR,
    GARBAGE,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_scope,
)


def _error_plan(site, hits=(0,)):
    rule = FaultRule(ERROR, addresses=frozenset({(hit,) for hit in hits}))
    return FaultPlan(seed=0, rules={site: rule})


def _manifest_segment_entries(store):
    from repro.db.storage import read_manifest

    body = read_manifest(store.manifest_path)
    return [
        entry for per_shard in body["segments"].values() for entry in per_shard.values()
    ]


class TestFaultTornWrites:
    def test_fault_torn_manifest_write_keeps_previous_generation(
        self, tmp_path, table, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        durable = cells(table)
        generation = table.data_generation
        table.append_columns(make_columns(rows=9, seed=31))  # in-memory only
        with fault_scope(_error_plan("manifest_write")):
            with pytest.raises(InjectedFault):
                store.save(table)
        loaded, report = store.open()
        assert cells(loaded) == durable
        assert loaded.data_generation == generation
        assert not report.rebuilt_from_source
        assert report.temp_files_cleaned == 1  # the torn manifest .tmp
        # The new generation's fully written segments were orphaned by the
        # torn commit; recovery swept them too.
        expected = {entry["file"] for entry in _manifest_segment_entries(store)}
        assert set(os.listdir(store.segments_dir)) == expected

    def test_fault_torn_segment_write_keeps_previous_generation(
        self, tmp_path, table, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        durable = cells(table)
        generation = table.data_generation
        table.append_columns(make_columns(rows=9, seed=32))
        # Tear the third segment write of the re-checkpoint: two new
        # generation-qualified segments landed, one tore, the manifest
        # never committed.  The old manifest still points at the old
        # generation's files, which nothing overwrote — recovery serves
        # the previous durable generation bit-perfect, and sweeps both the
        # torn ``.tmp`` and the committed-but-orphaned new segments.
        with fault_scope(_error_plan("segment_write", hits=(2,))):
            with pytest.raises(InjectedFault):
                store.save(table)
        loaded, report = store.open()
        assert cells(loaded) == durable
        assert loaded.data_generation == generation
        assert not report.rebuilt_from_source
        assert report.temp_files_cleaned == 1
        expected = {entry["file"] for entry in _manifest_segment_entries(store)}
        assert set(os.listdir(store.segments_dir)) == expected

    def test_fault_torn_first_segment_write_leaves_store_untouched(
        self, tmp_path, table, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        durable = cells(table)
        # A re-checkpoint writes only what changed, so change something:
        # an in-memory append (an unchanged table writes no segment at all).
        table.append_columns(make_columns(rows=9, seed=35))
        # Tear the very first segment write of the re-checkpoint: only a
        # ``.tmp`` file exists; every committed artifact is intact.
        with fault_scope(_error_plan("segment_write", hits=(0,))):
            with pytest.raises(InjectedFault):
                store.save(table)
        assert any(
            name.endswith(".tmp") for name in os.listdir(store.segments_dir)
        )
        loaded, report = store.open()
        assert cells(loaded) == durable
        assert report.temp_files_cleaned == 1

    def test_fault_torn_journal_append_loses_only_the_torn_delta(
        self, tmp_path, table, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        first = make_columns(rows=5, seed=33)
        store.append(table, first)
        durable = cells(table)
        generation = table.data_generation
        # Hit 0 of the scoped plan: only the append inside the scope counts.
        with fault_scope(_error_plan("journal_append", hits=(0,))):
            with pytest.raises(InjectedFault):
                store.append(table, make_columns(rows=4, seed=34))
        loaded, report = store.open()
        assert report.journal_records_replayed == 1
        assert report.journal_tail_truncated
        assert cells(loaded) == durable
        assert loaded.data_generation == generation

    def test_fault_bitwise_replayable_fire_log(self, tmp_path, table):
        """The same plan against the same workload fires identically."""
        logs = []
        for attempt in range(2):
            store = TableStore(str(tmp_path / f"tbl{attempt}"))
            plan = _error_plan("segment_write", hits=(2,))
            with fault_scope(plan):
                with pytest.raises(InjectedFault):
                    store.save(table)
            logs.append(plan.fired())
            # First-ever checkpoint tore: no manifest exists; recovery
            # bootstraps from source and sweeps the torn temp file.
            _, report = store.open(rebuild=lambda: table)
            assert report.rebuilt_from_source
            assert report.temp_files_cleaned == 1
        assert logs[0] == logs[1] == [("segment_write", (2,), ERROR)]


class TestFaultBitFlips:
    def test_fault_segment_read_garbage_fails_typed_and_quarantines(
        self, tmp_path, table
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        plan = FaultPlan(
            seed=0,
            rules={"segment_read": FaultRule(GARBAGE, addresses=frozenset({(0,)}))},
        )
        with fault_scope(plan):
            with pytest.raises(CorruptSegmentError) as excinfo:
                store.open()
        assert "checksum mismatch" in str(excinfo.value)
        assert len(os.listdir(store.quarantine_dir)) == 1
        # The flip was injected at read time; the file itself is fine, but
        # the store rightly refused to serve unverified bytes.

    def test_fault_segment_read_garbage_rebuilds_from_source(
        self, tmp_path, table, cells
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        plan = FaultPlan(
            seed=0,
            rules={"segment_read": FaultRule(GARBAGE, addresses=frozenset({(0,)}))},
        )
        with fault_scope(plan):
            loaded, report = store.open(rebuild=lambda: table)
        assert report.rebuilt_from_source
        assert len(report.quarantined) == 1
        assert cells(loaded) == cells(table)
        # The rebuild re-checkpointed past the poisoned read: clean now.
        reloaded, second = store.open()
        assert not second.rebuilt_from_source
        assert cells(reloaded) == cells(table)

    def test_fault_probability_rules_are_seed_deterministic(self, tmp_path, table):
        def fire_pattern(seed):
            store = TableStore(str(tmp_path / f"p{seed}"))
            store.save(table)
            plan = FaultPlan(
                seed=seed,
                rules={"segment_read": FaultRule(GARBAGE, probability=0.5)},
            )
            with fault_scope(plan):
                try:
                    store.open()
                except CorruptSegmentError:
                    pass
            return tuple(plan.fired())

        assert fire_pattern(123) == fire_pattern(123)
