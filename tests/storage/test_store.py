"""TableStore / CatalogStore: checkpoint, journal replay, quarantine, rebuild."""

import os

import pytest

from repro.db.catalog import Catalog
from repro.db.errors import CorruptSegmentError, StorageError
from repro.db.sharding import ShardedTable
from repro.db.storage import (
    CatalogStore,
    TableStore,
    read_manifest,
    storage_counters,
    write_manifest,
)
from repro.db.table import Table


def _corrupt_one_segment(store):
    names = sorted(os.listdir(store.segments_dir))
    path = os.path.join(store.segments_dir, names[0])
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 0x08
    open(path, "wb").write(bytes(data))
    return names[0]


class TestCheckpointRoundTrip:
    def test_monolithic_round_trip_is_bitwise(self, tmp_path, table, cells):
        store = TableStore(str(tmp_path / "tbl"))
        assert not store.exists()
        store.save(table)
        assert store.exists()
        loaded, report = store.open()
        assert isinstance(loaded, Table)
        assert not isinstance(loaded, ShardedTable)
        assert loaded.name == table.name
        assert loaded.shard_signature() == table.shard_signature()
        assert cells(loaded) == cells(table)
        assert [c.hidden for c in loaded.schema.columns] == [
            c.hidden for c in table.schema.columns
        ]
        assert report.segments_loaded == len(table.schema.column_names)
        assert not report.rebuilt_from_source
        assert report.generation == table.data_generation

    def test_sharded_round_trip_preserves_layout(self, tmp_path, sharded_table, cells):
        store = TableStore(str(tmp_path / "stbl"))
        store.save(sharded_table)
        loaded, report = store.open()
        assert isinstance(loaded, ShardedTable)
        assert len(loaded.shards) == len(sharded_table.shards)
        assert tuple(loaded.shard_offsets) == tuple(sharded_table.shard_offsets)
        assert loaded.tail_shard_rows == sharded_table.tail_shard_rows
        assert loaded.shard_signature() == sharded_table.shard_signature()
        assert cells(loaded) == cells(sharded_table)
        assert report.segments_loaded == 4 * len(sharded_table.schema.column_names)

    def test_counters_track_segments_and_commits(self, tmp_path, table):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        store.open()
        counters = storage_counters()
        columns = len(table.schema.column_names)
        assert counters["segments_written"] == columns
        assert counters["segments_loaded"] == columns
        assert counters["manifest_commits"] == 1
        assert counters["checksum_failures"] == 0

    def test_recheckpoint_drops_unreferenced_segments(self, tmp_path, sharded_table, table):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(sharded_table)  # 4 shards x 5 columns
        assert len(os.listdir(store.segments_dir)) == 20
        store.save(table)  # monolithic: 1 x 5
        assert len(os.listdir(store.segments_dir)) == 5
        loaded, _ = store.open()
        assert loaded.num_rows == table.num_rows

    def test_open_without_manifest_raises_typed(self, tmp_path):
        store = TableStore(str(tmp_path / "void"))
        with pytest.raises(StorageError):
            store.open()


class TestJournalReplay:
    def test_appends_replay_to_the_durable_generation(self, tmp_path, table, cells, make_columns):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        delta_a = make_columns(rows=7, seed=21)
        delta_b = make_columns(rows=3, seed=22)
        store.append(table, delta_a)
        store.append(table, delta_b)
        loaded, report = store.open()
        assert report.journal_records_replayed == 2
        assert not report.journal_tail_truncated
        assert loaded.data_generation == table.data_generation
        assert loaded.num_rows == table.num_rows
        assert cells(loaded) == cells(table)
        counters = storage_counters()
        assert counters["journal_replays"] == 1
        assert counters["journal_records_replayed"] == 2

    def test_checkpoint_resets_the_journal(self, tmp_path, table, make_columns):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        store.append(table, make_columns(rows=5, seed=23))
        store.save(table)  # checkpoint absorbs the journalled delta
        loaded, report = store.open()
        assert report.journal_records_replayed == 0
        assert loaded.num_rows == table.num_rows

    def test_stale_records_below_manifest_generation_are_skipped(
        self, tmp_path, table, make_columns
    ):
        # Crash between manifest commit and journal truncation: the journal
        # still holds records the manifest already absorbed.
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        from repro.db.storage.journal import append_record

        append_record(store.journal_path, table.data_generation, make_columns(rows=2))
        loaded, report = store.open()
        assert report.journal_records_replayed == 0
        assert loaded.num_rows == table.num_rows

    def test_generation_gap_truncates_the_tail(self, tmp_path, table, make_columns):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        from repro.db.storage.journal import append_record

        append_record(
            store.journal_path, table.data_generation + 5, make_columns(rows=2)
        )
        loaded, report = store.open()
        assert report.journal_records_replayed == 0
        assert report.journal_tail_truncated
        assert loaded.num_rows == table.num_rows
        assert storage_counters()["journal_truncations"] == 1

    def test_append_validates_before_journalling(self, tmp_path, table):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        with pytest.raises(Exception):
            store.append(table, {"no_such_column": [1]})
        # The bad delta never reached the journal.
        loaded, report = store.open()
        assert report.journal_records_replayed == 0
        assert loaded.num_rows == table.num_rows


class TestQuarantineAndRebuild:
    def test_corrupt_segment_without_rebuild_raises_and_quarantines(
        self, tmp_path, table
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        bad = _corrupt_one_segment(store)
        with pytest.raises(CorruptSegmentError):
            store.open()
        assert bad in os.listdir(store.quarantine_dir)
        assert bad not in os.listdir(store.segments_dir)
        counters = storage_counters()
        assert counters["checksum_failures"] == 1
        assert counters["quarantines"] == 1
        assert counters["rebuilds"] == 0

    def test_corrupt_segment_with_rebuild_degrades_gracefully(
        self, tmp_path, table, cells
    ):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        _corrupt_one_segment(store)
        loaded, report = store.open(rebuild=lambda: table)
        assert report.rebuilt_from_source
        assert "checksum mismatch" in report.rebuild_reason
        assert len(report.quarantined) == 1
        assert cells(loaded) == cells(table)
        assert storage_counters()["rebuilds"] == 1
        # The rebuild re-checkpointed: the next open is clean.
        reloaded, second = store.open()
        assert not second.rebuilt_from_source
        assert cells(reloaded) == cells(table)

    def test_missing_manifest_with_rebuild_bootstraps(self, tmp_path, table, cells):
        store = TableStore(str(tmp_path / "tbl"))
        loaded, report = store.open(rebuild=lambda: table)
        assert report.rebuilt_from_source
        assert report.rebuild_reason == "missing manifest"
        assert cells(loaded) == cells(table)
        assert store.exists()

    def test_manifest_row_count_mismatch_fails_typed(self, tmp_path, table):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        body = read_manifest(store.manifest_path)
        body["num_rows"] = body["num_rows"] + 1
        write_manifest(store.manifest_path, body)
        with pytest.raises(CorruptSegmentError) as excinfo:
            store.open()
        assert "manifest committed" in str(excinfo.value)

    def test_torn_temp_files_are_swept_on_open(self, tmp_path, table):
        store = TableStore(str(tmp_path / "tbl"))
        store.save(table)
        torn = os.path.join(store.segments_dir, "seg-0000-c000.seg.tmp")
        open(torn, "wb").write(b"half a segment")
        open(os.path.join(store.directory, "MANIFEST.json.tmp"), "wb").write(b"{")
        _, report = store.open()
        assert report.temp_files_cleaned == 2
        assert not os.path.exists(torn)
        assert storage_counters()["temp_files_cleaned"] == 2


class TestCatalogStore:
    def test_catalog_round_trip(self, tmp_path, table, sharded_table, cells):
        catalog = Catalog()
        catalog.register_table(table)
        catalog.register_table(sharded_table)
        store = CatalogStore(str(tmp_path / "cat"))
        store.save(catalog)
        assert sorted(store.table_names()) == sorted([table.name, sharded_table.name])
        loaded, reports = store.open()
        assert sorted(loaded.table_names()) == sorted(catalog.table_names())
        assert cells(loaded.table(table.name)) == cells(table)
        assert cells(loaded.table(sharded_table.name)) == cells(sharded_table)
        assert set(reports) == {table.name, sharded_table.name}

    def test_per_table_rebuilder_is_scoped(self, tmp_path, table, sharded_table, cells):
        catalog = Catalog()
        catalog.register_table(table)
        catalog.register_table(sharded_table)
        store = CatalogStore(str(tmp_path / "cat"))
        store.save(catalog)
        _corrupt_one_segment(store.table_store(table.name))
        # No rebuilder for the corrupt table: typed error propagates.
        with pytest.raises(CorruptSegmentError):
            store.open()
        loaded, reports = store.open(rebuilders={table.name: lambda: table})
        assert reports[table.name].rebuilt_from_source
        assert not reports[sharded_table.name].rebuilt_from_source
        assert cells(loaded.table(table.name)) == cells(table)

    def test_empty_directory_opens_empty(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        assert store.table_names() == []
        catalog, reports = store.open()
        assert catalog.table_names() == []
        assert reports == {}

    def test_unsafe_table_names_get_safe_directories(self, tmp_path, make_columns):
        weird = Table.from_columns("we/ird table", make_columns(rows=10))
        catalog = Catalog()
        catalog.register_table(weird)
        store = CatalogStore(str(tmp_path / "cat"))
        store.save(catalog)
        loaded, _ = store.open()
        assert loaded.table("we/ird table").num_rows == 10
        tables_dir = os.path.join(store.directory, CatalogStore.TABLES_DIR)
        for entry in os.listdir(tables_dir):
            assert "/" not in entry and " " not in entry
