"""A checkpoint writes what changed; what is already durable is referenced.

``TableStore.save`` keeps, per ``(shard, column)``, the file an earlier
checkpoint or open recorded on the shard — as long as the shard has not
been appended to since and the file's header still validates — and writes
only the rest.  Pinned here: the size of that write set on every kind of
table (just written, reopened eagerly, replayed from the journal, saved
into a second directory), what un-retains a file (missing, truncated, a
shard object in a new slot), what deliberately does not (a payload bit flip
under an intact header stays visible to the next open), and the chaos gate:
a fault at *every* write position of an append-then-checkpoint leaves the
previous generation opening bitwise identical, retained files untouched,
orphans swept.
"""

import os

import pytest

from repro.db.errors import CorruptSegmentError
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore, read_manifest, storage_counters
from repro.resilience.faults import (
    ERROR,
    FaultPlan,
    FaultRule,
    InjectedFault,
    fault_scope,
)

COLUMNS = 5  # tests/storage/conftest.py::build_columns


def _short_tail(make_columns):
    """3 sealed shards of 70 rows and a 50-row tail with room for 20 more."""
    return ShardedTable.from_columns(
        "itbl", make_columns(rows=260, seed=9), shard_rows=70, hidden_columns=["f"]
    )


@pytest.fixture
def short_tail(make_columns):
    return _short_tail(make_columns)


def _checkpoint(store, table):
    """``store.save(table)``; returns (segments written, segments retained)."""
    before = storage_counters()
    store.save(table)
    after = storage_counters()
    return (
        after["segments_written"] - before["segments_written"],
        after["segments_retained"] - before["segments_retained"],
    )


def _referenced(store):
    body = read_manifest(store.manifest_path)
    return {
        entry["file"]
        for per_shard in body["segments"].values()
        for entry in per_shard.values()
    }


def _segment_bytes(store):
    return {
        name: open(os.path.join(store.segments_dir, name), "rb").read()
        for name in sorted(os.listdir(store.segments_dir))
    }


def _assert_directory_is_the_manifest(store):
    """Every referenced file present, every other ``.seg`` gone."""
    assert set(os.listdir(store.segments_dir)) == _referenced(store)


class TestWriteSet:
    def test_first_checkpoint_writes_everything(self, tmp_path, short_tail):
        store = TableStore(str(tmp_path / "t"))
        assert _checkpoint(store, short_tail) == (4 * COLUMNS, 0)

    def test_unchanged_recheckpoint_writes_no_segment(self, tmp_path, short_tail, table):
        for name, source, shards in (("s", short_tail, 4), ("m", table, 1)):
            store = TableStore(str(tmp_path / name))
            store.save(source)
            before = _segment_bytes(store)
            assert _checkpoint(store, source) == (0, shards * COLUMNS)
            assert _segment_bytes(store) == before
            assert storage_counters()["manifest_commits"] >= 2

    def test_tail_append_rewrites_only_the_tail(
        self, tmp_path, short_tail, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        sealed = {
            name: data
            for name, data in _segment_bytes(store).items()
            if "-0003-" not in name
        }
        store.append(short_tail, make_columns(rows=9, seed=41))
        assert _checkpoint(store, short_tail) == (COLUMNS, 3 * COLUMNS)
        after = _segment_bytes(store)
        assert {name: after[name] for name in sealed} == sealed
        # The tail's files carry the new generation, the sealed shards' the old.
        assert sorted(name[:13] for name in after if "-0003-" in name) == (
            ["seg-g00000001"] * COLUMNS
        )
        _assert_directory_is_the_manifest(store)
        loaded, _ = store.open()
        assert cells(loaded) == cells(short_tail)

    def test_a_seal_writes_the_fresh_shards(self, tmp_path, short_tail, cells, make_columns):
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        store.append(short_tail, make_columns(rows=30, seed=42))  # 80 > 70: seals
        assert short_tail.num_shards == 5
        assert _checkpoint(store, short_tail) == (2 * COLUMNS, 3 * COLUMNS)
        _assert_directory_is_the_manifest(store)
        loaded, _ = store.open()
        assert cells(loaded) == cells(short_tail)
        assert tuple(loaded.shard_offsets) == tuple(short_tail.shard_offsets)

    def test_monolithic_append_rewrites_the_table(self, tmp_path, table, make_columns):
        store = TableStore(str(tmp_path / "t"))
        store.save(table)
        store.append(table, make_columns(rows=4, seed=43))
        assert _checkpoint(store, table) == (COLUMNS, 0)
        _assert_directory_is_the_manifest(store)

    def test_eagerly_reopened_table_retains_what_it_loaded(
        self, tmp_path, short_tail, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        for _reopen in range(2):
            loaded, _ = store.open()
            assert _checkpoint(store, loaded) == (0, 4 * COLUMNS)
        store.append(loaded, make_columns(rows=5, seed=44))
        assert _checkpoint(store, loaded) == (COLUMNS, 3 * COLUMNS)
        again, _ = store.open()
        assert cells(again) == cells(loaded)

    def test_journal_replay_unmarks_the_tail_by_itself(
        self, tmp_path, short_tail, cells, make_columns
    ):
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        store.append(short_tail, make_columns(rows=5, seed=45))  # journal only
        replayed, report = store.open()
        assert report.journal_records_replayed == 1
        assert _checkpoint(store, replayed) == (COLUMNS, 3 * COLUMNS)
        again, second = store.open()
        assert second.journal_records_replayed == 0
        assert cells(again) == cells(short_tail)

    def test_second_directory_gets_everything_first_keeps_its_record(
        self, tmp_path, short_tail, cells
    ):
        first = TableStore(str(tmp_path / "a"))
        second = TableStore(str(tmp_path / "b"))
        first.save(short_tail)
        assert _checkpoint(second, short_tail) == (4 * COLUMNS, 0)
        assert _checkpoint(first, short_tail) == (0, 4 * COLUMNS)
        assert _checkpoint(second, short_tail) == (0, 4 * COLUMNS)
        for store in (first, second):
            loaded, _ = store.open()
            assert cells(loaded) == cells(short_tail)

    def test_directory_spelling_does_not_matter(self, tmp_path, short_tail, monkeypatch):
        TableStore(str(tmp_path / "t")).save(short_tail)
        monkeypatch.chdir(tmp_path)
        assert _checkpoint(TableStore("t"), short_tail) == (0, 4 * COLUMNS)
        assert _checkpoint(TableStore("./t/"), short_tail) == (0, 4 * COLUMNS)

    def test_shard_objects_in_new_slots_are_rewritten(self, tmp_path, short_tail, cells):
        """A retained file is named for the slot it fills — so a new file's
        name (its generation and slot) can never be a retained file's."""
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        shifted = ShardedTable(
            "itbl", short_tail.schema, short_tail.shards[1:], tail_shard_rows=70
        )
        # Shards 1..3 now sit in slots 0..2: nothing is referenced (slot 3's
        # old file would otherwise be both retained for slot 2 and unnamed).
        assert _checkpoint(store, shifted) == (3 * COLUMNS, 0)
        _assert_directory_is_the_manifest(store)
        loaded, _ = store.open()
        assert cells(loaded) == cells(shifted)


class TestWhatUnretainsAFile:
    def test_deleted_or_truncated_file_is_rewritten_from_memory(
        self, tmp_path, short_tail, cells
    ):
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        names = sorted(os.listdir(store.segments_dir))
        os.remove(os.path.join(store.segments_dir, names[0]))
        whole = open(os.path.join(store.segments_dir, names[6]), "rb").read()
        open(os.path.join(store.segments_dir, names[6]), "wb").write(whole[:-5])
        open(os.path.join(store.segments_dir, names[12]), "wb").write(b"not a segment")
        assert _checkpoint(store, short_tail) == (3, 4 * COLUMNS - 3)
        _assert_directory_is_the_manifest(store)
        loaded, report = store.open()
        assert not report.quarantined
        assert cells(loaded) == cells(short_tail)

    def test_payload_bit_flip_under_intact_header_is_not_masked(
        self, tmp_path, short_tail
    ):
        store = TableStore(str(tmp_path / "t"))
        store.save(short_tail)
        victim = os.path.join(store.segments_dir, sorted(os.listdir(store.segments_dir))[1])
        data = bytearray(open(victim, "rb").read())
        data[-3] ^= 0x08
        open(victim, "wb").write(bytes(data))
        # The header still validates, so the checkpoint references the file
        # as it would have left it alone before — and must not launder it.
        assert _checkpoint(store, short_tail) == (0, 4 * COLUMNS)
        assert open(victim, "rb").read() == bytes(data)
        manager = ResidencyManager()
        lazy, _ = store.open(residency=manager)  # headers only: opens
        with pytest.raises(CorruptSegmentError):
            lazy.shards[0].column_array("amount")
        del lazy
        with pytest.raises(CorruptSegmentError):
            store.open()
        assert os.listdir(store.quarantine_dir) == [os.path.basename(victim)]
        assert storage_counters()["checksum_failures"] == 2


def _error_plan(site, hit):
    rule = FaultRule(ERROR, addresses=frozenset({(hit,)}))
    return FaultPlan(seed=0, rules={site: rule})


def _table_of(kind, source, store):
    """The table to append to and re-checkpoint, by how it came to be."""
    if kind == "written":
        return source, None
    if kind == "eager":
        return store.open()[0], None
    manager = ResidencyManager()
    return store.open(residency=manager)[0], manager


class TestFaultEveryWritePosition:
    @pytest.mark.parametrize("kind", ["written", "eager", "lazy"])
    def test_fault_at_every_write_position_keeps_previous_generation(
        self, tmp_path, cells, make_columns, kind
    ):
        """Append, then tear the checkpoint at each of its writes in turn.

        The append seals the tail, so the checkpoint writes two shards (ten
        segments) and the manifest: eleven positions.  At each one the
        store must reopen as the generation before the append, from files
        that are byte for byte what they were, and a retry must finish the
        job writing exactly what the torn attempt set out to write.
        """
        delta = make_columns(rows=30, seed=46)
        positions = [("segment_write", hit) for hit in range(2 * COLUMNS)]
        positions.append(("manifest_write", 0))
        for site, hit in positions:
            store = TableStore(str(tmp_path / f"{site}-{hit}"))
            source = _short_tail(make_columns)
            store.save(source)
            table, manager = _table_of(kind, source, store)
            durable = cells(table)
            generation = table.data_generation
            committed = _segment_bytes(store)
            # In memory only: the journal stays empty, so what reopens below
            # is the manifest's generation and nothing else.
            table.append_columns(delta)

            with fault_scope(_error_plan(site, hit)):
                with pytest.raises(InjectedFault):
                    store.save(table)
            # Nothing the previous manifest names was touched ...
            after = _segment_bytes(store)
            assert {name: after.get(name) for name in committed} == committed
            # ... and it reopens as it was, torn temp file and orphans swept.
            loaded, report = store.open()
            assert cells(loaded) == durable
            assert loaded.data_generation == generation
            assert not report.rebuilt_from_source and not report.quarantined
            assert report.temp_files_cleaned == 1
            assert _segment_bytes(store) == committed
            del loaded

            # The failed attempt recorded nothing: the retry's write set is
            # the attempt's, and it lands.
            assert _checkpoint(store, table) == (2 * COLUMNS, 3 * COLUMNS)
            _assert_directory_is_the_manifest(store)
            final, _ = store.open()
            assert cells(final) == cells(table)
            del final, table, source
            if manager is not None:
                manager.evict_all()
                assert manager.resident_bytes == 0
                assert manager.pinned_segments == 0
