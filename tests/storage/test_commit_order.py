"""Group commit: the order in which a checkpoint and a warm save make their
files durable.

Every segment is fsynced before it is renamed into place.  A segment's
rename is not synced on its own: each commit directory — a table's
``segments/`` and every ``warm/`` a warm save writes — is synced exactly
once, after the commit's last segment rename and before the record that
names the files (``MANIFEST.json``, ``WARM.json``) is written.  The record
is then its own atomic write, whose directory sync follows its rename.

The recorder wraps ``os.fsync`` and ``os.replace`` and the record writers;
a file is known by its inode (a rename keeps it), a directory by its
``(device, inode)``.
"""

import os
import stat

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.storage import CatalogStore, TableStore, store as store_module
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig
from repro.serving import persistence


@pytest.fixture
def events(monkeypatch):
    """Every fsync (of a file or a directory), rename and record write, in
    the order they happen."""
    log = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            log.append(("sync_dir", (info.st_dev, info.st_ino)))
        else:
            log.append(("fsync", info.st_ino))
        return real_fsync(fd)

    def replace(src, dst):
        log.append(("rename", os.stat(src).st_ino, os.path.abspath(dst)))
        return real_replace(src, dst)

    def recording(real):
        def write_record(path, body):
            log.append(("record", os.path.abspath(path)))
            return real(path, body)

        return write_record

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(store_module, "write_manifest", recording(store_module.write_manifest))
    monkeypatch.setattr(persistence, "write_manifest", recording(persistence.write_manifest))
    return log


def _directory_id(path):
    info = os.stat(path)
    return (info.st_dev, info.st_ino)


def _assert_group_commit(events, directory, record):
    """``directory``'s segments are fsynced before their renames, and the
    directory is synced once: after the last of them, before ``record``."""
    directory = os.path.abspath(directory)
    record = os.path.abspath(record)
    record_at = events.index(("record", record))
    renames = [
        (position, event[1])
        for position, event in enumerate(events[:record_at])
        if event[0] == "rename" and os.path.dirname(event[2]) == directory
    ]
    assert renames, f"no segment was renamed into {directory}"
    for position, inode in renames:
        assert ("fsync", inode) in events[:position], "a segment renamed before its fsync"
    syncs = [
        position
        for position, event in enumerate(events[:record_at])
        if event == ("sync_dir", _directory_id(directory))
    ]
    assert len(syncs) == 1, f"{directory} synced {len(syncs)} times before its record"
    assert syncs[0] > renames[-1][0], "the directory synced before its last segment rename"


def _columns(rows=1_200):
    rng = np.random.default_rng(3)
    grade = rng.integers(0, 6, rows)
    return {
        "grade": [f"g{code}" for code in grade],
        "region": [f"r{code}" for code in rng.integers(0, 4, rows)],
        "amount": rng.normal(100.0, 20.0, rows).tolist(),
        "is_good": (rng.random(rows) < 0.2 + 0.1 * grade).tolist(),
    }


def _table():
    return ShardedTable.from_columns("loans", _columns(), hidden_columns=["is_good"], num_shards=4)


def test_a_checkpoint_syncs_its_segments_directory_once_before_the_manifest(tmp_path, events):
    store = TableStore(str(tmp_path / "loans"))
    store.save(_table())
    _assert_group_commit(events, store.segments_dir, store.manifest_path)
    segment_renames = [e for e in events if e[0] == "rename" and e[2].endswith(".seg")]
    assert len(segment_renames) == 4 * 4  # every (shard, column) of a fresh directory
    # The manifest is its own commit: fsynced, renamed, then its directory synced.
    manifest = os.path.abspath(store.manifest_path)
    renamed_at = next(i for i, e in enumerate(events) if e[0] == "rename" and e[2] == manifest)
    assert ("fsync", events[renamed_at][1]) in events[:renamed_at]
    assert ("sync_dir", _directory_id(store.directory)) in events[renamed_at:]


def test_a_checkpoint_that_writes_nothing_syncs_no_segments_directory(tmp_path, events):
    store = TableStore(str(tmp_path / "loans"))
    table = _table()
    store.save(table)
    events.clear()
    store.save(table)  # every segment retained
    assert not [e for e in events if e[0] == "rename" and e[2].endswith(".seg")]
    assert ("sync_dir", _directory_id(store.segments_dir)) not in events


def test_a_warm_save_syncs_each_warm_directory_once_before_its_record(tmp_path, events):
    catalog = Catalog()
    catalog.register_table(_table())
    CatalogStore(str(tmp_path)).save(catalog)
    catalog, _reports = CatalogStore(str(tmp_path)).open()
    udf = UserDefinedFunction.from_label_column("label", "is_good")
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog), config=ServiceConfig(storage_dir=str(tmp_path)))
    try:
        query = SelectQuery(
            table="loans", predicate=UdfPredicate(udf), alpha=0.8, beta=0.8, rho=0.8,
            correlated_column="grade",
        )
        service.submit(query, seed=1)
        events.clear()
        service.save_warm_state()
    finally:
        service.close()
    table_store = CatalogStore(str(tmp_path)).table_store("loans")
    catalog_warm = os.path.join(str(tmp_path), "warm")
    for warm_dir in (catalog_warm, table_store.warm_dir):
        _assert_group_commit(events, warm_dir, os.path.join(warm_dir, persistence.WARM_RECORD))
