"""Checkpointing a lazily opened table keeps the files its handles read.

The regression this pins: a checkpoint at a new generation used to write
every segment again under new names and then delete the old generation's
files — the very files a lazily opened table's live ``SegmentHandle`` s
(and their ``durable_block`` direct-attach coordinates) still pointed at.
The next map after an eviction raised ``CorruptSegmentError: segment file
missing``.  A checkpoint now references the files of every shard that has
not changed, so a lazy shard's files outlive any number of checkpoints, and
no lazy shard is mapped just to be checkpointed.
"""

import os

import numpy as np

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.shm import export_table_spans
from repro.db.storage import CatalogStore, TableStore, storage_counters
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceConfig

from residency_tables import build_columns, numeric_columns


def _all_cells(table):
    return {
        name: [
            shard.column_array(name, allow_hidden=True).tolist()
            for shard in getattr(table, "shards", [table])
        ]
        for name in table.schema.column_names
    }


class TestStoreLevel:
    def test_checkpoint_then_evict_then_read_every_shard(
        self, sharded_table, make_lazy, cells
    ):
        lazy, manager, store = make_lazy(sharded_table)
        delta = build_columns(rows=7, seed=3)
        store.append(lazy, delta)
        sharded_table.append_columns(delta)  # the in-memory twin
        store.save(lazy)  # a new generation; sealed shards are still lazy
        manager.evict_all()
        # Every shard reads, whole, shard by shard (this is the line that
        # raised "segment file missing" for shard 0).
        assert _all_cells(lazy) == _all_cells(sharded_table)
        reopened, report = store.open()
        assert cells(reopened) == cells(sharded_table)
        assert report.journal_records_replayed == 0
        del reopened
        manager.evict_all()
        assert manager.resident_bytes == 0
        assert manager.pinned_segments == 0

    def test_checkpoint_maps_no_lazy_shard(self, sharded_table, make_lazy):
        lazy, manager, store = make_lazy(sharded_table)
        columns = len(sharded_table.schema.column_names)
        store.append(lazy, build_columns(rows=7, seed=3))  # materialises the tail
        before = storage_counters()
        store.save(lazy)
        after = storage_counters()
        assert manager.snapshot()["maps"] == 0
        assert manager.mapped_segments == 0
        # 3 sealed shards referenced; the appended-to tail went over its
        # limit and was sealed into two fresh shards, both written.
        assert after["segments_retained"] - before["segments_retained"] == 3 * columns
        assert after["segments_written"] - before["segments_written"] == 2 * columns

    def test_unchanged_lazy_table_checkpoints_without_writing(
        self, sharded_table, make_lazy
    ):
        lazy, manager, store = make_lazy(sharded_table)
        before = storage_counters()["segments_written"]
        present = sorted(os.listdir(store.segments_dir))
        store.save(lazy)
        assert storage_counters()["segments_written"] == before
        assert sorted(os.listdir(store.segments_dir)) == present
        assert manager.snapshot()["maps"] == 0

    def test_checkpoint_elsewhere_does_not_forget_the_home_directory(
        self, sharded_table, make_lazy, tmp_path
    ):
        """Why the record is kept per directory, not as one slot.

        The home manifest mixes generations (sealed shards at 0, the tail
        at 1).  Were a checkpoint into a second directory to overwrite the
        record, the next one at home would find none, write every shard
        under generation-1 names and sweep the generation-0 files the lazy
        shards' handles still read.
        """
        lazy, manager, home = make_lazy(sharded_table)
        home.append(lazy, build_columns(rows=7, seed=3))
        home.save(lazy)
        del lazy
        manager.evict_all()
        lazy, _ = home.open(residency=manager)
        columns = len(sharded_table.schema.column_names)
        before = storage_counters()["segments_written"]
        TableStore(str(tmp_path / "elsewhere")).save(lazy)  # maps and writes all
        assert storage_counters()["segments_written"] - before == 5 * columns
        manager.evict_all()
        home.save(lazy)
        assert storage_counters()["segments_written"] - before == 5 * columns
        assert manager.snapshot()["maps"] == 5 * columns  # none for the home save
        sharded_table.append_columns(build_columns(rows=7, seed=3))
        assert _all_cells(lazy) == _all_cells(sharded_table)
        manager.evict_all()

    def test_direct_attach_coordinates_survive_a_checkpoint(self, tmp_path):
        source = ShardedTable.from_columns(
            "dtab", numeric_columns(rows=320, seed=9), num_shards=4, hidden_columns=["f"]
        )
        store = TableStore(str(tmp_path / "dtab"))
        store.save(source)
        manager = ResidencyManager()
        lazy, _ = store.open(residency=manager)
        exports = export_table_spans(lazy, ["amount", "f"])
        paths = {block.path for export in exports for block in export.columns.values()}
        store.append(lazy, numeric_columns(rows=5, seed=4))
        store.save(lazy)
        # The tail left the residency domain (it was appended to); every
        # other shard's file is where the worker-side attach expects it.
        tail_paths = {block.path for block in exports[-1].columns.values()}
        assert all(os.path.exists(path) for path in paths - tail_paths)
        del exports
        manager.evict_all()


def _register_query(catalog):
    udf = UserDefinedFunction.from_label_column("lazy_ckpt", "f")
    catalog.register_udf(udf)
    query = SelectQuery(
        table="ctab",
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column="A",
    )
    return udf, query


def _lazy_service(storage_dir, budget):
    manager = ResidencyManager(watermark=1.0)
    catalog, _ = CatalogStore(storage_dir).open(residency=manager)
    udf, query = _register_query(catalog)
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(storage_dir=storage_dir, memory_budget_bytes=budget),
    )
    return service, manager, udf, query


class TestThroughTheService:
    def test_mid_life_checkpoint_then_memo_reset_query(self, tmp_path):
        storage_dir = str(tmp_path / "svc")
        source = ShardedTable.from_columns(
            "ctab", build_columns(rows=320, seed=9), num_shards=4, hidden_columns=["f"]
        )
        catalog = Catalog()
        catalog.register_table(source)
        CatalogStore(storage_dir).save(catalog)

        service, manager, udf, query = _lazy_service(storage_dir, budget=1500)
        try:
            table = service.catalog.table("ctab")
            service.submit(query, seed=5)
            CatalogStore(storage_dir).table_store("ctab").append(
                table, build_columns(rows=6, seed=8)
            )
            service.submit(query, seed=5)  # refresh at the new generation
            service.save_warm_state()  # the mid-life checkpoint
            manager.evict_all()
            udf.reset()  # forces label reads: every shard's 'f' maps again
            result = service.submit(query, seed=6)
            assert udf.counter_snapshot()["calls"] > 0
        finally:
            service.close()
        assert manager.resident_bytes == 0
        assert manager.pinned_segments == 0

        # The same life, lived by an in-memory twin that never checkpoints.
        twin_udf, twin_query = _register_query(catalog)
        with QueryService(Engine(catalog)) as twin:
            twin.submit(twin_query, seed=5)
            source.append_columns(build_columns(rows=6, seed=8))
            twin.submit(twin_query, seed=5)
            twin_udf.reset()
            expected = twin.submit(twin_query, seed=6)
        assert np.array_equal(result.row_ids, expected.row_ids)
        # And what was checkpointed mid-life is what an eager open reads.
        reopened, _ = CatalogStore(storage_dir).open()
        assert reopened.table("ctab").column_values("f", allow_hidden=True) == (
            source.column_values("f", allow_hidden=True)
        )
