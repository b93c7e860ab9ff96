"""Warm restart of a QueryService from durable storage.

The headline contract: persist a served workload, kill the service, reopen
from the manifest — the first repeated query is answered as a warm hit
(``plan_cache: "restored"``) with **zero** UDF evaluations and answers
bitwise identical to the pre-restart warm run at the same seed.  Stale or
corrupt warm state must never poison answers: it is skipped (or
quarantined) and the service starts cold.
"""

import os
from types import SimpleNamespace

import pytest

from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.storage import CatalogStore, storage_counters
from repro.db.udf import RevealLabel, UserDefinedFunction
from repro.serving import QueryService, ServiceConfig


@pytest.fixture(
    params=[("plain", "label"), ("plain", "python"), ("sharded", "label"), ("sharded", "python")],
    ids=["plain-label", "plain-python", "sharded-label", "sharded-python"],
)
def dataset(request):
    """What every restart test serves: a fresh lending_club table as loaded
    or in four shards, behind its label-column UDF or a python-callable UDF
    that reads the same label row by row."""
    layout, kind = request.param
    loaded = load_dataset("lending_club", random_state=42, scale=0.03)
    table = loaded.table
    if layout == "sharded":
        table = ShardedTable.from_table(table, num_shards=4)

    def make_udf(name):
        if kind == "label":
            return loaded.make_udf(name)
        return UserDefinedFunction(name, RevealLabel(loaded.label_column, True))

    return SimpleNamespace(table=table, make_udf=make_udf)


def _query(dataset, udf, column="grade"):
    return SelectQuery(
        table=dataset.table.name,
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column=column,
    )


def _fresh_service(dataset, storage_dir):
    catalog = Catalog()
    catalog.register_table(dataset.table)
    udf = dataset.make_udf("served")
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog), config=ServiceConfig(storage_dir=storage_dir)
    )
    return service, udf


def _restarted_service(dataset, storage_dir):
    """Reopen the catalog from the manifest, as a fresh process would."""
    catalog, reports = CatalogStore(storage_dir).open()
    udf = dataset.make_udf("served")  # UDFs are code: re-registered, cold
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog), config=ServiceConfig(storage_dir=storage_dir)
    )
    return service, udf, reports


def _serve_and_close(dataset, storage_dir, seed=7, column="grade"):
    """Cold + warm runs at ``seed``, then a clean shutdown (persists state)."""
    service, udf = _fresh_service(dataset, str(storage_dir))
    cold = service.submit(_query(dataset, udf, column), seed=0)
    assert cold.metadata["plan_cache"] == "miss"
    warm = service.submit(_query(dataset, udf, column), seed=seed)
    assert warm.metadata["plan_cache"] == "hit"
    service.close()
    return warm


class TestWarmRestart:
    @pytest.mark.parametrize("column", ["grade", None], ids=["given", "auto"])
    def test_restart_answers_restored_hit_with_zero_udf_work(
        self, tmp_path, dataset, column
    ):
        """Every reopen answers as a restored hit with zero UDF and solver
        work, and its close re-persists warm state the next reopen restores
        just the same.  With no designated column the cold run selected
        one, and the restored plan carries that choice."""
        warm = _serve_and_close(dataset, tmp_path, seed=7, column=column)
        for _reopen in range(2):
            service, udf, reports = _restarted_service(dataset, str(tmp_path))
            try:
                assert reports[dataset.table.name].generation == 0
                restored = service.submit(_query(dataset, udf, column), seed=7)
                assert restored.metadata["plan_cache"] == "restored"
                assert restored.metadata["udf_cache"]["calls"] == 0
                assert udf.counter_snapshot()["calls"] == 0
                assert list(restored.row_ids) == list(warm.row_ids)
                assert service.stats().serving["plan_restored"] == 1
                assert service.stats().serving["solver_calls"] == 0
                storage = service.stats().storage
                assert storage["restored_plans"] >= 1
                assert storage["restored_udf_memos"] == 1
                assert storage["restore_errors"] == 0
                assert storage["rebuilds"] == 0
                assert storage["checksum_failures"] == 0
            finally:
                written = storage_counters()["segments_written"]
                service.close()
            # Nothing was appended since the reopen: the checkpoint at close
            # references every segment and writes none.
            assert storage_counters()["segments_written"] == written

    def test_memo_section_in_the_dict_era_format_restores_with_zero_udf_work(
        self, tmp_path, dataset
    ):
        """A blob written before the array memo still restores warm.

        Until PR 14 the memo section was built from a ``{row_id: bool}`` dict
        (``fromiter`` + stable ``argsort``).  Rebuild it exactly that way,
        check the array memo captures the same thing, and restart from it.
        """
        import numpy as np

        from repro.serving.persistence import WARM_STATE_FILE, _read_blob, _write_blob

        warm = _serve_and_close(dataset, tmp_path, seed=7)
        store = CatalogStore(str(tmp_path)).table_store(dataset.table.name)
        path = os.path.join(store.warm_dir, WARM_STATE_FILE)
        payload = _read_blob(path)
        ids, values = payload["udf_memos"]["served"]
        legacy = dict(zip(ids.tolist()[::-1], values.tolist()[::-1]))
        legacy_ids = np.fromiter(legacy.keys(), dtype=np.intp, count=len(legacy))
        legacy_values = np.fromiter(legacy.values(), dtype=bool, count=len(legacy))
        order = np.argsort(legacy_ids, kind="stable")
        section = (legacy_ids[order], legacy_values[order])
        # Same ids and values; the blob holds the ids narrowed, the legacy
        # section (like every blob before the narrowing) as ``intp``.
        for ours, theirs in zip((ids, values), section):
            assert np.array_equal(ours, theirs)
        assert values.dtype == bool and ids.dtype.kind == "u"
        assert ids.dtype.itemsize < section[0].dtype.itemsize
        payload["udf_memos"]["served"] = section
        _write_blob(path, payload)

        service, udf, _ = _restarted_service(dataset, str(tmp_path))
        try:
            assert udf.counter_snapshot() == {
                "calls": 0, "cache_hits": 0, "cache_misses": 0,
                "cache_size": len(legacy), "row_calls": 0, "bulk_calls": 0,
            }
            restored = service.submit(_query(dataset, udf), seed=7)
            assert restored.metadata["plan_cache"] == "restored"
            assert restored.metadata["udf_cache"]["calls"] == 0
            assert list(restored.row_ids) == list(warm.row_ids)
            assert service.stats().storage["restore_errors"] == 0
        finally:
            service.close()

    def test_populated_candidate_frames_stay_out_of_the_warm_blob(
        self, tmp_path, dataset
    ):
        """Frames memoised by the hits before shutdown are not persisted.

        They live on the group index, which persists as ``(values, codes)``
        only; the restored plan is a ``restored`` hit that rebuilds its frame
        and answers exactly as before the restart.
        """
        from repro.core.executor import candidate_frame
        from repro.serving.persistence import WARM_STATE_FILE

        service, udf = _fresh_service(dataset, str(tmp_path))
        service.submit(_query(dataset, udf), seed=0)
        warm = service.submit(_query(dataset, udf), seed=7)
        assert warm.metadata["plan_cache"] == "hit"
        index = dataset.table.group_index("grade")
        assert index._derived, "the warm hit memoised no frame"
        counts = service.save_warm_state()
        assert counts["plans"] >= 1 and counts["group_indexes"] >= 1
        service.close()

        blob = CatalogStore(str(tmp_path)).table_store(dataset.table.name)
        with open(os.path.join(blob.warm_dir, WARM_STATE_FILE), "rb") as handle:
            assert b"CandidateFrame" not in handle.read()

        service, udf, _ = _restarted_service(dataset, str(tmp_path))
        try:
            table = service.catalog.table(dataset.table.name)
            restored_index = table.group_index("grade")
            assert restored_index._derived == {}
            restored = service.submit(_query(dataset, udf), seed=7)
            assert restored.metadata["plan_cache"] == "restored"
            assert list(restored.row_ids) == list(warm.row_ids)
            assert service.stats().storage["restore_errors"] == 0
            (entry,) = [entry for _, entry in service.plan_cache._cache.items()]
            assert restored_index._derived  # rebuilt by the restored hit ...
            frame = candidate_frame(restored_index, entry.sample_outcome)
            again = service.submit(_query(dataset, udf), seed=7)
            assert again.metadata["plan_cache"] == "hit"
            # ... and found, not rebuilt, by the hit after it.
            assert candidate_frame(restored_index, entry.sample_outcome) is frame
            assert list(again.row_ids) == list(warm.row_ids)
        finally:
            service.close()

    def test_restored_flag_clears_after_first_hit(self, tmp_path, dataset):
        _serve_and_close(dataset, tmp_path, seed=7)
        service, udf, _ = _restarted_service(dataset, str(tmp_path))
        try:
            assert service.submit(_query(dataset, udf), seed=7).metadata[
                "plan_cache"
            ] == "restored"
            again = service.submit(_query(dataset, udf), seed=7)
            assert again.metadata["plan_cache"] == "hit"
            assert service.stats().serving["plan_restored"] == 1
        finally:
            service.close()

    def test_stale_signature_skips_warm_state_and_starts_cold(
        self, tmp_path, dataset
    ):
        _serve_and_close(dataset, tmp_path, seed=7)
        catalog, _ = CatalogStore(str(tmp_path)).open()
        table = catalog.table(dataset.table.name)
        # Churn the reopened table before the service comes up: its
        # signature no longer matches the persisted warm state.
        delta = {
            name: table.column_values(name, allow_hidden=True)[:3]
            for name in table.schema.column_names
        }
        table.append_columns(delta)
        udf = dataset.make_udf("served")
        catalog.register_udf(udf)
        service = QueryService(
            Engine(catalog), config=ServiceConfig(storage_dir=str(tmp_path))
        )
        try:
            storage = service.stats().storage
            assert storage["restored_plans"] == 0
            assert storage["restore_errors"] >= 1
            result = service.submit(_query(dataset, udf), seed=7)
            assert result.metadata["plan_cache"] == "miss"
        finally:
            service.close()

    def test_corrupt_warm_blob_is_quarantined_and_service_starts_cold(
        self, tmp_path, dataset
    ):
        _serve_and_close(dataset, tmp_path, seed=7)
        store = CatalogStore(str(tmp_path)).table_store(dataset.table.name)
        blob = os.path.join(store.warm_dir, "state.blob")
        data = bytearray(open(blob, "rb").read())
        data[len(data) // 2] ^= 0x20
        open(blob, "wb").write(bytes(data))
        service, udf, _ = _restarted_service(dataset, str(tmp_path))
        try:
            storage = service.stats().storage
            assert storage["restore_errors"] >= 1
            assert storage["restored_plans"] == 0
            assert storage["checksum_failures"] >= 1
            assert os.listdir(store.quarantine_dir)  # blob moved aside
            result = service.submit(_query(dataset, udf), seed=7)
            assert result.metadata["plan_cache"] == "miss"
        finally:
            service.close()

    def test_save_warm_state_requires_configured_storage(self, dataset):
        catalog = Catalog()
        catalog.register_table(dataset.table)
        udf = dataset.make_udf("served")
        catalog.register_udf(udf)
        service = QueryService(Engine(catalog))
        try:
            assert service.stats().storage == {}
            with pytest.raises(ValueError):
                service.save_warm_state()
        finally:
            service.close()

    def test_explicit_save_counts_and_close_saves_again(self, tmp_path, dataset):
        service, udf = _fresh_service(dataset, str(tmp_path))
        service.submit(_query(dataset, udf), seed=0)
        counts = service.save_warm_state()
        assert counts["plans"] >= 1
        assert service.stats().storage["warm_state_saved"] == 1
        service.close()
        store = CatalogStore(str(tmp_path)).table_store(dataset.table.name)
        assert store.exists()
        assert os.path.exists(os.path.join(store.warm_dir, "state.blob"))

    def test_restored_group_indexes_counts_what_was_installed(self, tmp_path, dataset):
        _serve_and_close(dataset, tmp_path, seed=7)
        service, udf, _ = _restarted_service(dataset, str(tmp_path))
        try:
            assert service.stats().storage["restored_group_indexes"] == 1
            builds = GroupIndex.builds_total
            service.catalog.table(dataset.table.name).group_index("grade")
            assert GroupIndex.builds_total == builds  # installed, not built
        finally:
            service.close()
        # A catalog used before the service is constructed on it: the table
        # already holds the index, which is kept — and not counted as restored.
        catalog, _reports = CatalogStore(str(tmp_path)).open()
        catalog.register_udf(dataset.make_udf("served"))
        own = catalog.table(dataset.table.name).group_index("grade")
        service = QueryService(
            Engine(catalog), config=ServiceConfig(storage_dir=str(tmp_path))
        )
        try:
            storage = service.stats().storage
            assert storage["restored_group_indexes"] == 0
            assert storage["restore_errors"] == 0 and storage["restored_plans"] == 1
            assert catalog.table(dataset.table.name).group_index("grade") is own
        finally:
            service.close()

