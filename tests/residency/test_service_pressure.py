"""QueryService under memory pressure: budgets, watermarks, shedding.

The serving layer discovers the residency manager behind any lazily
opened catalog table, applies ``ServiceConfig.memory_budget_bytes``,
reports the full residency snapshot under ``stats().storage``, and
degrades in the documented order — caches first (``high``), then typed
``Overloaded`` shedding of async admissions (``critical``) — while
answers stay bitwise identical to an unbounded service.
"""

import asyncio

import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore
from repro.db.udf import RevealLabel, UserDefinedFunction
from repro.serving import Overloaded, QueryService, ServiceConfig

from residency_tables import build_columns, numeric_columns


def _service_over(table, tag, config=None, python_udf=False):
    catalog = Catalog()
    catalog.register_table(table)
    if python_udf:  # no label column: every evaluation is a per-row call
        udf = UserDefinedFunction(f"press_{tag}", RevealLabel("f", True))
    else:
        udf = UserDefinedFunction.from_label_column(f"press_{tag}", "f")
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog), config=config or ServiceConfig())
    query = SelectQuery(
        table=table.name,
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column="A",
    )
    return service, query


@pytest.fixture
def lazy_pair(tmp_path):
    """Factory: (lazy table, its manager, eager twin) over one store.

    A factory (not a prebuilt tuple) so the tables are locals of the test
    frame — they become garbage before the leak gate sweeps memmaps.
    """

    def _build():
        source = ShardedTable.from_columns(
            "ptab", build_columns(rows=320, seed=9), num_shards=4, hidden_columns=["f"]
        )
        store = TableStore(str(tmp_path / "ptab"))
        store.save(source)
        manager = ResidencyManager()
        lazy, _ = store.open(residency=manager)
        eager, _ = store.open()
        return lazy, manager, eager

    return _build


class TestAdoption:
    def test_service_applies_config_budget_to_discovered_manager(self, lazy_pair):
        lazy, manager, _ = lazy_pair()
        service, _ = _service_over(
            lazy, "adopt", ServiceConfig(memory_budget_bytes=50_000)
        )
        try:
            assert manager.budget_bytes == 50_000
            residency = service.stats().storage["residency"]
            assert residency["budget_bytes"] == 50_000
            assert residency["pressure_level"] == "ok"
        finally:
            service.close()

    def test_stats_omit_residency_without_a_lazy_table(self, lazy_pair):
        _, _, eager = lazy_pair()
        service, _ = _service_over(eager, "plain")
        try:
            assert "residency" not in service.stats().storage
        finally:
            service.close()

    @pytest.mark.parametrize("python_udf", [False, True], ids=["label", "python"])
    @pytest.mark.parametrize("share", [4, 8], ids=["quarter", "eighth"])
    def test_bounded_submit_matches_unbounded_bitwise(self, lazy_pair, share, python_udf):
        """A table ``share`` times the budget answers as if fully resident.

        Same row ids and the same work, under genuine eviction pressure and
        without a fault, and never more resident than the budget plus the
        columns of the one shard a gather pins.
        """
        lazy, _, eager = lazy_pair()
        shard_bytes = [
            sum(shard.segment_handle(column).payload_bytes for column in shard.schema.column_names)
            for shard in lazy.shards
        ]
        budget = sum(shard_bytes) // share
        bounded_svc, bounded_q = _service_over(
            lazy, "par", ServiceConfig(memory_budget_bytes=budget), python_udf
        )
        eager_svc, eager_q = _service_over(eager, "par", python_udf=python_udf)
        try:
            bounded = bounded_svc.submit(bounded_q, seed=31)
            unbounded = eager_svc.submit(eager_q, seed=31)
            assert list(bounded.row_ids) == list(unbounded.row_ids)
            assert (
                bounded.ledger.evaluated_count == unbounded.ledger.evaluated_count
            )
            assert (
                bounded.ledger.retrieved_count == unbounded.ledger.retrieved_count
            )
            assert bounded_svc.stats().udfs == eager_svc.stats().udfs
            assert (
                bounded_svc.stats().serving["solver_calls"]
                == eager_svc.stats().serving["solver_calls"]
                == 1
            )
            residency = bounded_svc.stats().storage["residency"]
            assert residency["resident_bytes"] <= budget
            assert residency["evictions"] > 0
            assert residency["map_faults"] == residency["evict_faults"] == 0
            assert residency["peak_resident_bytes"] <= budget + max(shard_bytes)
        finally:
            bounded_svc.close()
            eager_svc.close()


class TestPressureDegradation:
    def test_high_pressure_sheds_caches(self, lazy_pair):
        lazy, _, _ = lazy_pair()
        service, query = _service_over(lazy, "high")
        try:
            service.submit(query, seed=7)
            assert service.plan_cache.snapshot()["size"] > 0
            service._on_memory_pressure("high")
            assert service.plan_cache.snapshot()["size"] == 0
            assert service.stats().serving["pressure_cache_clears"] == 1
        finally:
            service.close()

    def test_critical_pressure_sheds_async_admissions_typed(self, lazy_pair):
        lazy, _, _ = lazy_pair()
        service, query = _service_over(lazy, "crit")
        try:
            service._on_memory_pressure("critical")
            with pytest.raises(Overloaded) as excinfo:
                asyncio.run(service.submit_async(query, seed=7))
            assert excinfo.value.limit == 0
            stats = service.stats().serving
            assert stats["pressure_shed"] == 1
            assert stats["shed"] >= 1
            # Recovery: back at ok, the same request is admitted again.
            service._on_memory_pressure("ok")
            result = asyncio.run(service.submit_async(query, seed=7))
            assert result.row_ids is not None
        finally:
            service.close()

    def test_watermark_crossing_fires_cache_shed_end_to_end(self, tmp_path):
        # Numeric-only columns: 'amount' and 'count' are 1920 bytes each at
        # 240 rows, so a 4000-byte budget at watermark 0.9 goes high as the
        # second column maps — no manual _on_memory_pressure call involved.
        from repro.db.table import Table

        source = Table.from_columns(
            "wtab", numeric_columns(), hidden_columns=["f"]
        )
        store = TableStore(str(tmp_path / "wtab"))
        store.save(source)
        manager = ResidencyManager(watermark=0.9)
        lazy, _ = store.open(residency=manager)
        service, _ = _service_over(
            lazy, "water", ServiceConfig(memory_budget_bytes=4000)
        )
        try:
            lazy.column_array("amount")
            assert service.stats().serving["pressure_cache_clears"] == 0
            lazy.column_array("count")  # 3840 >= 3600: crosses the watermark
            assert service.stats().serving["pressure_cache_clears"] == 1
        finally:
            service.close()


class TestShutdownHygiene:
    def test_close_evicts_every_mapping(self, lazy_pair):
        lazy, manager, _ = lazy_pair()
        service, query = _service_over(lazy, "close")
        service.submit(query, seed=3)
        service.close()
        assert manager.resident_bytes == 0
        assert manager.mapped_segments == 0

    def test_closed_service_is_freed_without_the_collector(self, lazy_pair):
        """close() unhooks the pressure callback: no manager -> service cycle.

        A restart drops the old service, catalog and tables; were they a
        reference cycle, every restart would leave a table's worth of arrays
        waiting for a full collector pass.
        """
        import gc
        import weakref

        lazy, manager, _ = lazy_pair()
        service, query = _service_over(
            lazy, "dropped", ServiceConfig(memory_budget_bytes=4096)
        )
        service.submit(query, seed=3)
        service.submit(query, seed=4)
        gc.collect()
        gc.disable()
        try:
            service.close()
            refs = [weakref.ref(service), weakref.ref(lazy), weakref.ref(manager)]
            del service, query, lazy, manager
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()
