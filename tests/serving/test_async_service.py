"""The asyncio front-end: coalescing, load shedding, and the 1.3 API.

Covers the api_redesign surface: ``submit_async`` semantics (deterministic
coalescing with zero extra UDF work, typed ``Overloaded`` shedding that is
always counted), the ``ServiceConfig``/legacy-kwarg shims, the unified
``stats()`` snapshot with its legacy aliases, and the ``ExecutorAware``
constructor validation that replaced the old ``hasattr`` duck-typing.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.executor import ExecutorAware
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.obs.metrics import MetricsRegistry, disable_metrics, enable_metrics
from repro.serving import Overloaded, QueryService, ServiceConfig
from repro.serving.config import SERVICE_STATS_SCHEMA, ServiceStats


def _table(n=300, groups=4, seed=9, name="atab"):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        name,
        {
            "A": [f"a{int(v)}" for v in rng.integers(0, groups, n)],
            "f": [bool(v) for v in rng.random(n) < 0.4],
        },
        hidden_columns=["f"],
    )


def _setup(udf=None, name="atab"):
    catalog = Catalog()
    catalog.register_table(_table(name=name))
    udf = udf or UserDefinedFunction.from_label_column("audf", "f")
    catalog.register_udf(udf)
    return catalog, udf


def _query(udf, table="atab", alpha=0.7, beta=0.7):
    return SelectQuery(
        table=table,
        predicate=UdfPredicate(udf),
        alpha=alpha,
        beta=beta,
        rho=0.8,
        correlated_column="A",
    )


def _gated_udf(gate):
    def func(row):
        gate.wait(timeout=30)
        return bool(row["f"])

    return UserDefinedFunction("gated", func)


class TestCoalescing:
    def test_followers_share_leader_result_bitwise(self):
        gate = threading.Event()
        udf = _gated_udf(gate)
        catalog, _ = _setup(udf=udf)
        service = QueryService(Engine(catalog))
        query = _query(udf)

        async def scenario():
            leader = asyncio.create_task(service.submit_async(query, seed=5))
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                followers = [
                    asyncio.create_task(service.submit_async(query, seed=5))
                    for _ in range(3)
                ]
                await asyncio.sleep(0.05)  # let followers reach the flight await
            finally:
                gate.set()
            return await asyncio.gather(leader, *followers)

        results = asyncio.run(scenario())
        reference = np.asarray(results[0].row_ids)
        for result in results[1:]:
            assert np.array_equal(reference, np.asarray(result.row_ids))
            assert result.metadata.get("coalesced") is True
            assert result.ledger is results[0].ledger  # work done exactly once
        metrics = service.stats().serving
        # One cold pipeline, one submitted query: followers charged nothing.
        assert metrics["queries"] == 1
        assert metrics["pipeline_runs"] == 1
        assert metrics["coalesced"] == 3
        assert "coalesced" in service.stats().latency_ms

    def test_follower_cannot_edit_the_leaders_answer(self, assert_same_rows):
        """The share is zero-copy and safe: neither side can write through it."""
        gate = threading.Event()
        udf = _gated_udf(gate)
        catalog, _ = _setup(udf=udf, name="stab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="stab")

        async def scenario():
            leader = asyncio.create_task(service.submit_async(query, seed=5))
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                follower = asyncio.create_task(service.submit_async(query, seed=5))
                await asyncio.sleep(0.05)  # let the follower reach the flight await
            finally:
                gate.set()
            return await asyncio.gather(leader, follower)

        leader_result, follower_result = asyncio.run(scenario())
        assert follower_result.metadata.get("coalesced") is True
        assert leader_result.row_ids.size > 0
        assert_same_rows(follower_result.row_ids, leader_result.row_ids)
        before = leader_result.row_ids.tolist()
        for result in (leader_result, follower_result):
            assert not result.row_ids.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                result.row_ids[0] = -1
            with pytest.raises(ValueError, match="read-only"):
                result.row_ids.sort()
        # Sharing memory is allowed (and is what happens); a leak through it is not.
        assert np.shares_memory(leader_result.row_ids, follower_result.row_ids)
        assert leader_result.row_ids.tolist() == before
        assert follower_result.row_ids.tolist() == before

    def test_different_seed_follower_resubmits_warm(self):
        gate = threading.Event()
        udf = _gated_udf(gate)
        catalog, _ = _setup(udf=udf, name="btab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="btab")

        async def scenario():
            leader = asyncio.create_task(service.submit_async(query, seed=5))
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                follower = asyncio.create_task(service.submit_async(query, seed=6))
                await asyncio.sleep(0.05)
            finally:
                gate.set()
            return await asyncio.gather(leader, follower)

        leader_result, follower_result = asyncio.run(scenario())
        assert leader_result.metadata["plan_cache"] == "miss"
        assert "coalesced" not in follower_result.metadata
        assert follower_result.metadata["plan_cache"] == "hit"
        metrics = service.stats().serving
        assert metrics["queries"] == 2
        assert metrics["pipeline_runs"] == 1
        assert metrics["coalesced"] == 0

    def test_warm_requests_do_not_coalesce(self):
        catalog, udf = _setup(name="ctab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="ctab")
        service.submit(query, seed=1)  # warm the plan

        async def scenario():
            return await asyncio.gather(
                service.submit_async(query, seed=2),
                service.submit_async(query, seed=2),
            )

        first, second = asyncio.run(scenario())
        assert service.stats().serving["coalesced"] == 0
        assert np.array_equal(np.asarray(first.row_ids), np.asarray(second.row_ids))


class TestLoadShedding:
    def test_overloaded_is_typed_counted_and_never_silent(self):
        enable_metrics(MetricsRegistry())
        try:
            gate = threading.Event()
            udf = _gated_udf(gate)
            catalog, _ = _setup(udf=udf, name="dtab")
            service = QueryService(
                Engine(catalog),
                config=ServiceConfig(
                    max_concurrency=1, class_limits={"approximate": 1}
                ),
            )
            query = _query(udf, table="dtab")

            async def scenario():
                leader = asyncio.create_task(service.submit_async(query, seed=5))
                try:
                    while not service._flights:
                        await asyncio.sleep(0.005)
                    shed = await asyncio.gather(
                        *[service.submit_async(query, seed=5) for _ in range(5)],
                        return_exceptions=True,
                    )
                finally:
                    gate.set()
                return await leader, shed

            leader_result, shed = asyncio.run(scenario())
            assert leader_result.ledger.evaluated_count > 0
            assert len(shed) == 5
            for exc in shed:
                assert isinstance(exc, Overloaded)  # typed, never silently dropped
                assert exc.query_class == "approximate"
                assert exc.limit == 1
                assert exc.pending >= 1
            metrics = service.stats().serving
            # Accounting delta is exactly zero: every raise is counted once.
            assert metrics["shed"] == 5
            # Shed requests never executed: one query, one pipeline run.
            assert metrics["queries"] == 1
        finally:
            disable_metrics()

    def test_pending_drains_after_completion(self):
        catalog, udf = _setup(name="etab")
        service = QueryService(
            Engine(catalog), config=ServiceConfig(max_pending=2)
        )
        query = _query(udf, table="etab")
        asyncio.run(service.submit_async(query, seed=1))
        assert service.stats().frontend["pending"].get("approximate", 0) == 0


class TestConfigShims:
    def test_loose_keywords_are_gone(self):
        """The pre-1.3 constructor keywords were removed in 1.7: config= only."""
        catalog, _ = _setup(name="ftab")
        with pytest.raises(TypeError, match="executor"):
            QueryService(Engine(catalog), executor="thread")

    def test_service_config_rejects_legacy_names(self):
        for name in ("parallel", "batch", "bogus"):
            with pytest.raises(ValueError, match="must be one of"):
                ServiceConfig(executor=name)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_concurrency=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServiceConfig(class_limits={"exact": -1})


class TestStatsSurface:
    def test_stats_shape_matches_schema(self):
        catalog, udf = _setup(name="htab")
        service = QueryService(Engine(catalog))
        service.submit(_query(udf, table="htab"), seed=0)
        stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert set(stats.to_dict()) == set(SERVICE_STATS_SCHEMA)
        assert stats.serving["queries"] == 1
        assert "shed" in stats.serving and "coalesced" in stats.serving
        assert stats.frontend["max_pending"] == service.config.max_pending
        assert "all" in stats.latency_ms

    def test_stats_is_the_only_stats_method(self):
        """The metrics()/latency_snapshot()/metrics_snapshot() aliases are gone;
        everything they reported is a field of stats()."""
        catalog, udf = _setup(name="itab")
        service = QueryService(Engine(catalog))
        service.submit(_query(udf, table="itab"), seed=0)
        for alias in ("metrics", "latency_snapshot", "metrics_snapshot"):
            assert not hasattr(service, alias)
        stats = service.stats()
        assert stats.serving["queries"] == 1 and "retried_spans" in stats.serving
        assert stats.plan_cache == service.plan_cache.snapshot()
        assert stats.stats_cache == service.stats_cache.snapshot()
        assert stats.latency_ms["all"]["count"] == 1
        assert stats.registry == {}  # the opt-in registry is off here


class TestExecutorAwareValidation:
    def test_non_aware_strategy_rejected_for_parallel_backends(self):
        catalog, _ = _setup(name="jtab")

        class Opaque:
            def __init__(self, random_state):
                pass

        for backend in ("thread", "process"):
            with pytest.raises(TypeError, match="ExecutorAware"):
                QueryService(
                    Engine(catalog),
                    strategy_factory=Opaque,
                    config=ServiceConfig(executor=backend),
                )
        # Serial backends never inject an executor, so anything goes.
        QueryService(
            Engine(catalog),
            strategy_factory=Opaque,
            config=ServiceConfig(executor="serial"),
        )

    def test_default_strategy_is_executor_aware(self):
        catalog, _ = _setup(name="ktab")
        service = QueryService(
            Engine(catalog), config=ServiceConfig(executor="thread", max_workers=2)
        )
        assert isinstance(service._strategy_prototype, ExecutorAware)
