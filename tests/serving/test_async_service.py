"""The asyncio front-end: coalescing, load shedding, and the 1.3 API.

Covers the api_redesign surface: ``submit_async`` semantics (deterministic
coalescing with zero extra UDF work, typed ``Overloaded`` shedding that is
always counted), the ``ServiceConfig``/legacy-kwarg shims, the unified
``stats()`` snapshot with its legacy aliases, and a custom strategy factory
served on the process backend.
"""

import asyncio
import threading
import time

import numpy as np
import pytest
from leakcheck import assert_no_leaked_resources

from repro.core.pipeline import IntelSample
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.resilience import DeadlineExceeded, FaultPlan, FaultRule, fault_scope
from repro.serving import Overloaded, QueryService, ServiceClosed, ServiceConfig
from repro.serving.config import EXECUTORS, SERVICE_STATS_SCHEMA, ServiceStats


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


def _hold_submit(service, gates=(), failing=()):
    """Interpose on ``service._submit`` (the body of the ``submit`` every
    dispatched request runs on its pool thread, inside the in-flight count): a
    seed in ``gates`` first waits for its event, a seed in ``failing`` raises.
    Returns the seeds in the order they reached a thread."""
    real, entered = service._submit, []

    def held(query, client_id, seed, audit):
        entered.append(seed)
        if seed in gates:
            assert gates[seed].wait(timeout=30)
        if seed in failing:
            raise LookupError(f"request {seed} failed")
        return real(query, client_id, seed, audit)

    service._submit = held
    return entered


async def _until(condition, timeout=10.0):
    expires = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < expires, "condition never held"
        await asyncio.sleep(0.002)


class TestTickDispatch:
    """Live hits of one event-loop iteration share one pool task and land
    together; everything a request is owed individually stays individual."""

    def _warm(self, name, **config):
        catalog, udf = _setup(name=name)
        service = QueryService(Engine(catalog), config=ServiceConfig(**config))
        query = _query(udf, table=name)
        service.submit(query, seed=0)  # plan it: from here on every request is a live hit
        return service, query

    def test_a_tick_returns_what_sequential_submits_return(self, assert_same_rows):
        service, query = self._warm("ttab", max_concurrency=2)
        twin, twin_query = self._warm("ttab")  # its own catalog, its own UDF memo

        async def tick():
            return await asyncio.gather(
                *[service.submit_async(query, seed=seed) for seed in range(1, 6)]
            )

        for ours, seed in zip(asyncio.run(tick()), range(1, 6)):
            theirs = twin.submit(twin_query, seed=seed)
            assert_same_rows(ours.row_ids, theirs.row_ids)
            assert ours.metadata["plan_cache"] == theirs.metadata["plan_cache"] == "hit"
            assert ours.ledger.total_cost == theirs.ledger.total_cost  # arrival order kept
        frontend = service.stats().frontend
        assert (frontend["ticks"], frontend["tick_requests"]) == (1, 5)
        assert twin.stats().frontend["ticks"] == 0
        service.close()
        twin.close()

    def test_an_awaiter_cancelled_before_its_turn_is_not_executed(self):
        service, query = self._warm("utab", max_concurrency=1)
        gate = threading.Event()
        entered = _hold_submit(service, gates={1: gate})

        async def scenario():
            tasks = [
                asyncio.create_task(service.submit_async(query, seed=seed))
                for seed in (1, 2, 3)
            ]
            try:
                await _until(lambda: entered == [1])  # the tick's task is on its thread
                tasks[1].cancel()
            finally:
                gate.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        queries_before = service.stats().serving["queries"]
        first, second, third = asyncio.run(scenario())
        assert isinstance(second, asyncio.CancelledError)
        assert first.metadata["plan_cache"] == third.metadata["plan_cache"] == "hit"
        assert entered == [1, 3]  # skipped: never reached submit, so nothing charged
        stats = service.stats()
        assert stats.serving["queries"] == queries_before + 2
        assert stats.frontend["pending"]["approximate"] == 0
        service.close()

    def test_an_awaiter_cancelled_mid_run_has_its_result_dropped(self):
        service, query = self._warm("vtab", max_concurrency=1)
        gate = threading.Event()
        entered = _hold_submit(service, gates={1: gate})

        async def scenario():
            tasks = [
                asyncio.create_task(service.submit_async(query, seed=seed))
                for seed in (1, 2)
            ]
            try:
                await _until(lambda: entered == [1])
                tasks[0].cancel()  # its submit is already running
                await asyncio.sleep(0)
            finally:
                gate.set()
            return await asyncio.gather(*tasks, return_exceptions=True)

        queries_before = service.stats().serving["queries"]
        first, second = asyncio.run(scenario())
        assert isinstance(first, asyncio.CancelledError)
        assert second.metadata["plan_cache"] == "hit"
        assert entered == [1, 2]
        assert service.stats().serving["queries"] == queries_before + 2  # it did run
        service.close()

    def test_an_exception_reaches_only_its_own_awaiter(self, assert_same_rows):
        service, query = self._warm("wtab", max_concurrency=2)
        _hold_submit(service, failing={2})

        async def tick():
            return await asyncio.gather(
                *[service.submit_async(query, seed=seed) for seed in (1, 2, 3)],
                return_exceptions=True,
            )

        first, second, third = asyncio.run(tick())
        assert isinstance(second, LookupError) and "request 2" in str(second)
        del service._submit  # back to the real one
        assert_same_rows(first.row_ids, service.submit(query, seed=1).row_ids)
        assert_same_rows(third.row_ids, service.submit(query, seed=3).row_ids)
        assert service.stats().frontend["tick_requests"] == 3
        service.close()

    def test_close_cancels_the_awaiters_of_a_queued_tick(self):
        service, query = self._warm("xtab", max_concurrency=1)
        gate = threading.Event()
        entered = _hold_submit(service, gates={1: gate})

        async def scenario():
            running = asyncio.create_task(service.submit_async(query, seed=1))
            try:
                await _until(lambda: entered == [1])  # the only pool thread is taken
                queued = [
                    asyncio.create_task(service.submit_async(query, seed=seed))
                    for seed in (2, 3, 4)
                ]
                await _until(lambda: service.stats().frontend["ticks"] == 2)
                # Undrained (the gated request is inside submit): close gives up
                # waiting and shuts the pool down with the second tick queued.
                await asyncio.get_running_loop().run_in_executor(None, service.close, 0.05)
                done, pending = await asyncio.wait(queued, timeout=10)
            finally:
                gate.set()
            return await running, done, pending

        ran, done, pending = asyncio.run(scenario())
        assert not pending, "an awaiter of the queued tick was left pending"
        assert len(done) == 3 and all(task.cancelled() for task in done)
        assert ran.metadata["plan_cache"] == "hit"  # in flight at close: drained
        assert entered == [1]
        assert service.stats().frontend["pending"]["approximate"] == 0
        assert_no_leaked_resources()

    def test_a_tick_flushed_after_close_fails_typed(self):
        service, query = self._warm("ytab")

        async def scenario():
            tasks = [
                asyncio.create_task(service.submit_async(query, seed=seed))
                for seed in (1, 2)
            ]
            await asyncio.sleep(0)  # both admitted, their tick not yet flushed
            service.close()
            return await asyncio.gather(*tasks, return_exceptions=True)

        assert [type(r) for r in asyncio.run(scenario())] == [ServiceClosed] * 2

    def test_two_event_loops_share_one_service(self, assert_same_rows):
        service, query = self._warm("ztab", max_concurrency=2)
        answers, errors = {}, []

        def drive(seeds):
            async def rounds():
                for _ in range(20):
                    results = await asyncio.gather(
                        *[service.submit_async(query, seed=seed) for seed in seeds]
                    )
                    answers[seeds] = results
            try:
                asyncio.run(rounds())
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(seeds,))
            for seeds in ((1, 2, 3), (4, 5, 6, 7))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors, errors
        for seeds, results in answers.items():
            for seed, result in zip(seeds, results):
                assert_same_rows(result.row_ids, service.submit(query, seed=seed).row_ids)
        frontend = service.stats().frontend
        assert (frontend["ticks"], frontend["tick_requests"]) == (40, 140)
        assert not service._ticks
        service.close()

    def test_a_python_callable_udf_dispatches_alone(self):
        udf = UserDefinedFunction("pyf", lambda row: bool(row["f"]))
        catalog, _ = _setup(udf=udf, name="ptab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="ptab")
        service.submit(query, seed=0)

        async def tick():
            return await asyncio.gather(
                *[service.submit_async(query, seed=seed) for seed in (1, 2, 3)]
            )

        assert [r.metadata["plan_cache"] for r in asyncio.run(tick())] == ["hit"] * 3
        assert service.stats().frontend["tick_requests"] == 0
        service.close()

    def test_the_process_backend_and_a_budgeted_client_dispatch_alone(self):
        service, query = self._warm("qtab", executor="process", max_workers=2)
        budgeted, _ = self._warm("qtab", default_budget=1e9)

        async def tick(target, client_id):
            return await asyncio.gather(
                *[target.submit_async(query, client_id, seed=seed) for seed in (1, 2, 3)]
            )

        try:
            for target, client_id in ((service, None), (budgeted, "alice")):
                results = asyncio.run(tick(target, client_id))
                assert [r.metadata["plan_cache"] for r in results] == ["hit"] * 3
                assert target.stats().frontend["tick_requests"] == 0
            # The same client without a budget holds no lock and re-solves nothing.
            unbudgeted, _ = self._warm("qtab")
            asyncio.run(tick(unbudgeted, "alice"))
            assert unbudgeted.stats().frontend["tick_requests"] == 3
            unbudgeted.close()
        finally:
            service.close()
            budgeted.close()
        assert_no_leaked_resources()


class TestAdmissionTimeDeadline:
    """``timeout_s`` bounds the whole wait: the clock starts in ``submit_async``,
    not when a pool thread picks the request up."""

    def test_a_budget_spent_in_the_queue_raises_and_charges_nothing(self):
        catalog, udf = _setup(name="dltab")
        service = QueryService(Engine(catalog), config=ServiceConfig(max_concurrency=1))
        query = _query(udf, table="dltab")
        service.submit(query, seed=0)
        slow = FaultPlan(
            seed=0, rules={"udf_eval": FaultRule(kind="sleep", probability=1.0, sleep_s=0.3)}
        )

        async def scenario():
            # One tick, one pool thread: the second request's turn comes when the
            # first one's sleeping evaluation is over - 0.3 s into a 0.1 s budget.
            return await asyncio.gather(
                service.submit_async(query, seed=1),
                service.submit_async(query, seed=2, timeout_s=0.1),
                return_exceptions=True,
            )

        calls_before = udf.counter_snapshot()["calls"]
        with fault_scope(slow):
            first, second = asyncio.run(scenario())
        assert first.metadata["plan_cache"] == "hit"
        assert isinstance(second, DeadlineExceeded)
        assert service.stats().serving["deadline_exceeded"] == 1
        # Only the first request evaluated anything.
        assert udf.counter_snapshot()["calls"] - calls_before == first.ledger.evaluated_count
        service.close()

    def test_without_a_timeout_no_deadline_is_built(self):
        catalog, udf = _setup(name="ndtab")
        service, deadlines = QueryService(Engine(catalog)), []
        real = service.submit

        def submit(*args, deadline=None, **kwargs):
            deadlines.append(deadline)
            return real(*args, deadline=deadline, **kwargs)

        service.submit = submit
        asyncio.run(service.submit_async(_query(udf, table="ndtab"), seed=1))
        assert deadlines == [None]
        service.close()


class TestLoadShedding:
    @pytest.mark.parametrize("limit", [1, 2, 4, 5])
    def test_overloaded_is_typed_counted_and_never_silent(self, limit):
        """Every request of a burst is answered or raises typed and counted.

        The leader holds one admission slot; ``limit - 1`` burst requests
        are admitted and follow its flight, the rest shed.  Nothing is
        dropped silently and the ``shed`` counter equals the raises.
        """
        burst_size = 12
        gate = threading.Event()
        udf = _gated_udf(gate)
        catalog, _ = _setup(udf=udf, name="dtab")
        service = QueryService(
            Engine(catalog),
            config=ServiceConfig(
                max_concurrency=1, class_limits={"approximate": limit}
            ),
        )
        query = _query(udf, table="dtab")

        async def scenario():
            leader = asyncio.create_task(service.submit_async(query, seed=5))
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                burst = [
                    asyncio.create_task(service.submit_async(query, seed=5))
                    for _ in range(burst_size)
                ]
                # One yield runs every burst task's admission in creation
                # order; gathering before the gate opens would wait
                # forever on the admitted followers.
                await asyncio.sleep(0)
            finally:
                gate.set()
            outcomes = await asyncio.gather(*burst, return_exceptions=True)
            return await leader, outcomes

        leader_result, outcomes = asyncio.run(scenario())
        assert leader_result.ledger.evaluated_count > 0
        shed = [item for item in outcomes if isinstance(item, Overloaded)]
        answered = [item for item in outcomes if not isinstance(item, BaseException)]
        assert len(shed) == burst_size - (limit - 1)
        assert len(answered) == limit - 1
        assert len(shed) + len(answered) == burst_size  # no silent drop
        for exc in shed:
            assert exc.query_class == "approximate"
            assert exc.limit == limit
            assert exc.pending >= 1
        metrics = service.stats().serving
        # Accounting delta is exactly zero: every raise is counted once.
        assert metrics["shed"] == len(shed)
        # Shed requests never reach the service, and the admitted
        # followers (the leader's seed, anonymous) share its result
        # without a query of their own: one query, one pipeline run.
        assert metrics["queries"] == 1
        assert metrics["coalesced"] == limit - 1
        assert metrics["pipeline_runs"] == 1

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
            QueryService(Engine(catalog), executor="process")

    def test_service_config_rejects_legacy_names(self):
        for name in ("parallel", "batch", "bogus"):
            with pytest.raises(ValueError, match="must be one of"):
                ServiceConfig(executor=name)

    def test_the_thread_backend_is_gone(self):
        """Removed in 1.12 (and ``"reference"`` in 1.16): the error names the
        two backends that remain."""
        assert EXECUTORS == ("serial", "process")
        for gone in ("thread", "reference"):
            with pytest.raises(ValueError) as raised:
                ServiceConfig(executor=gone)
            assert all(repr(name) in str(raised.value) for name in EXECUTORS)

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
        assert not hasattr(stats, "registry")  # removed in 1.27


class TestCustomStrategyOnTheProcessBackend:
    def test_a_strategy_without_an_executor_factory_hits_on_the_pool(self, monkeypatch):
        catalog, udf = _setup(name="jtab")

        class Opaque:  # answers as IntelSample does, with no executor_factory
            def __init__(self, random_state):
                self.answer = IntelSample(random_state=random_state).answer

        executed = []
        execute = ProcessPoolBatchExecutor.execute
        monkeypatch.setattr(
            ProcessPoolBatchExecutor,
            "execute",
            lambda self, *args, **kwargs: executed.append(self) or execute(self, *args, **kwargs),
        )
        config = ServiceConfig(executor="process", max_workers=1)
        with QueryService(Engine(catalog), strategy_factory=Opaque, config=config) as service:
            query = _query(udf, table="jtab")
            assert service.submit(query, seed=0).metadata["plan_cache"] == "miss"
            assert executed == []
            assert service.submit(query, seed=1).metadata["plan_cache"] == "hit"
            assert len(executed) == 1
