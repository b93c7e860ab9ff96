"""The one flight table: who leads, who waits, who lands, through both front-ends.

``QueryService`` plans a cold (or stale) signature once however many
requests want it: the first opens the signature's flight and leads, the rest
wait for the landing and then run *their own* warm execution.  These tests
pin the behaviour at the seams — concurrency after the landing, promotion
after a failed leader, an asyncio follower behind a synchronous leader, the
rule that nobody parks a front-end pool thread behind a flight whose leader
is still queued for that pool — and that cold miss and refresh are one solve
path that differs only in where its statistics come from.

Every gated leader releases its gate in a ``finally``: an assertion failing
before ``gate.set()`` must fail the test, not park a non-daemon thread in
the UDF for the rest of the run.
"""

import asyncio
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import RevealLabel, UserDefinedFunction
from repro.serving import QueryService, ServiceConfig


def _columns(rows, seed=9):
    rng = np.random.default_rng(seed)
    return {
        "A": [f"a{int(v)}" for v in rng.integers(0, 4, rows)],
        "f": [bool(v) for v in rng.random(rows) < 0.4],
    }


def _service(*udfs, rows=300, config=None, shards=None):
    """A service over one table ``flights`` with ``udfs`` registered."""
    table = Table.from_columns("flights", _columns(rows), hidden_columns=["f"])
    if shards is not None:
        table = ShardedTable.from_table(table, num_shards=shards)
    catalog = Catalog()
    catalog.register_table(table)
    for udf in udfs:
        catalog.register_udf(udf)
    return QueryService(Engine(catalog), config=config)


def _query(udf, alpha=0.7, beta=0.7, column="A"):
    return SelectQuery(
        table="flights",
        predicate=UdfPredicate(udf),
        alpha=alpha,
        beta=beta,
        rho=0.8,
        correlated_column=column,
    )


def _gated_udf(gate, name="gated", fail_on=None):
    """A python-callable UDF parked on ``gate``; raises on thread ``fail_on[0]``."""

    def func(row):
        gate.wait(timeout=30)
        if fail_on and threading.get_ident() == fail_on[0]:
            raise RuntimeError("leader's labelling failed")
        return bool(row["f"])

    return UserDefinedFunction(name, func)


def _wait_until(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.005)


class TestSyncFlights:
    def test_waiters_execute_concurrently_once_the_flight_lands(self):
        """k waiters must be inside their warm execution at the same time.

        A waiter that ran its warm execution while still holding whatever it
        waited on would serialise the very traffic the plan cache exists to
        parallelise: the first one into the barrier would keep the others
        out, and the barrier would time out.
        """
        waiters = 3
        gate = threading.Event()
        udf = _gated_udf(gate)
        service = _service(udf)
        query = _query(udf)
        barrier = threading.Barrier(waiters, timeout=5.0)
        execute_cached = service._execute_cached

        def rendezvous(*args, **kwargs):
            barrier.wait()  # BrokenBarrierError unless all waiters get here at once
            return execute_cached(*args, **kwargs)

        service._execute_cached = rendezvous
        with ThreadPoolExecutor(max_workers=waiters + 1) as pool:
            try:
                leader = pool.submit(service.submit, query, seed=0)
                _wait_until(lambda: service._flights, "the leader's flight")
                followers = [
                    pool.submit(service.submit, query, seed=seed)
                    for seed in range(1, waiters + 1)
                ]
                _wait_until(
                    lambda: service.stats().serving["flight_waits"] == waiters,
                    "every waiter to park",
                )
            finally:
                gate.set()
            assert leader.result(timeout=30).metadata["plan_cache"] == "miss"
            for follower in followers:
                assert follower.result(timeout=30).metadata["plan_cache"] == "hit"
        metrics = service.stats().serving
        assert metrics["pipeline_runs"] == 1
        assert metrics["plan_hits"] == waiters
        assert not service._flights

    def test_failed_leader_promotes_exactly_one_waiter(self):
        waiters = 3
        gate = threading.Event()
        leader_thread = [None]
        udf = _gated_udf(gate, fail_on=leader_thread)
        service = _service(udf)
        query = _query(udf)

        def lead():
            leader_thread[0] = threading.get_ident()
            return service.submit(query, seed=0)

        with ThreadPoolExecutor(max_workers=waiters + 1) as pool:
            try:
                leader = pool.submit(lead)
                _wait_until(lambda: service._flights, "the leader's flight")
                followers = [
                    pool.submit(service.submit, query, seed=seed)
                    for seed in range(1, waiters + 1)
                ]
                _wait_until(
                    lambda: service.stats().serving["flight_waits"] >= waiters,
                    "every waiter to park",
                )
                runs_before = service.stats().serving["pipeline_runs"]
            finally:
                gate.set()
            # The error is the leader's caller's alone ...
            with pytest.raises(RuntimeError, match="leader's labelling failed"):
                leader.result(timeout=30)
            # ... every other request is answered ...
            answers = [follower.result(timeout=30) for follower in followers]
        assert sorted(a.metadata["plan_cache"] for a in answers) == ["hit", "hit", "miss"]
        metrics = service.stats().serving
        # ... and exactly one waiter re-planned: one run beyond the failed one.
        assert runs_before == 1
        assert metrics["pipeline_runs"] == runs_before + 1
        assert not service._flights

    def test_cold_flights_under_contention_plan_once_and_all_land(self):
        """Stress: more threads than cores, a short switch interval, cold rounds.

        Invariants a lost update in the flight table would break: every
        request is answered, each signature is planned exactly once per cold
        round, and no flight is left open (or landed twice, which raises).
        """
        udf = UserDefinedFunction.from_label_column("stress_udf", "f")
        service = _service(udf, rows=600)
        queries = [_query(udf, alpha=alpha) for alpha in (0.6, 0.65, 0.7, 0.75)]
        threads, rounds = 8, 6
        start = threading.Barrier(threads, timeout=30.0)

        def client(position):
            start.wait()
            order = queries[position % len(queries):] + queries[:position % len(queries)]
            return [service.submit(query, seed=position).row_ids.size for query in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(rounds):
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    futures = [pool.submit(client, position) for position in range(threads)]
                    for future in futures:
                        assert len(future.result(timeout=60)) == len(queries)
                assert not service._flights
                service.clear_caches()
        finally:
            sys.setswitchinterval(interval)
        metrics = service.stats().serving
        assert metrics["queries"] == rounds * threads * len(queries)
        assert metrics["pipeline_runs"] == rounds * len(queries)
        assert metrics["plan_misses"] == rounds * len(queries)
        assert metrics["plan_hits"] == metrics["queries"] - metrics["plan_misses"]


class TestAsyncAndSyncShareTheTable:
    def test_async_arrival_follows_a_sync_leaders_flight(self):
        """... on the event loop, holding no pool thread, then re-submits warm."""
        gate = threading.Event()
        gated = _gated_udf(gate)
        plain = UserDefinedFunction.from_label_column("plain", "f")
        service = _service(gated, plain, config=ServiceConfig(max_concurrency=1))
        cold, other = _query(gated), _query(plain)
        leader_results = []
        leader = threading.Thread(
            target=lambda: leader_results.append(service.submit(cold, seed=5))
        )

        async def scenario():
            await service.submit_async(other, seed=1)  # warm the other signature
            leader.start()
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                follower = asyncio.create_task(service.submit_async(cold, seed=5))
                await asyncio.sleep(0.05)  # let the follower reach the flight await
                # The one pool thread is free: another signature's warm
                # request is answered while the follower waits.
                meanwhile = await asyncio.wait_for(
                    service.submit_async(other, seed=2), timeout=10.0
                )
                assert not follower.done()
            finally:
                gate.set()
            return meanwhile, await asyncio.wait_for(follower, timeout=30.0)

        meanwhile, followed = asyncio.run(scenario())
        leader.join(timeout=30)
        assert not leader.is_alive() and leader_results
        assert meanwhile.metadata["plan_cache"] == "hit"
        # A flight ``submit`` opened lands empty: same seed or not, the
        # follower runs its own warm request.
        assert "coalesced" not in followed.metadata
        assert followed.metadata["plan_cache"] == "hit"
        metrics = service.stats().serving
        assert metrics["coalesced"] == 0
        assert metrics["pipeline_runs"] == 2  # ``other`` and the sync leader's
        assert metrics["flight_waits"] == 0  # nobody parked a thread
        assert service.stats().frontend["open_flights"] == 0

    def test_pool_thread_never_parks_behind_a_queued_leader(self):
        """A flight whose leader is still queued for the pool is not waited on.

        One pool thread.  A warm request is queued for it; an append then
        makes its signature stale, and a second arrival opens the
        signature's flight — its leading ``submit`` queued *behind* the
        first.  When the first finally runs it finds the open flight; if it
        parked behind it, the leader could never start.
        """
        gate = threading.Event()
        gated = _gated_udf(gate)
        plain = UserDefinedFunction.from_label_column("plain", "f")
        service = _service(gated, plain, config=ServiceConfig(max_concurrency=1))
        blocker, query = _query(gated), _query(plain)
        service.submit(query, seed=0)  # warm

        async def scenario():
            blocking = asyncio.create_task(service.submit_async(blocker, seed=1))
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                await asyncio.sleep(0.05)  # the one pool thread is inside the gate
                queued = asyncio.create_task(service.submit_async(query, seed=2))
                await asyncio.sleep(0)  # warm: dispatched at once, no flight
                service.catalog.table("flights").append_columns(_columns(60, seed=3))
                leader = asyncio.create_task(service.submit_async(query, seed=3))
                while len(service._flights) < 2:
                    await asyncio.sleep(0.005)
            finally:
                gate.set()
            return await asyncio.wait_for(
                asyncio.gather(blocking, queued, leader), timeout=20.0
            )

        _, queued, leader = asyncio.run(scenario())
        assert queued.metadata["plan_cache"] == "refresh"  # planned unshared
        assert leader.metadata["plan_cache"] == "hit"
        metrics = service.stats().serving
        assert metrics["plan_refreshes"] == 1
        assert metrics["flight_waits"] == 0
        assert service.stats().frontend["open_flights"] == 0


class TestOneSolvePath:
    APPENDED = 200
    WINDOWS = 3

    @pytest.mark.parametrize("python_udf", [False, True], ids=["label", "python"])
    @pytest.mark.parametrize("shards", [None, 4], ids=["plain", "sharded"])
    def test_refresh_and_cold_differ_only_in_their_statistics(self, shards, python_udf):
        """After each append: a warm signature refreshes, a new (α, β) plans cold.

        Both go through ``_solve_and_execute``: one solver call each, the
        refresh is not a pipeline run, builds no group index (it extends
        the warm one), and its UDF work stays proportional to the delta —
        it tops the cached statistics up, it does not re-label.  Every one
        of ``WINDOWS`` appends in a row refreshes that way, not only the
        first after warm-up.
        """
        if python_udf:  # no label column: every evaluation is a per-row call
            udf = UserDefinedFunction("solve_udf", RevealLabel("f", True))
        else:
            udf = UserDefinedFunction.from_label_column("solve_udf", "f")
        service = _service(udf, rows=4000, shards=shards)
        # No designated column: the full pipeline, labelled sample included.
        seen, unseen = _query(udf, 0.8, 0.8, None), _query(udf, 0.7, 0.9, None)
        assert service.submit(seen, seed=0).metadata["plan_cache"] == "miss"
        for seed in range(100, 108):  # steady state: the memo covers the table
            assert service.submit(seen, seed=seed).metadata["plan_cache"] == "hit"
        table = service.catalog.table("flights")

        def served(query, seed):
            before = service.stats().serving
            udf_before = udf.counter_snapshot()
            result = service.submit(query, seed=seed)
            after = service.stats().serving
            moved = {
                key: after[key] - before[key]
                for key in ("pipeline_runs", "solver_calls", "plan_refreshes", "plan_misses")
            }
            return result, moved, udf.counter_delta(udf_before)

        for window in range(self.WINDOWS):
            rows_before = table.num_rows
            index_totals = (GroupIndex.builds_total, GroupIndex.extensions_total)
            table.append_columns(_columns(self.APPENDED, seed=21 + window))
            refreshed, moved, udf_work = served(seen, seed=1 + window)
            assert refreshed.metadata["plan_cache"] == "refresh"
            assert moved == {
                "pipeline_runs": 0, "solver_calls": 1, "plan_refreshes": 1, "plan_misses": 0
            }
            # The append extended the warm index; the refresh built none.
            assert GroupIndex.builds_total == index_totals[0]
            assert GroupIndex.extensions_total > index_totals[1]
            assert refreshed.metadata["stats_cache"]["labeled_hit"] is True
            assert refreshed.metadata["stats_cache"]["outcome_hits"] == ["A"]
            assert udf_work["calls"] <= self.APPENDED
            assert refreshed.ledger.evaluated_count <= self.APPENDED
            assert any(int(row_id) >= rows_before for row_id in refreshed.row_ids)
            if not python_udf:
                assert udf_work["row_calls"] == 0  # the label path stays bulk

        cold, moved, _ = served(unseen, seed=10)
        assert cold.metadata["plan_cache"] == "miss"
        assert moved == {
            "pipeline_runs": 1, "solver_calls": 1, "plan_refreshes": 0, "plan_misses": 1
        }
        # The cold leg reads the same statistics cache the refresh wrote.
        assert cold.metadata["stats_cache"]["labeled_hit"] is True
        assert cold.metadata["stats_cache"]["outcome_hits"] == ["A"]
        assert service.submit(seen, seed=11).metadata["plan_cache"] == "hit"
        assert service.submit(unseen, seed=12).metadata["plan_cache"] == "hit"
