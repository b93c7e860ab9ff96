"""Deadlines: mechanics, cooperative cancellation, and serving integration.

The accounting invariant under test: once a request's deadline expires, the
typed :class:`DeadlineExceeded` surfaces at the next cooperative check and
**no further UDF work is charged** — and a deadline that never fires changes
nothing (bitwise parity with an undeadlined run).
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core.executor import BatchExecutor
from repro.core.plan import ExecutionPlan, GroupDecision
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.table import Table
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.serving import QueryService, ServiceConfig


def _table(n=300, groups=4, seed=9, name="dtab"):
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        name,
        {
            "A": [f"a{int(v)}" for v in rng.integers(0, groups, n)],
            "f": [bool(v) for v in rng.random(n) < 0.4],
        },
        hidden_columns=["f"],
    )


def _setup(udf=None, name="dtab"):
    catalog = Catalog()
    catalog.register_table(_table(name=name))
    udf = udf or UserDefinedFunction.from_label_column("dudf", "f")
    catalog.register_udf(udf)
    return catalog, udf


def _query(udf, table="dtab"):
    return SelectQuery(
        table=table,
        predicate=UdfPredicate(udf),
        alpha=0.7,
        beta=0.7,
        rho=0.8,
        correlated_column="A",
    )


def _slow_udf(name="slow", per_row_s=0.002):
    def func(row):
        time.sleep(per_row_s)
        return bool(row["f"])

    return UserDefinedFunction(name, func)


def _gated_udf(gate, name="gated"):
    def func(row):
        gate.wait(timeout=30)
        return bool(row["f"])

    return UserDefinedFunction(name, func)


class TestDeadlineMechanics:
    def test_fake_clock_expiry(self):
        now = [0.0]
        deadline = Deadline.after(5.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        deadline.check("here")  # no raise
        now[0] = 5.0
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("here")
        assert err.value.timeout_s == 5.0
        assert err.value.where == "here"

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_scope_activates_and_restores(self):
        assert current_deadline() is None
        check_deadline("outside")  # no active deadline: free no-op
        outer = Deadline.after(10.0)
        inner = Deadline.after(1.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer
        assert current_deadline() is None
        with deadline_scope(None):  # None accepted, no-op
            assert current_deadline() is None

    def test_scope_propagates_into_threads_via_context_copy(self):
        import contextvars

        deadline = Deadline.after(10.0)
        seen = []
        with deadline_scope(deadline):
            ctx = contextvars.copy_context()
        thread = threading.Thread(target=lambda: seen.append(ctx.run(current_deadline)))
        thread.start()
        thread.join()
        assert seen == [deadline]


class TestCooperativeCancellation:
    def test_expired_deadline_charges_nothing(self):
        """An executor entered with an already-expired deadline pays zero."""
        table = _table(name="xtab")
        udf = UserDefinedFunction.from_label_column("xudf", "f")
        index = table.group_index("A")
        plan = ExecutionPlan(
            decisions={
                value: GroupDecision(retrieve=1.0, evaluate=1.0)
                for value in index.values
            }
        )
        ledger = CostLedger()
        expired = Deadline(expires_at=0.0, timeout_s=1.0, clock=lambda: 1.0)
        executor = BatchExecutor(random_state=3)
        with deadline_scope(expired):
            with pytest.raises(DeadlineExceeded):
                executor.execute(table, index, udf, plan, ledger)
        assert ledger.retrieved_count == 0
        assert ledger.evaluated_count == 0
        assert udf.counter_snapshot()["cache_misses"] == 0

    def test_generous_deadline_is_bitwise_invisible(self):
        """Same seed, with and without a (non-firing) deadline: same answer."""
        udf_a = UserDefinedFunction.from_label_column("ga", "f")
        udf_b = UserDefinedFunction.from_label_column("gb", "f")
        catalog_a, _ = _setup(udf=udf_a, name="gtab")
        catalog_b, _ = _setup(udf=udf_b, name="gtab")
        plain = QueryService(Engine(catalog_a)).submit(
            _query(udf_a, table="gtab"), seed=11
        )
        bounded = QueryService(Engine(catalog_b)).submit(
            _query(udf_b, table="gtab"), seed=11, timeout_s=60.0
        )
        assert np.array_equal(np.asarray(plain.row_ids), np.asarray(bounded.row_ids))
        assert bounded.ledger.total_cost == plain.ledger.total_cost


class TestServiceDeadlines:
    def test_default_timeout_cancels_slow_query(self):
        udf = _slow_udf("sv_slow")
        catalog, _ = _setup(udf=udf, name="svtab")
        service = QueryService(
            Engine(catalog), config=ServiceConfig(default_timeout_s=0.05)
        )
        started = time.perf_counter()
        with pytest.raises(DeadlineExceeded):
            service.submit(_query(udf, table="svtab"), seed=1)
        assert time.perf_counter() - started < 5.0  # deadline + grace, not a hang
        assert service.stats().serving["deadline_exceeded"] == 1
        assert "error" in service.stats().latency_ms

    def test_per_submit_timeout_overrides(self):
        udf = _slow_udf("ov_slow")
        catalog, _ = _setup(udf=udf, name="ovtab")
        service = QueryService(Engine(catalog))  # no default deadline
        with pytest.raises(DeadlineExceeded):
            service.submit(_query(udf, table="ovtab"), seed=1, timeout_s=0.05)
        assert service.stats().serving["deadline_exceeded"] == 1

    def test_flight_wait_respects_deadline(self):
        """A request parked behind a flight leader raises, never hangs."""
        gate = threading.Event()
        udf = _gated_udf(gate, name="fw_gated")
        catalog, _ = _setup(udf=udf, name="fwtab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="fwtab")

        errors = []
        leader_results = []

        def leader():
            leader_results.append(service.submit(query, seed=5))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        try:
            # Wait for the leader's flight to be open (it is inside the gated
            # UDF by the time the flight table shows it).
            deadline = time.time() + 10
            while not service._flights and time.time() < deadline:
                time.sleep(0.005)

            def follower():
                try:
                    service.submit(query, seed=6, timeout_s=0.2)
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            follower_thread = threading.Thread(target=follower)
            follower_thread.start()
            follower_thread.join(timeout=10)
            assert not follower_thread.is_alive(), "follower hung past its deadline"
        finally:
            gate.set()
        leader_thread.join(timeout=30)
        assert leader_results, "leader should finish once the gate opens"
        assert len(errors) == 1 and isinstance(errors[0], DeadlineExceeded)
        metrics = service.stats().serving
        assert metrics["flight_waits"] >= 1
        assert metrics["deadline_exceeded"] == 1

    def test_async_follower_inherits_leaders_typed_error(self):
        """A timed-out leader's DeadlineExceeded is shared, not re-run."""
        udf = _slow_udf("as_slow", per_row_s=0.005)
        catalog, _ = _setup(udf=udf, name="astab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="astab")

        async def scenario():
            leader = asyncio.create_task(
                service.submit_async(query, seed=5, timeout_s=0.1)
            )
            while not service._flights:
                await asyncio.sleep(0.005)
            follower = asyncio.create_task(
                service.submit_async(query, seed=5, timeout_s=30.0)
            )
            return await asyncio.gather(leader, follower, return_exceptions=True)

        leader_err, follower_err = asyncio.run(scenario())
        assert isinstance(leader_err, DeadlineExceeded)
        assert isinstance(follower_err, DeadlineExceeded)
        assert service.stats().serving["deadline_exceeded"] >= 2

    @pytest.mark.parametrize("burst_size", [1, 8])
    def test_async_follower_own_deadline_while_parked(self, burst_size):
        """Followers whose own deadline fires mid-wait raise promptly: every
        one ``DeadlineExceeded`` — none hangs, none completes — and every
        raise counted exactly once."""
        gate = threading.Event()
        udf = _gated_udf(gate, name="af_gated")
        catalog, _ = _setup(udf=udf, name="aftab")
        service = QueryService(Engine(catalog))
        query = _query(udf, table="aftab")

        async def scenario():
            leader = asyncio.create_task(service.submit_async(query, seed=5))
            try:
                while not service._flights:
                    await asyncio.sleep(0.005)
                started = time.perf_counter()
                burst = await asyncio.gather(
                    *[
                        service.submit_async(query, seed=5, timeout_s=0.1)
                        for _ in range(burst_size)
                    ],
                    return_exceptions=True,
                )
                waited = time.perf_counter() - started
            finally:
                gate.set()
            await leader
            return burst, waited

        burst, waited = asyncio.run(scenario())
        assert waited < 5.0
        assert all(isinstance(item, DeadlineExceeded) for item in burst), burst
        assert service.stats().serving["deadline_exceeded"] == burst_size
