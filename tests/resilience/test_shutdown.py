"""Graceful shutdown: drain, typed rejection, deterministic teardown."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.shm import exported_segment_count
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService, ServiceClosed, ServiceConfig


def _columns(rows=600, groups=4, seed=17):
    rng = np.random.default_rng(seed)
    return {
        "A": [f"a{int(v)}" for v in rng.integers(0, groups, rows)],
        "f": [bool(v) for v in rng.random(rows) < 0.4],
    }


def _setup(name="ctab", udf=None, shards=None):
    columns = _columns()
    if shards:
        table = ShardedTable.from_columns(
            name, columns, hidden_columns=["f"], num_shards=shards
        )
    else:
        table = Table.from_columns(name, columns, hidden_columns=["f"])
    udf = udf or UserDefinedFunction.from_label_column(f"{name}_udf", "f")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    return catalog, udf


def _query(udf, table):
    return SelectQuery(
        table=table,
        predicate=UdfPredicate(udf),
        alpha=0.7,
        beta=0.7,
        rho=0.8,
        correlated_column="A",
    )


def _gated_udf(gate, name="gated"):
    def func(row):
        gate.wait(timeout=30)
        return bool(row["f"])

    return UserDefinedFunction(name, func)


class TestClose:
    def test_close_rejects_new_requests_with_typed_error(self):
        catalog, udf = _setup(name="cl1")
        service = QueryService(Engine(catalog))
        service.submit(_query(udf, "cl1"), seed=1)  # works while open
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(_query(udf, "cl1"), seed=2)
        with pytest.raises(ServiceClosed):
            asyncio.run(service.submit_async(_query(udf, "cl1"), seed=3))
        assert service.stats().resilience["service_closed"] is True

    def test_close_is_idempotent(self):
        catalog, udf = _setup(name="cl2")
        service = QueryService(Engine(catalog))
        service.submit(_query(udf, "cl2"), seed=1)
        service.close()
        service.close()  # cheap no-op, no error
        assert service.stats().resilience["service_closed"] is True

    def test_context_manager_closes(self):
        catalog, udf = _setup(name="cl3")
        with QueryService(Engine(catalog)) as service:
            result = service.submit(_query(udf, "cl3"), seed=1)
            assert len(result.row_ids) >= 0
        with pytest.raises(ServiceClosed):
            service.submit(_query(udf, "cl3"), seed=2)

    def test_close_drains_inflight_requests(self):
        """close() waits for executing requests; new arrivals are rejected
        the moment close begins; the drained request completes normally."""
        gate = threading.Event()
        udf = _gated_udf(gate, name="dr_udf")
        catalog, _ = _setup(name="cl4", udf=udf)
        service = QueryService(Engine(catalog))
        results = []

        def leader():
            results.append(service.submit(_query(udf, "cl4"), seed=1))

        leader_thread = threading.Thread(target=leader)
        leader_thread.start()
        try:
            deadline = time.time() + 10
            while service._inflight == 0 and time.time() < deadline:
                time.sleep(0.005)
            assert service._inflight == 1

            closed = threading.Event()

            def closer():
                service.close()
                closed.set()

            closer_thread = threading.Thread(target=closer)
            closer_thread.start()
            time.sleep(0.05)
            assert not closed.is_set()  # still draining the in-flight request
            with pytest.raises(ServiceClosed):
                service.submit(_query(udf, "cl4"), seed=2)
        finally:
            gate.set()
        leader_thread.join(timeout=30)
        closer_thread.join(timeout=30)
        assert closed.is_set()
        assert results, "the drained request must complete with its result"

    def test_close_with_timeout_returns_even_if_not_drained(self):
        gate = threading.Event()
        udf = _gated_udf(gate, name="to_udf")
        catalog, _ = _setup(name="cl5", udf=udf)
        service = QueryService(Engine(catalog))
        thread = threading.Thread(
            target=lambda: self._swallow(service, _query(udf, "cl5"))
        )
        thread.start()
        try:
            deadline = time.time() + 10
            while service._inflight == 0 and time.time() < deadline:
                time.sleep(0.005)
            started = time.perf_counter()
            service.close(timeout=0.2)  # request still gated: returns anyway
            assert time.perf_counter() - started < 5.0
        finally:
            gate.set()
        thread.join(timeout=30)

    @staticmethod
    def _swallow(service, query):
        try:
            service.submit(query, seed=1)
        except Exception:
            pass

    def test_process_backend_close_releases_all_segments(self):
        catalog, udf = _setup(name="cl6", shards=3)
        service = QueryService(
            Engine(catalog), config=ServiceConfig(executor="process", max_workers=2)
        )
        service.submit(_query(udf, "cl6"), seed=1)
        service.close()
        assert exported_segment_count() == 0
        assert service.stats().resilience["service_closed"] is True


class TestServiceClosedType:
    def test_is_a_database_error_with_guidance(self):
        from repro.db.errors import DatabaseError

        err = ServiceClosed()
        assert isinstance(err, DatabaseError)
        assert "closed" in str(err)
