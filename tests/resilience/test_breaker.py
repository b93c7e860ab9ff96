"""Circuit breaker: state machine, probe accounting, service degradation.

The serving-side contract: an open breaker degrades ``"process"`` requests
to the in-process thread executor — bitwise-identical answers, observable
as ``metadata["degraded"] == "breaker_open"``, the ``degraded`` counter,
and ``stats().resilience``.
"""

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serving import QueryService, ServiceConfig


def _columns(rows=600, groups=4, seed=13):
    rng = np.random.default_rng(seed)
    return {
        "A": [f"a{int(v)}" for v in rng.integers(0, groups, rows)],
        "f": [bool(v) for v in rng.random(rows) < 0.4],
    }


def _setup(name="btab", shards=None):
    columns = _columns()
    if shards:
        table = ShardedTable.from_columns(
            name, columns, hidden_columns=["f"], num_shards=shards
        )
    else:
        table = Table.from_columns(name, columns, hidden_columns=["f"])
    udf = UserDefinedFunction.from_label_column(f"{name}_udf", "f")
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


class TestStateMachine:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, recovery_time_s=10.0)
        assert breaker.state == CLOSED
        breaker.record_failure("worker_crash")
        breaker.record_failure("worker_crash")
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure("worker_crash")
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=10.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak broken by the success

    def test_half_open_probe_then_close(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure("segment_write")
        assert not breaker.allow()
        now[0] = 5.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # quota of one: everyone else waits
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=5.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 5.0
        assert breaker.allow()
        breaker.record_failure("worker_hang")
        assert breaker.state == OPEN
        assert not breaker.allow()  # the re-open restarted the clock
        now[0] = 10.0
        assert breaker.state == HALF_OPEN

    def test_cancel_probe_releases_the_slot(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=1.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.cancel_probe()  # fell back before exercising the pool
        assert breaker.allow()  # slot available again
        assert breaker.state == HALF_OPEN

    def test_snapshot_and_retry_accounting(self):
        breaker = CircuitBreaker(failure_threshold=2, recovery_time_s=9.0)
        breaker.record_failure("garbage")
        breaker.record_success()
        breaker.record_retry(3)
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["failures_total"] == 1
        assert snap["successes_total"] == 1
        assert snap["retried_spans"] == 3
        assert snap["opened_count"] == 0
        assert snap["last_failure_reason"] == "garbage"
        assert snap["failure_threshold"] == 2
        assert breaker.retries_total == 3

    def test_transitions_read_from_the_snapshot(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=1.0, clock=lambda: now[0]
        )
        seen = []
        breaker.record_failure()
        seen.append(breaker.snapshot())
        now[0] = 1.0
        assert breaker.allow()
        seen.append(breaker.snapshot())
        breaker.record_success()
        seen.append(breaker.snapshot())
        assert [snap["state"] for snap in seen] == [OPEN, HALF_OPEN, CLOSED]
        assert [snap["opened_count"] for snap in seen] == [1, 1, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time_s=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_quota=0)


class TestServiceDegradation:
    def test_open_breaker_degrades_inline_with_identical_answer(self):
        catalog, udf = _setup(name="dgtab", shards=3)
        service = QueryService(
            Engine(catalog),
            config=ServiceConfig(
                executor="process", max_workers=2, breaker_recovery_s=600.0
            ),
        )
        baseline_catalog, baseline_udf = _setup(name="dgtab", shards=3)
        baseline = QueryService(
            Engine(baseline_catalog),
            config=ServiceConfig(executor="process", max_workers=1),
        )

        for _ in range(service.config.breaker_threshold):
            service.breaker.record_failure("worker_crash")
        assert service.breaker.state == OPEN

        result = service.submit(_query(udf, "dgtab"), seed=21)
        expected = baseline.submit(_query(baseline_udf, "dgtab"), seed=21)
        assert np.array_equal(
            np.asarray(result.row_ids), np.asarray(expected.row_ids)
        )
        assert result.metadata["degraded"] == "breaker_open"

        stats = service.stats()
        assert stats.serving["degraded"] == 1
        assert stats.resilience["state"] == OPEN
        assert stats.resilience["service_closed"] is False
        assert stats.serving["retried_spans"] == 0
        assert service.stats().serving["degraded"] == 1

    def test_healthy_breaker_marks_nothing(self):
        catalog, udf = _setup(name="hbtab")
        service = QueryService(Engine(catalog))
        result = service.submit(_query(udf, "hbtab"), seed=3)
        assert "degraded" not in result.metadata
        stats = service.stats()
        assert stats.serving["degraded"] == 0
        assert stats.resilience["state"] == CLOSED
