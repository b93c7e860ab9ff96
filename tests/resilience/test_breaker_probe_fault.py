"""Half-open probe slots: taken where the pool is used, always handed back.

The breaker admits one probe at a time while half-open, so a slot that is
taken and never reported on wedges the service in degraded mode for good.
Two rules keep every slot accounted for.  Constructing an executor touches
no breaker state: a placement is configuration only, and one that is built
but never runs remotely must not hold the only slot while every later
request is refused.  A probe slot is taken only where the pool is used —
in ``execute`` / ``evaluate_rows``, right before the remote run is
prepared — and whatever was taken is reported on or handed back.

Selected by the CI ``chaos`` step via ``-k fault`` (the module name).
"""

import numpy as np
import pytest

from repro.core.plan import ExecutionPlan, GroupDecision
from repro.core.procpool import ProcessPoolBatchExecutor
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.shm import release_exports
from repro.db.udf import CostLedger, UserDefinedFunction
from repro.resilience import CLOSED, HALF_OPEN, CircuitBreaker
from repro.serving import QueryService, ServiceConfig

WORKERS = 2


def _columns(rows, seed=17):
    rng = np.random.default_rng(seed)
    grades = [f"g{int(v)}" for v in rng.integers(0, 5, rows)]
    rates = {"g0": 0.15, "g1": 0.35, "g2": 0.5, "g3": 0.7, "g4": 0.9}
    return {"A": grades, "f": [bool(rng.random() < rates[g]) for g in grades]}


def _process_service(name, rows=4000):
    """A process-backed service over a 2-shard table, and one query on it."""
    table = ShardedTable.from_columns(
        name, _columns(rows), hidden_columns=["f"], num_shards=2
    )
    udf = UserDefinedFunction.from_label_column(f"{name}_udf", "f")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(
            executor="process", max_workers=WORKERS, breaker_recovery_s=1.0
        ),
    )
    query = SelectQuery(
        table=name,
        predicate=UdfPredicate(udf),
        alpha=0.8,
        beta=0.8,
        rho=0.8,
        correlated_column="A",
    )
    return service, query


def _trip_to_half_open(service):
    """Trip the service's breaker and move its (injected) clock past recovery."""
    now = [0.0]
    service.breaker._clock = lambda: now[0]
    for _ in range(service.config.breaker_threshold):
        service.breaker.record_failure("test")
    now[0] += service.config.breaker_recovery_s
    assert service.breaker.state == HALF_OPEN
    return now


class TestHalfOpenProbeFault:
    def test_cold_request_under_half_open_breaker_does_not_wedge(self):
        service, query = _process_service("probe_cold")
        with service:
            now = _trip_to_half_open(service)
            cold = service.submit(query, seed=1)
            assert cold.metadata["plan_cache"] == "miss"
            # Whatever the cold request's labelling and execution did with
            # the pool, no slot is left in flight behind it.
            assert service.breaker.snapshot()["probes_in_flight"] == 0
            assert "degraded" not in cold.metadata

            warm = service.submit(query, seed=2)  # multi-span: exercises the pool
            assert warm.metadata["plan_cache"] == "hit"
            assert "degraded" not in warm.metadata
            snapshot = service.breaker.snapshot()
            assert snapshot["state"] == CLOSED
            assert snapshot["probes_in_flight"] == 0
            assert snapshot["successes_total"] >= 1  # the pool really ran
            # ... and it stays that way: the service is multi-core again.
            now[0] += 1000.0
            for seed in range(3, 9):
                assert "degraded" not in service.submit(query, seed=seed).metadata
            assert service.stats().serving["degraded"] == 0
            assert service.breaker.state == CLOSED

    def test_refresh_under_half_open_breaker_does_not_wedge(self):
        service, query = _process_service("probe_refresh")
        with service:
            service.submit(query, seed=1)  # warm the plan on a healthy pool
            _trip_to_half_open(service)
            table = service.catalog.table("probe_refresh")
            table.append_columns(_columns(400, seed=23))
            refreshed = service.submit(query, seed=2)
            assert refreshed.metadata["plan_cache"] == "refresh"
            assert "degraded" not in refreshed.metadata
            assert service.breaker.snapshot()["probes_in_flight"] == 0
            service.submit(query, seed=3)
            assert service.breaker.state == CLOSED
            assert service.stats().serving["degraded"] == 0

    def test_constructing_executors_touches_no_breaker_state(self):
        service, _ = _process_service("probe_build", rows=600)
        with service:
            _trip_to_half_open(service)
            before = service.breaker.snapshot()
            executors = [service._executor() for _ in range(10)]
            assert all(isinstance(e, ProcessPoolBatchExecutor) for e in executors)
            assert service.breaker.snapshot() == before
            assert before["state"] == HALF_OPEN and before["probes_in_flight"] == 0

    def test_refused_executor_leaves_the_probe_holders_slot_alone(self):
        """Only the executor that took the slot may hand it back."""
        service, query = _process_service("probe_refused")
        with service:
            _trip_to_half_open(service)
            assert service.breaker.allow()  # someone else's probe is in flight
            result = service.submit(query, seed=1)
            assert result.metadata["degraded"] == "breaker_open"
            assert service.stats().serving["degraded"] == 1
            snapshot = service.breaker.snapshot()
            assert snapshot["state"] == HALF_OPEN
            assert snapshot["probes_in_flight"] == 1  # still the other one's


class Poisoned:
    """A picklable UDF that raises on one marked row (in a worker process)."""

    def __call__(self, row):
        if row["A"] == "poison":
            raise ValueError("poisoned row")
        return bool(row["f"])


class TestProbeSurvivesTheUdfsOwnErrorFault:
    @pytest.mark.parametrize("entry", ["execute", "evaluate_rows"])
    def test_udf_error_hands_the_probe_back(self, entry):
        """An error that is no verdict on the pool must not keep the slot."""
        columns = _columns(3000)
        columns["A"][1500] = "poison"  # inside the second of four spans
        table = ShardedTable.from_columns(
            f"probe_poison_{entry}", columns, hidden_columns=["f"], num_shards=4
        )
        udf = UserDefinedFunction(f"probe_poison_udf_{entry}", Poisoned())
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_time_s=1.0, clock=lambda: now[0]
        )
        breaker.record_failure("test")
        now[0] = 1.0
        assert breaker.state == HALF_OPEN
        executor = ProcessPoolBatchExecutor(max_workers=WORKERS, breaker=breaker)
        try:
            with pytest.raises(ValueError, match="poisoned row"):
                if entry == "execute":
                    index = table.group_index("A")
                    everything = ExecutionPlan(
                        {key: GroupDecision(retrieve=1.0, evaluate=1.0) for key in index}
                    )
                    executor.execute(table, index, udf, everything, CostLedger(), 0)
                else:
                    executor.evaluate_rows(table, udf, np.arange(table.num_rows))
        finally:
            release_exports(table)
        snapshot = breaker.snapshot()
        assert snapshot["state"] == HALF_OPEN  # neither closed nor re-opened
        assert snapshot["probes_in_flight"] == 0
        assert breaker.allow()  # the next request can probe
