"""Every counter has one home: the registry is written only for what it owns.

The gate is deterministic — it counts instrument *operations*, not
microseconds.  A :class:`MetricsRegistry` whose instruments log each
``inc`` / ``set`` / ``observe`` is installed, one script drives every layer
that used to mirror its counters (serving, caches, UDF, index, storage,
residency, engine, the process executor's fallback), and then:

* the instrument names in the registry are a subset of
  :data:`repro.obs.metrics.REGISTRY_OWNED` — no mirror came back;
* a warm hit performs exactly one instrument operation and a cold miss two;
* with a trace sink installed, a request records one span per stage it runs
  — a cold miss each pipeline stage once, a warm hit only the plan lookup
  and the execution — pinned by name, count and order;
* the same script under the null registry and without a trace sink leaves
  every native counter equal to the instrumented, traced run — the registry
  and the tracer are readers, never participants.

What instrumentation costs is counted here as operations and span records,
never timed: a stopwatch at tens of microseconds per query is noise on a
shared machine, and ``bench/run.py`` times the serving path itself.

The read side is pinned next to it: the process-wide stores reach
``snapshot()["collected"]`` by pull, and a ``repro_service`` collector puts
one service's ``stats()`` into the Prometheus text.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.residency import (
    ResidencyManager,
    pinned_segments_total,
    resident_bytes_total,
)
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore, reset_storage_counters, storage_counters
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.obs import (
    CollectingTraceSink,
    disable_metrics,
    enable_metrics,
    prometheus_text,
)
from repro.obs.metrics import (
    REGISTRY_OWNED,
    MetricsRegistry,
    get_registry,
    label_suffix,
)
from repro.serving import Overloaded, QueryService, ServiceConfig

BATCH_RUN = 'repro_executor_runs_total{backend="batch"}'
SOLVER_CALL = 'repro_solver_calls_total{strategy="intel_sample"}'


@pytest.fixture(autouse=True)
def _restore_null_registry():
    yield
    disable_metrics()


class _Recorder:
    """A registry instrument that logs every write before applying it."""

    def __init__(self, instrument: Any, operations: List[str]):
        self._instrument = instrument
        self._operations = operations

    def _write(self, method: str, amount: Any) -> None:
        instrument = self._instrument
        self._operations.append(f"{instrument.name}{label_suffix(instrument.labels)}")
        getattr(instrument, method)(amount)

    def inc(self, amount=1):
        self._write("inc", amount)

    def dec(self, amount=1):
        self._write("dec", amount)

    def set(self, value):
        self._write("set", value)

    def observe(self, value):
        self._write("observe", value)


class CountingRegistry(MetricsRegistry):
    """A live registry that also keeps the sequence of instrument writes."""

    def __init__(self) -> None:
        super().__init__()
        self.operations: List[str] = []

    def counter(self, name, **labels):
        return _Recorder(super().counter(name, **labels), self.operations)

    def gauge(self, name, **labels):
        return _Recorder(super().gauge(name, **labels), self.operations)

    def histogram(self, name, buckets=None, **labels):
        return _Recorder(super().histogram(name, buckets, **labels), self.operations)


def _columns(rows: int, seed: int) -> Dict[str, List[Any]]:
    rng = np.random.default_rng(seed)
    grades = [f"g{int(v)}" for v in rng.integers(0, 5, rows)]
    rates = {"g0": 0.15, "g1": 0.35, "g2": 0.5, "g3": 0.7, "g4": 0.9}
    return {
        "grade": grades,
        "amount": [float(v) for v in rng.normal(50, 12, rows)],
        "is_good": [bool(rng.random() < rates[g]) for g in grades],
    }


def _service(table, udf, config=None):
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    return QueryService(Engine(catalog), config=config or ServiceConfig())


def _query(table, udf, alpha=0.8, beta=0.8, rho=0.8, column="grade"):
    return SelectQuery(
        table.name, UdfPredicate(udf), alpha=alpha, beta=beta, rho=rho,
        correlated_column=column,
    )


def _drive(directory, traced=False):
    """One pass over every layer that counts; returns ``(natives, steps, spans)``.

    ``natives`` is every native counter surface the script touched (timings
    left out); ``steps`` maps a step name to the instrument operations the
    installed registry saw during it (empty under the null registry), and
    ``spans`` maps it to the span names its requests to the in-memory
    service recorded, in order (empty unless ``traced``).
    """
    operations = getattr(get_registry(), "operations", [])
    sink = CollectingTraceSink()
    steps: Dict[str, List[str]] = {}
    spans: Dict[str, List[str]] = {}

    def step(name, action):
        start, traces = len(operations), len(sink.traces)
        try:
            return action()
        finally:
            steps[name] = operations[start:]
            spans[name] = [
                recorded.name
                for trace in sink.traces[traces:]
                for recorded in trace.spans
            ]

    reset_storage_counters()
    index_totals = (GroupIndex.builds_total, GroupIndex.extensions_total)

    # -- in-memory serving: cold miss, hits, exact, append + refresh, shed ------
    table = Table.from_columns("home", _columns(4000, 8), hidden_columns=["is_good"])
    udf = UserDefinedFunction.from_label_column("home_udf", "is_good")
    service = _service(table, udf, ServiceConfig(class_limits={"exact": 0}))
    if traced:
        service.set_trace_sink(sink)
    query = _query(table, udf)
    exact = _query(table, udf, alpha=1.0, beta=1.0, rho=1.0)
    cold = step("cold", lambda: service.submit(query, seed=0))
    assert cold.metadata["plan_cache"] == "miss"
    for name, seed in (("hit", 1), ("second_hit", 2)):
        warm = step(name, lambda: service.submit(query, seed=seed))
        assert warm.metadata["plan_cache"] == "hit"
    # No designated column: the cold miss also runs column selection.
    auto = step("cold_auto", lambda: service.submit(_query(table, udf, column=None), seed=6))
    assert auto.metadata["plan_cache"] == "miss"
    step("exact", lambda: service.submit(exact))
    step("append", lambda: table.append_columns(_columns(50, 5)))
    refreshed = step("refresh", lambda: service.submit(query, seed=3))
    assert refreshed.metadata["plan_cache"] == "refresh"
    with pytest.raises(Overloaded):
        step("shed", lambda: asyncio.run(service.submit_async(exact)))
    stats = service.stats()
    service.close()

    # -- durable open under a budget small enough to evict ----------------------
    source = ShardedTable.from_columns(
        "lazyhome", _columns(4000, 9), num_shards=4, hidden_columns=["is_good"]
    )
    store = TableStore(str(directory / "lazyhome"))
    store.save(source)
    manager = ResidencyManager(budget_bytes=10_000)
    lazy, _report = store.open(residency=manager)
    lazy_udf = UserDefinedFunction.from_label_column("lazy_udf", "is_good")
    lazy_service = _service(lazy, lazy_udf)
    step("durable", lambda: lazy_service.submit(_query(lazy, lazy_udf), seed=4))
    lazy_serving = lazy_service.stats().serving
    lazy_service.close()
    residency = manager.snapshot()
    assert residency["evictions"] > 0
    del residency["map_seconds_total"]  # a stopwatch, not a count

    # -- a process-backend request that falls back (no pool is ever spawned) ----
    sharded = ShardedTable.from_columns(
        "prochome", _columns(600, 10), num_shards=3, hidden_columns=["is_good"]
    )
    lambda_udf = UserDefinedFunction("lambda_udf", lambda row: bool(row["is_good"]))
    process_service = _service(
        sharded, lambda_udf, ServiceConfig(executor="process", max_workers=2)
    )
    step("fallback", lambda: process_service.submit(_query(sharded, lambda_udf), seed=5))
    process_serving = process_service.stats().serving
    process_service.close()

    natives = {
        "serving": stats.serving,
        "plan_cache": stats.plan_cache,
        "stats_cache": stats.stats_cache,
        "udfs": stats.udfs,
        "resilience": stats.resilience,
        "udf": udf.counter_snapshot(),
        "lazy_serving": lazy_serving,
        "lazy_udf": lazy_udf.counter_snapshot(),
        "process_serving": process_serving,
        "lambda_udf": lambda_udf.counter_snapshot(),
        "storage": storage_counters(),
        "residency": residency,
        "index_builds": GroupIndex.builds_total - index_totals[0],
        "index_extensions": GroupIndex.extensions_total - index_totals[1],
    }
    return natives, steps, spans


def _instrument_names(registry: MetricsRegistry) -> set:
    snapshot = registry.instrument_snapshot()
    return {
        key.split("{", 1)[0]
        for kind in ("counters", "gauges", "histograms")
        for key in snapshot[kind]
    }


class TestSingleHome:
    def test_registry_holds_only_what_nothing_else_owns(self, tmp_path):
        registry = enable_metrics(CountingRegistry())
        natives, steps, _ = _drive(tmp_path)
        names = _instrument_names(registry)
        assert names <= set(REGISTRY_OWNED), sorted(names - set(REGISTRY_OWNED))
        # ... and the script did reach the registry-owned sites.
        assert {
            "repro_executor_runs_total",
            "repro_executor_fallbacks_total",
            "repro_solver_calls_total",
            "repro_table_appends_total",
            "repro_table_rows",
            "repro_residency_map_latency_seconds",
        } <= names
        assert natives["serving"]["shed"] == 1
        assert any("unpicklable_udf" in op for op in steps["fallback"])

    def test_one_instrument_operation_per_hit_two_per_cold_miss(self, tmp_path):
        enable_metrics(CountingRegistry())
        _, steps, _ = _drive(tmp_path)
        assert steps["hit"] == [BATCH_RUN]
        assert steps["second_hit"] == [BATCH_RUN]
        assert sorted(steps["cold"]) == sorted([SOLVER_CALL, BATCH_RUN])
        assert sorted(steps["cold_auto"]) == sorted([SOLVER_CALL, BATCH_RUN])
        # An exact query and a shed request touch no instrument at all; an
        # append writes the four per-table instruments, once each.
        assert steps["exact"] == []
        assert steps["shed"] == []
        assert sorted(op.split("{", 1)[0] for op in steps["append"]) == [
            "repro_table_appends_total",
            "repro_table_data_generation",
            "repro_table_rows",
            "repro_table_rows_appended_total",
        ]

    def test_one_span_record_per_stage_a_request_runs(self, tmp_path):
        _, _, spans = _drive(tmp_path, traced=True)
        request = ["query", "plan-lookup"]
        stages = ["group-index", "sampling", "solve", "execute"]
        assert spans["cold"] == request + stages
        assert spans["cold_auto"] == request + ["column-selection"] + stages
        assert spans["hit"] == spans["second_hit"] == request + ["execute"]
        assert spans["refresh"] == request + ["refresh"] + stages
        # An exact query runs no planner stage: the request's root alone.
        assert spans["exact"] == ["query"]
        # A shed request never reaches ``submit``: no trace at all.
        assert spans["shed"] == []

    def test_null_registry_leaves_every_native_counter_identical(self, tmp_path):
        enable_metrics(CountingRegistry())
        instrumented, _, traced = _drive(tmp_path / "on", traced=True)
        assert traced["hit"]
        disable_metrics()
        plain, steps, spans = _drive(tmp_path / "off")
        assert all(not operations for operations in steps.values())
        assert all(not names for names in spans.values())
        assert plain == instrumented
        assert plain["udfs"] == {"home_udf": plain["udf"]}


class TestPullSide:
    @pytest.mark.parametrize("install_first", [True, False])
    def test_process_wide_stores_are_collected(self, tmp_path, install_first):
        if install_first:
            registry = enable_metrics()
        source = Table.from_columns("pulled", _columns(400, 3), hidden_columns=["is_good"])
        store = TableStore(str(tmp_path / "pulled"))
        store.save(source)
        manager = ResidencyManager()
        lazy, _report = store.open(residency=manager)
        lazy.group_index("grade")
        if not install_first:
            registry = enable_metrics()
        collected = registry.snapshot()["collected"]
        assert collected["repro_storage"] == storage_counters()
        assert collected["repro_storage"]["segments_written"] > 0
        assert collected["repro_index"] == {
            "builds_total": GroupIndex.builds_total,
            "extensions_total": GroupIndex.extensions_total,
        }
        assert collected["repro_residency"] == {
            "resident_bytes": resident_bytes_total(),
            "pinned_segments": pinned_segments_total(),
        }
        assert collected["repro_residency"]["resident_bytes"] >= manager.resident_bytes > 0
        # A registry nobody installed reads nothing it was not given.
        assert MetricsRegistry().snapshot()["collected"] == {}

    def test_service_collector_exports_stats_to_prometheus_text(self):
        table = Table.from_columns("svc", _columns(2000, 8), hidden_columns=["is_good"])
        udf = UserDefinedFunction.from_label_column("svc_udf", "is_good")
        service = _service(table, udf)
        query = _query(table, udf)
        # Installed, so stats() reads this very registry: a collector that
        # calls stats() must not make snapshot() recurse.
        registry = enable_metrics()
        registry.register_collector("repro_service", lambda: service.stats().flat())
        for seed in range(3):
            service.submit(query, seed=seed)
        samples = {}
        for line in prometheus_text(registry).splitlines():
            if not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = float(value)
        stats = service.stats()
        assert "collected" not in stats.registry
        assert samples[BATCH_RUN] == 3
        assert samples["repro_service_serving_queries"] == stats.serving["queries"] == 3
        assert samples["repro_service_plan_cache_hits"] == stats.plan_cache["hits"] == 2
        assert (
            samples["repro_service_udfs_svc_udf_calls"]
            == udf.counter_snapshot()["calls"]
            > 0
        )
        assert samples["repro_service_latency_ms_hit_p50_ms"] == pytest.approx(
            stats.latency_ms["hit"]["p50_ms"]
        )
        service.close()
