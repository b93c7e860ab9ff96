"""Every counter has one home, and observing it changes nothing.

One script drives every layer that counts (serving, caches, UDF, index,
storage, residency, engine, the process executor's fallback), and then:

* each event the removed metrics registry used to hold is read from the
  object that sees it — solver calls and executor runs from
  ``stats().serving``, an append from the table, segment maps from the
  residency manager, and a process executor's fallback reason from the
  request's ``metadata["degraded"]`` and ``stats().serving["degraded"]``;
* with a trace sink installed, a request records one span per stage it runs
  — a cold miss each pipeline stage once, a warm hit only the plan lookup
  and the execution — pinned by name, count and order;
* the same script without a trace sink leaves every native counter equal to
  the traced run — the tracer is a reader, never a participant.

What instrumentation costs is counted here as span records, never timed: a
stopwatch at tens of microseconds per query is noise on a shared machine,
and ``bench/run.py`` times the serving path itself.

The read side is pinned next to it: ``prometheus_text`` over one service's
``stats().flat()`` carries the same numbers as ``stats()``.
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
from repro.db.residency import ResidencyManager
from repro.db.sharding import ShardedTable
from repro.db.storage import TableStore, reset_storage_counters, storage_counters
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.obs import CollectingTraceSink, prometheus_text
from repro.serving import Overloaded, QueryService, ServiceConfig


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
    """One pass over every layer that counts; returns ``(natives, answers, spans)``.

    ``natives`` is every native counter surface the script touched (timings
    left out), ``answers`` maps a step name to what it returned, and
    ``spans`` maps it to the span names its requests to the in-memory
    service recorded, in order (empty unless ``traced``).
    """
    sink = CollectingTraceSink()
    answers: Dict[str, Any] = {}
    spans: Dict[str, List[str]] = {}

    def step(name, action):
        traces = len(sink.traces)
        try:
            answers[name] = action()
            return answers[name]
        finally:
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
        "table": {"num_rows": table.num_rows, "data_generation": table.data_generation},
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
    return natives, answers, spans


class TestSingleHome:
    def test_each_event_is_read_from_the_object_that_sees_it(self, tmp_path):
        natives, answers, _ = _drive(tmp_path)
        serving = natives["serving"]
        # Executor runs: every answered plan-cache path ran the executor once.
        assert serving["queries"] == serving["exact_queries"] + 5 == 6
        assert serving["plan_hits"] + serving["plan_misses"] + serving["plan_refreshes"] == 5
        assert serving["solver_calls"] == serving["pipeline_runs"] + serving["plan_refreshes"] == 3
        assert serving["shed"] == 1
        assert natives["udfs"] == {"home_udf": natives["udf"]}
        # An append is the table's: its rows and data generation.
        assert answers["append"] == 50
        assert natives["table"] == {"num_rows": 4050, "data_generation": 1}
        assert natives["residency"]["maps"] > 0
        # The process executor's fallback reason reaches the request and the
        # service's counter, with no registry installed.
        assert answers["fallback"].metadata["degraded"] == "unpicklable_udf"
        assert natives["process_serving"]["degraded"] == 1
        assert natives["serving"]["degraded"] == natives["lazy_serving"]["degraded"] == 0

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

    def test_tracing_leaves_every_native_counter_identical(self, tmp_path):
        traced, _, recorded = _drive(tmp_path / "on", traced=True)
        assert recorded["hit"]
        plain, _, spans = _drive(tmp_path / "off")
        assert all(not names for names in spans.values())
        assert plain == traced


def test_prometheus_text_of_stats_carries_the_same_numbers():
    table = Table.from_columns("svc", _columns(2000, 8), hidden_columns=["is_good"])
    udf = UserDefinedFunction.from_label_column("svc_udf", "is_good")
    service = _service(table, udf)
    query = _query(table, udf)
    for seed in range(3):
        service.submit(query, seed=seed)
    stats = service.stats()
    samples = {}
    for line in prometheus_text({"repro_service": stats.flat()}).splitlines():
        if not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
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
