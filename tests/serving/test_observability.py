"""End-to-end observability: traces, metrics and latency through the service.

The load-bearing test here is the differential one pinned by the PR's
acceptance criteria: a sharded, process-backed, refresh-path query must
produce a single coherent trace tree whose per-span ``udf_evals`` deltas sum
*exactly* to the query ledger's ``evaluated_count`` — serial sections
attribute work by ledger diffing, shard spans by the exact amounts the
parent charges while it settles each worker's span, and nothing may be
double-counted or dropped.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time

import numpy as np
import pytest

from repro.db.catalog import Catalog
from repro.db.engine import Engine, metadata_schema
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.table import Table
from repro.db.udf import UserDefinedFunction
from repro.obs import CollectingTraceSink
from repro.serving import QueryService, ServiceConfig
from repro.serving.config import SERVICE_STATS_SCHEMA
from repro.solvers.linear import InfeasibleProblemError

SHARD_SPAN = re.compile(r"^shard:\d+$")


def _columns(rows, seed=8):
    rng = np.random.default_rng(seed)
    grades = [f"g{int(v)}" for v in rng.integers(0, 5, rows)]
    rates = {"g0": 0.15, "g1": 0.35, "g2": 0.5, "g3": 0.7, "g4": 0.9}
    labels = [bool(rng.random() < rates[g]) for g in grades]
    return {"grade": grades, "is_good": labels}


def _setup(rows=4000, shards=None, seed=8):
    columns = _columns(rows, seed=seed)
    if shards:
        table = ShardedTable.from_columns(
            "traced", columns, hidden_columns=["is_good"], num_shards=shards
        )
    else:
        table = Table.from_columns("traced", columns, hidden_columns=["is_good"])
    udf = UserDefinedFunction.from_label_column("traced_udf", "is_good")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    return table, udf, catalog


def _query(udf, alpha=0.8, beta=0.8, column="grade"):
    return SelectQuery(
        "traced", UdfPredicate(udf), alpha=alpha, beta=beta, rho=0.8,
        correlated_column=column,
    )


class TestTraceWorkExactness:
    """Per-span work deltas must sum exactly to the query ledger."""

    def _assert_exact(self, trace, result):
        assert trace.work_total("udf_evals") == result.ledger.evaluated_count
        assert trace.work_total("retrievals") == result.ledger.retrieved_count

    def test_sharded_parallel_refresh_path_is_exact(self):
        """The acceptance differential: sharded + parallel + refresh,
        one tree per query, per-span deltas summing to the ledger total."""
        table, udf, catalog = _setup(shards=4)
        service = QueryService(
            Engine(catalog), config=ServiceConfig(executor="process", max_workers=2)
        )
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        query = _query(udf)

        cold = service.submit(query, seed=0)
        warm = service.submit(query, seed=1)
        table.append_columns(_columns(80, seed=77))
        refreshed = service.submit(query, seed=2)
        assert cold.metadata["plan_cache"] == "miss"
        assert warm.metadata["plan_cache"] == "hit"
        assert refreshed.metadata["plan_cache"] == "refresh"

        traces = sink.traces
        assert len(traces) == 3
        for trace, result in zip(traces, (cold, warm, refreshed)):
            self._assert_exact(trace, result)
        # the refresh trace contains the refresh span and shard spans
        names = {s.name for s in traces[-1].spans}
        assert "refresh" in names
        assert any(SHARD_SPAN.match(name) for name in names)

    def test_serial_cold_and_warm_paths_are_exact(self):
        table, udf, catalog = _setup()
        service = QueryService(Engine(catalog))
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        query = _query(udf)
        cold = service.submit(query, seed=0)
        warm = service.submit(query, seed=1)
        for trace, result in zip(sink.traces, (cold, warm)):
            self._assert_exact(trace, result)

    def test_exact_query_path_is_exact(self):
        table, udf, catalog = _setup(rows=400)
        service = QueryService(Engine(catalog))
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        result = service.submit(
            SelectQuery("traced", UdfPredicate(udf), alpha=1.0, beta=1.0, rho=0.9),
            seed=0,
        )
        # the exact scan runs outside the pipeline spans; the root span's
        # ledger-free tree must still not under- or over-count: nothing is
        # attributed, and nothing is invented
        assert sink.traces[0].work_total("udf_evals") <= result.ledger.evaluated_count


class TestShardSpans:
    def test_shard_spans_parent_under_execute(self):
        table, udf, catalog = _setup(shards=4)
        service = QueryService(
            Engine(catalog), config=ServiceConfig(executor="process", max_workers=2)
        )
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        service.submit(_query(udf), seed=0)

        trace = sink.traces[0]
        by_id = {s.span_id: s for s in trace.spans}
        execute = next(s for s in trace.spans if s.name == "execute")
        shard_spans = [s for s in trace.spans if SHARD_SPAN.match(s.name)]
        assert shard_spans, "parallel execution produced no shard spans"
        for shard in shard_spans:
            assert shard.parent_id == execute.span_id
            assert by_id[shard.parent_id].trace is trace
        # deterministic names, unique within the execute span
        names = [s.name for s in shard_spans]
        assert len(set(names)) == len(names)

    def test_shard_span_names_are_reproducible(self):
        def run():
            table, udf, catalog = _setup(shards=4)
            service = QueryService(
                Engine(catalog), config=ServiceConfig(executor="process", max_workers=2)
            )
            sink = CollectingTraceSink()
            service.set_trace_sink(sink)
            service.submit(_query(udf), seed=0)
            return sorted(
                s.name for s in sink.traces[0].spans if SHARD_SPAN.match(s.name)
            )

        assert run() == run()


class TestConcurrentTraceIsolation:
    def test_no_cross_query_leakage_under_concurrent_submits(self):
        """Concurrent submits through the striped single-flight registry
        must yield disjoint span trees, each internally consistent."""
        table, udf, catalog = _setup()
        service = QueryService(Engine(catalog))
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        queries = [_query(udf, alpha=a) for a in (0.7, 0.75, 0.8, 0.85)]
        barrier = threading.Barrier(len(queries) * 2)
        errors = []

        def run(position, query):
            barrier.wait()
            try:
                service.submit(query, seed=position)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=(position, query))
            for position, query in enumerate(
                [query for query in queries for _ in range(2)]
            )
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        traces = sink.traces
        assert len(traces) == len(threads)
        seen_ids = set()
        for trace in traces:
            span_ids = {s.span_id for s in trace.spans}
            for s in trace.spans:
                assert s.trace is trace  # no span leaked into another tree
                assert s.parent_id is None or s.parent_id in span_ids
            assert trace.query_id not in seen_ids
            seen_ids.add(trace.query_id)
            assert sum(1 for s in trace.spans if s.name == "plan-lookup") == 1


class TestFlightWaits:
    def test_blocked_flight_is_counted_and_spanned(self):
        """A request parked behind a signature's flight leader is observable."""
        gate = threading.Event()

        def gated(row):
            gate.wait(timeout=30)
            return bool(row["is_good"])

        table, _, catalog = _setup(rows=400)
        udf = UserDefinedFunction("gated_traced_udf", gated)
        catalog.register_udf(udf)
        service = QueryService(Engine(catalog))
        sink = CollectingTraceSink()
        service.set_trace_sink(sink)
        query = _query(udf)

        threads = [
            threading.Thread(target=service.submit, kwargs={"query": query, "seed": seed})
            for seed in (0, 1)
        ]
        try:
            # The leader opens the flight and parks inside the gated UDF;
            # only then does the waiter arrive.
            threads[0].start()
            deadline = time.monotonic() + 5.0
            while not service._flights:
                assert time.monotonic() < deadline, "leader never opened its flight"
                time.sleep(0.005)
            threads[1].start()
            while service.stats().serving["flight_waits"] < 1:
                assert time.monotonic() < deadline, "flight wait never observed"
                time.sleep(0.005)
        finally:
            gate.set()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert service.stats().serving["flight_waits"] == 1
        assert service.stats().serving["pipeline_runs"] == 1
        assert any(
            s.name == "flight-wait" for trace in sink.traces for s in trace.spans
        )


class TestMetadataContract:
    def test_schema_documents_reserved_keys(self):
        schema = metadata_schema()
        assert {
            "strategy", "plan_cache", "fallback_reason",
            "session", "stats_cache", "udf_cache",
        } <= set(schema)
        assert all(isinstance(v, str) and v for v in schema.values())

    def test_observed_metadata_matches_contract(self):
        table, udf, catalog = _setup()
        service = QueryService(Engine(catalog))
        query = _query(udf)
        cold = service.submit(query, seed=0, client_id="c")
        warm = service.submit(query, seed=1, client_id="c")
        for result in (cold, warm):
            assert result.metadata["plan_cache"] in ("hit", "miss", "refresh")
            assert "session" in result.metadata
        table.append_columns(_columns(50, seed=5))
        refreshed = service.submit(query, seed=2)
        assert refreshed.metadata["plan_cache"] == "refresh"


class TestEngineFallbackCounter:
    def test_strategy_leaked_infeasibility_is_counted(self):
        class Infeasible:
            def run(self, table, query, ledger):
                raise InfeasibleProblemError("no feasible plan")

        table, udf, catalog = _setup(rows=300)
        engine = Engine(catalog)
        engine.register_strategy("bad", Infeasible())
        result = engine.execute(_query(udf), strategy="bad")
        assert engine.fallback_total == 1
        assert result.metadata["fallback_reason"].startswith("infeasible constraints")
        # the fallback answered exhaustively: result is the exact answer
        assert set(result.row_ids) == engine.ground_truth(_query(udf))


class TestServiceSnapshots:
    def test_latency_snapshot_paths_and_quantiles(self):
        table, udf, catalog = _setup()
        service = QueryService(Engine(catalog))
        query = _query(udf)
        service.submit(query, seed=0)
        service.submit(query, seed=1)
        latency = service.stats().latency_ms
        assert latency["all"]["count"] == 2
        assert latency["miss"]["count"] == 1
        assert latency["hit"]["count"] == 1
        for stats in latency.values():
            assert stats["p50_ms"] is not None
            assert stats["p50_ms"] <= stats["p99_ms"] <= stats["max_ms"]

    def test_metrics_snapshot_bundles_everything(self):
        table, udf, catalog = _setup()
        service = QueryService(Engine(catalog))
        service.submit(_query(udf), seed=0)
        snap = service.stats()
        assert set(snap.to_dict()) == set(SERVICE_STATS_SCHEMA)
        assert snap.serving["queries"] == 1
        assert snap.udfs == {"traced_udf": udf.counter_snapshot()}
        # flat(): every numeric leaf under a schema section, JSON-clean
        flat = snap.flat()
        assert flat["serving_queries"] == 1
        assert flat["udfs_traced_udf_calls"] == udf.counter_snapshot()["calls"]
        assert flat["frontend_ticks"] == flat["frontend_tick_requests"] == 0  # no async yet
        for counter in ("ticks", "tick_requests"):
            assert counter in SERVICE_STATS_SCHEMA["frontend"]
        sections = tuple(f"{section}_" for section in SERVICE_STATS_SCHEMA)
        for key, value in flat.items():
            assert key.startswith(sections)
            assert isinstance(value, (int, float)) and math.isfinite(value)
        assert json.loads(json.dumps(flat)) == flat

    def test_tracing_keeps_counters_identical(self):
        """Tracing off vs on must not change what queries compute."""

        def run(traced):
            table, udf, catalog = _setup()
            service = QueryService(Engine(catalog))
            if traced:
                service.set_trace_sink(CollectingTraceSink())
            query = _query(udf)
            results = [service.submit(query, seed=s) for s in range(3)]
            return (
                [sorted(r.row_ids) for r in results],
                [r.ledger.evaluated_count for r in results],
                udf.counter_snapshot(),
            )

        assert run(False) == run(True)

    def test_broken_sink_never_fails_queries(self):
        table, udf, catalog = _setup()
        service = QueryService(Engine(catalog))

        def explode(trace):
            raise RuntimeError("sink down")

        service.set_trace_sink(explode)
        result = service.submit(_query(udf), seed=0)
        assert len(result.row_ids) >= 0  # query succeeded
        assert service.stats().serving["trace_sink_errors"] == 1
        service.set_trace_sink(None)
        service.submit(_query(udf), seed=1)
        assert service.stats().serving["trace_sink_errors"] == 1
