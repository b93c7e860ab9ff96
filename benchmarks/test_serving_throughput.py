"""Serving throughput: cold (no caches) versus warm (cached) trace replay.

Replays a repeated-query trace through two identically configured
:class:`~repro.serving.QueryService` instances:

* **cold** — caches disabled and the UDF memo reset before every query,
  modelling first-sight traffic where every query recomputes statistics and
  plans from scratch (the table-resident group-index cache stays, as it
  would in any live system);
* **warm** — statistics/plan caching on and the memo shared, the serving
  subsystem's amortised path.

Emits ``out/BENCH_serving.json`` (queries/sec plus the work breakdown) and
asserts two claims:

* **amortisation** — the warm replay performs at least 5x fewer UDF
  evaluations + solver calls than the cold replay;
* **cold-path vectorisation** — the cold replay now runs at least 3x the
  queries/sec of the committed pre-vectorisation baseline (the PR-2
  ``BENCH_serving.json``, measured on the same harness), with the same UDF
  evaluation / solver-call work counters.

Alongside wall-clock numbers the payload records *wall-clock-independent*
cold-path counters — group-index builds and bulk vs per-row UDF API calls —
which ``compare_bench.py`` gates in CI so the cold path cannot silently
regress to per-tuple work.  ``test_coldpath_scaling`` adds a ~25k-row cold
bench point (``BENCH_coldpath.json``) proving the vectorised cold path holds
up at 10x the table size.

Each replay row also carries informational ``latency_p50_ms`` /
``latency_p99_ms`` keys (from the service's always-on latency histograms);
``compare_bench.py`` prints them in its diff but never gates them.  The warm
replay additionally writes ``out/BENCH_serving_metrics.prom`` (Prometheus
snapshot of the enabled obs registry plus the service's ``stats()`` through a
``repro_service`` collector) and ``out/BENCH_serving_slowlog.jsonl``
(slowest trace trees) for CI artifact upload.
"""

from __future__ import annotations

import json
import time

import numpy as np
from conftest import run_once, write_result

from repro.core.constraints import QueryConstraints
from repro.core.executor import BatchExecutor
from repro.core.pipeline import IntelSample
from repro.datasets.registry import load_dataset
from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.udf import CostLedger
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    disable_metrics,
    enable_metrics,
    prometheus_text,
)
from repro.serving import QueryService, ServiceConfig

TRACE_LENGTH = 80
DETERMINISM_DATASETS = ("lending_club", "census", "marketing")

#: Cold-path queries/sec of the committed PR-2 baseline (tuple-at-a-time
#: sampling/labelling and per-query GroupIndex rebuilds) on this harness at
#: scale 0.05.  The vectorised cold path must beat it by >= 3x.
PRE_VECTORISATION_COLD_QPS = 12.96

#: Rows of the scaling bench point (~25k at lending_club scale 0.5).
COLDPATH_SCALE = 0.5
COLDPATH_TRACE_LENGTH = 8


def _build_workload(scale: float):
    dataset = load_dataset("lending_club", random_state=2015, scale=scale)
    udf = dataset.make_udf("served_bench")
    catalog = Catalog()
    catalog.register_table(dataset.table)
    catalog.register_udf(udf)
    signatures = [
        dict(alpha=0.8, beta=0.8),
        dict(alpha=0.9, beta=0.7),
        dict(alpha=0.7, beta=0.9),
        dict(alpha=0.85, beta=0.75),
    ]
    queries = [
        SelectQuery(
            table=dataset.table.name,
            predicate=UdfPredicate(udf),
            alpha=spec["alpha"],
            beta=spec["beta"],
            rho=0.8,
            correlated_column="grade",
        )
        for spec in signatures
    ]
    trace = [queries[i % len(queries)] for i in range(TRACE_LENGTH)]
    return dataset, catalog, udf, trace


def _replay(service: QueryService, udf, trace, reset_memo: bool):
    udf_evaluations = 0
    bulk_calls = 0
    row_calls = 0
    index_builds_before = GroupIndex.builds_total
    started = time.perf_counter()
    for position, query in enumerate(trace):
        if reset_memo:
            # Cold semantics: nothing survives between queries, exactly like
            # calling Engine.execute from scratch each time.
            udf.reset()
        before = udf.counter_snapshot()
        service.submit(query, seed=50_000 + position)
        delta = udf.counter_delta(before)
        udf_evaluations += delta["calls"]
        bulk_calls += delta["bulk_calls"]
        row_calls += delta["row_calls"]
    elapsed = time.perf_counter() - started
    solver_calls = service.stats().serving["solver_calls"]
    # Always-on service histograms: informational latency percentiles ride
    # along in the payload but are never gated (wall-clock is runner-noisy).
    latency = service.stats().latency_ms.get("all") or {}
    return {
        "seconds": round(elapsed, 4),
        "queries_per_second": round(len(trace) / elapsed, 2),
        "latency_p50_ms": _round_ms(latency.get("p50_ms")),
        "latency_p99_ms": _round_ms(latency.get("p99_ms")),
        "udf_evaluations": int(udf_evaluations),
        "solver_calls": int(solver_calls),
        "work": int(udf_evaluations + solver_calls),
        "group_index_builds": int(GroupIndex.builds_total - index_builds_before),
        "udf_bulk_calls": int(bulk_calls),
        "udf_row_calls": int(row_calls),
    }


def _round_ms(value):
    return None if value is None else round(value, 3)


def _serving_comparison(scale: float):
    # Cold: caching disabled, memo wiped per query.
    dataset, catalog, udf, trace = _build_workload(scale)
    cold_service = QueryService(
        Engine(catalog),
        config=ServiceConfig(plan_cache_size=0, stats_cache_size=0, free_memoized=False),
    )
    cold = _replay(cold_service, udf, trace, reset_memo=True)

    # Warm: fresh identical workload with caching on.  The warm replay runs
    # with the obs registry enabled and a slow-query trace sink installed so
    # CI can upload a Prometheus snapshot and a slow-query log as artifacts;
    # the registry only observes, so every gated counter is unaffected.
    dataset, catalog, udf, trace = _build_workload(scale)
    warm_service = QueryService(Engine(catalog))
    registry = MetricsRegistry()
    enable_metrics(registry)
    slow_log = SlowQueryLog(threshold_ms=0.0, capacity=16)
    warm_service.set_trace_sink(slow_log)
    try:
        warm = _replay(warm_service, udf, trace, reset_memo=False)
    finally:
        disable_metrics()
    # CI artifacts (uploaded by the bench-regression job, never gated).  The
    # registry holds only its own instruments; the service's counters, cache
    # statistics, UDF counts and latency quantiles are read by pull.
    registry.register_collector("repro_service", lambda: warm_service.stats().flat())
    write_result("BENCH_serving_metrics.prom", prometheus_text(registry))
    write_result("BENCH_serving_slowlog.jsonl", slow_log.to_json_lines())
    warm["plan_cache"] = warm_service.stats().plan_cache
    return dataset, cold, warm


def _batch_determinism(scale: float):
    results = {}
    for name in DETERMINISM_DATASETS:
        dataset = load_dataset(name, random_state=11, scale=scale)
        constraints = QueryConstraints(alpha=0.8, beta=0.8, rho=0.8)

        def run():
            strategy = IntelSample(
                random_state=1234,
                executor_factory=lambda rng: BatchExecutor(random_state=rng),
            )
            return strategy.answer(
                dataset.table,
                dataset.make_udf(f"det_{name}"),
                constraints,
                CostLedger(),
                correlated_column=dataset.correlated_column,
            )

        first, second = run(), run()
        # Order-sensitive, as tests/conftest.py::assert_same_rows (whose
        # fixture this separate conftest tree cannot see).
        assert first.row_ids.dtype == np.intp and np.array_equal(
            first.row_ids, second.row_ids
        ), f"BatchExecutor not seed-deterministic on {name}"
        results[name] = {
            "rows": dataset.num_rows,
            "returned": len(first.row_ids),
            "identical_across_runs": True,
        }
    return results


def test_serving_throughput(benchmark, bench_config):
    scale = min(bench_config.scale, 0.05)
    dataset, cold, warm = run_once(benchmark, _serving_comparison, scale)

    print("\nServing throughput — cold (no caches) vs warm (cached)")
    for label, row in (("cold", cold), ("warm", warm)):
        print(
            f"  {label}: {row['queries_per_second']:>8} q/s, "
            f"{row['udf_evaluations']} UDF evaluations, "
            f"{row['solver_calls']} solver calls, "
            f"{row['group_index_builds']} index builds, "
            f"{row['udf_bulk_calls']} bulk / {row['udf_row_calls']} per-row UDF calls"
        )

    determinism = _batch_determinism(min(scale, 0.05))
    ratio = cold["work"] / max(1, warm["work"])
    speedup = cold["queries_per_second"] / PRE_VECTORISATION_COLD_QPS
    print(f"  amortisation: {ratio:.1f}x fewer evaluations+solves when warm")
    print(
        f"  cold-path vectorisation: {speedup:.1f}x the pre-vectorisation "
        f"baseline ({PRE_VECTORISATION_COLD_QPS} q/s)"
    )

    payload = {
        "dataset": dataset.name,
        "rows": dataset.num_rows,
        "trace_length": TRACE_LENGTH,
        "cold": cold,
        "warm": warm,
        "work_ratio_cold_over_warm": round(ratio, 2),
        "cold_speedup_vs_pre_vectorisation": round(speedup, 2),
        "batch_executor_determinism": determinism,
    }
    write_result("BENCH_serving.json", json.dumps(payload, indent=2) + "\n")

    # The amortisation claim: warm serving does >=5x less expensive work.
    assert ratio >= 5.0, f"warm replay only {ratio:.1f}x cheaper than cold"
    # Throughput moves the same way (wall-clock is noisier, so just ordered).
    assert warm["queries_per_second"] > cold["queries_per_second"]
    # The vectorisation claim: the cold path is >=3x the PR-2 baseline.
    assert speedup >= 3.0, (
        f"cold path only {speedup:.1f}x the pre-vectorisation baseline "
        f"({cold['queries_per_second']} vs {PRE_VECTORISATION_COLD_QPS} q/s)"
    )
    # The cold path must stay batched: no per-row UDF API calls, and index
    # builds bounded by the distinct columns ever grouped (not the trace).
    assert cold["udf_row_calls"] == 0, "cold path fell back to per-row UDF calls"
    assert cold["group_index_builds"] <= dataset.table.num_columns


def _coldpath_scaling(scale: float, trace_length: int):
    dataset, catalog, udf, trace = _build_workload(scale)
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(plan_cache_size=0, stats_cache_size=0, free_memoized=False),
    )
    replay = _replay(service, udf, trace[:trace_length], reset_memo=True)
    return dataset, replay


def test_coldpath_scaling(benchmark):
    """Cold-path throughput at ~25k rows (10x the serving bench point).

    The pre-vectorisation cold path was O(rows) *python* per query, so its
    throughput collapsed linearly with table size.  The array-native cold
    path keeps per-query python work O(groups): even at 10x the rows it must
    beat the pre-vectorisation baseline's throughput at 2.6k rows.
    """
    dataset, replay = run_once(
        benchmark, _coldpath_scaling, COLDPATH_SCALE, COLDPATH_TRACE_LENGTH
    )
    assert 20_000 <= dataset.num_rows <= 35_000, "scaling point drifted from ~25k rows"

    print(
        f"\nCold-path scaling — {dataset.num_rows} rows: "
        f"{replay['queries_per_second']} q/s, "
        f"{replay['udf_evaluations']} UDF evaluations, "
        f"{replay['group_index_builds']} index builds, "
        f"{replay['udf_bulk_calls']} bulk / {replay['udf_row_calls']} per-row UDF calls"
    )

    payload = {
        "dataset": dataset.name,
        "rows": dataset.num_rows,
        "trace_length": COLDPATH_TRACE_LENGTH,
        "cold": replay,
        "small_scale_reference_qps": PRE_VECTORISATION_COLD_QPS,
    }
    write_result("BENCH_coldpath.json", json.dumps(payload, indent=2) + "\n")

    assert replay["udf_row_calls"] == 0, "cold path fell back to per-row UDF calls"
    assert replay["queries_per_second"] >= PRE_VECTORISATION_COLD_QPS, (
        "vectorised cold path at 10x rows should still beat the "
        "pre-vectorisation throughput at 2.6k rows"
    )
