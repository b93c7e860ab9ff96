"""Update workload: incremental refresh versus cold rebuild under data churn.

Builds a ~1M-row sharded table behind a warm :class:`~repro.serving.QueryService`
(expensive python UDF, plan + statistics caches hot), then appends a 1%
delta and measures how fast the *next* query is served:

* **refresh** — the incremental-ingest path: ``ShardedTable.append_columns``
  extends the mutable tail (delta-maintained arrays and merged indexes), and
  the service detects the generation bump and refreshes the warm entry in
  place — sticky correlated column, reservoir labelled-sample top-up,
  shortfall-only sampling, one re-solve — charging UDF evaluations only in
  proportion to the delta;
* **cold rebuild** — what a system without incremental ingest must do:
  re-ingest the concatenated data into a fresh table, cold-start the
  service/caches/UDF memo, and run the full pipeline (labelling, column
  selection, sampling, solve, execution) from scratch.

Wall-clock uses the suite's A/B discipline: ``WINDOWS`` interleaved,
order-alternating (refresh, cold) pairs — each window appends a *fresh*
1% delta to the warm table while the cold side re-ingests the cumulative
data — and the asserted speedup is the **median** of the per-window
ratios, so a single noisy window cannot flake the gate.  Emits
``out/BENCH_update.json`` (window-0 counters; seeds are fixed so they are
deterministic) with the wall-clock-independent work counters
``compare_bench.py --profile update`` gates in CI.  Asserts the tentpole
claims per window: the refresh serves the post-append query at least
``REPRO_BENCH_MIN_REFRESH_SPEEDUP`` (default 10, ``<= 0`` disarms) times
faster than the cold rebuild, with UDF evaluation counts bounded by the
appended delta, zero from-scratch group-index builds during the measured
append (extensions only — the one-time tail seal after the initial bulk
load is paid in untimed setup, modelling steady-state churn), and result
sets that cover the appended rows.  (``latency_p50_ms`` /
``latency_p99_ms`` informational keys live in the serving/coldpath payloads;
this profile measures one query per side per window, so percentiles would
be noise.)
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

import numpy as np
from conftest import run_once, write_result

from repro.db.catalog import Catalog
from repro.db.engine import Engine
from repro.db.index import GroupIndex
from repro.db.predicate import UdfPredicate
from repro.db.query import SelectQuery
from repro.db.sharding import ShardedTable
from repro.db.udf import UserDefinedFunction
from repro.serving import QueryService


SCALE_ROWS = 1_000_000
BENCH_SHARDS = 8
#: The appended delta: 1% of the warm table (the acceptance point).
APPEND_FRACTION = 0.01
#: Warm queries replayed before the append so the UDF memo reflects a
#: genuinely warm serving process (each draws fresh per-request coins).
WARMUP_QUERIES = 5
#: Interleaved, order-alternating (refresh, cold) measurement windows;
#: each appends a fresh delta and the median per-window ratio is asserted.
WINDOWS = 3
#: Minimum cold-rebuild / refresh wall-clock ratio; ``<= 0`` disarms.
MIN_REFRESH_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_REFRESH_SPEEDUP", "10.0")
)

#: Mixed selectivities with no near-pure group: at alpha=0.9 the solved
#: plans must *evaluate* most tuples they return, so the UDF-evaluation
#: economics (what incremental ingest preserves) dominate the workload.
GROUP_FRACTIONS = (0.24, 0.20, 0.16, 0.14, 0.10, 0.08, 0.05, 0.03)
GROUP_SELECTIVITIES = (0.66, 0.48, 0.72, 0.30, 0.55, 0.62, 0.20, 0.44)

QUERY_ALPHA, QUERY_BETA, QUERY_RHO = 0.9, 0.85, 0.8


def _build_columns(rows: int, seed: int):
    """Synthetic columns with exact per-group positive counts (array-native)."""
    rng = np.random.default_rng(seed)
    sizes = [int(round(fraction * rows)) for fraction in GROUP_FRACTIONS]
    sizes[0] += rows - sum(sizes)
    codes = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.zeros(rows, dtype=bool)
    start = 0
    for size, selectivity in zip(sizes, GROUP_SELECTIVITIES):
        labels[start : start + int(round(size * selectivity))] = True
        start += size
    order = rng.permutation(rows)
    codes, labels = codes[order], labels[order]
    group_names = np.array([f"g{i}" for i in range(len(sizes))])
    region_names = np.array([f"r{i}" for i in range(5)])
    return {
        "grade": group_names[codes].tolist(),
        "region": region_names[rng.integers(0, 5, rows)].tolist(),
        "is_good": labels.tolist(),
        "amount": np.abs(rng.normal(12_000, 6_000, rows)).tolist(),
    }


def _expensive_udf(name: str) -> UserDefinedFunction:
    """A genuinely expensive per-row predicate (the paper's regime).

    The trigonometric loop models UDF compute; the outcome still reveals
    the hidden label so ground truth stays exact.  Deliberately *not* a
    label-column UDF: every evaluation pays real python/per-row cost, which
    is what the delta-proportional refresh avoids re-paying.
    """

    def check(row) -> bool:
        acc = 0.0
        for k in range(50):
            acc += math.sin(acc + k + row["amount"])
        return bool(row["is_good"]) ^ (acc > 1e9)  # acc term never trips

    return UserDefinedFunction(name=name, func=check)


def _concat(a, b):
    return {name: a[name] + b[name] for name in a}


def _query(table_name: str, udf: UserDefinedFunction) -> SelectQuery:
    return SelectQuery(
        table=table_name,
        predicate=UdfPredicate(udf),
        alpha=QUERY_ALPHA,
        beta=QUERY_BETA,
        rho=QUERY_RHO,
        correlated_column=None,  # automatic column selection: the full pipeline
    )


def _refresh_window(service, table, udf, query, delta_columns, seed):
    """One measured refresh event: append a fresh 1% delta, serve the query."""
    rows_before_delta = table.num_rows
    builds_before = GroupIndex.builds_total
    extensions_before = GroupIndex.extensions_total
    metrics_before = service.stats().serving
    udf_before = udf.counter_snapshot()
    started = time.perf_counter()
    table.append_columns(delta_columns)
    result = service.submit(query, seed=seed)
    seconds = time.perf_counter() - started
    metrics = service.stats().serving
    return {
        "seconds": round(seconds, 4),
        "udf_evaluations": int(udf.counter_delta(udf_before)["calls"]),
        "charged_evaluations": int(result.ledger.evaluated_count),
        "solver_calls": int(
            metrics["solver_calls"] - metrics_before["solver_calls"]
        ),
        "plan_refreshes": int(
            metrics["plan_refreshes"] - metrics_before["plan_refreshes"]
        ),
        "group_index_builds": int(GroupIndex.builds_total - builds_before),
        "group_index_extensions": int(
            GroupIndex.extensions_total - extensions_before
        ),
        "path": result.metadata["plan_cache"],
        "covers_delta": bool(
            any(int(row_id) >= rows_before_delta for row_id in result.row_ids)
        ),
    }


def _cold_window(cumulative_columns, seed):
    """One cold rebuild: re-ingest the cumulative data, cold-serve the query."""
    cold_udf = _expensive_udf("update_cold")
    started = time.perf_counter()
    rebuilt = ShardedTable.from_columns(
        "update_bench",
        cumulative_columns,
        hidden_columns=["is_good"],
        num_shards=BENCH_SHARDS,
    )
    cold_catalog = Catalog()
    cold_catalog.register_table(rebuilt)
    cold_catalog.register_udf(cold_udf)
    cold_service = QueryService(Engine(cold_catalog))
    cold_result = cold_service.submit(_query("update_bench", cold_udf), seed=seed)
    seconds = time.perf_counter() - started
    return {
        "seconds": round(seconds, 4),
        "udf_evaluations": int(cold_udf.counter_snapshot()["calls"]),
        "charged_evaluations": int(cold_result.ledger.evaluated_count),
        "solver_calls": int(cold_service.stats().serving["solver_calls"]),
    }


def _update_comparison():
    base_columns = _build_columns(SCALE_ROWS, seed=2015)
    appended_rows = int(round(SCALE_ROWS * APPEND_FRACTION))
    seed_delta = _build_columns(appended_rows, seed=55)

    # ---- incremental side: a warm service over a sharded table ------------
    table = ShardedTable.from_columns(
        "update_bench",
        base_columns,
        hidden_columns=["is_good"],
        num_shards=BENCH_SHARDS,
    )
    # A seed append before any serving: the initial bulk-load layout ends in
    # a *full* shard, so the first-ever append pays a one-time tail seal.
    # Steady-state churn (what the measured events model) appends into the
    # small re-chunked tail.
    table.append_columns(seed_delta)
    udf = _expensive_udf("update_inc")
    catalog = Catalog()
    catalog.register_table(table)
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog))
    query = _query("update_bench", udf)

    service.submit(query, seed=100)  # cold warm-up (plans + statistics)
    warm_started = time.perf_counter()
    warm_evals = 0
    for position in range(WARMUP_QUERIES):
        before = udf.counter_snapshot()
        service.submit(query, seed=200 + position)
        warm_evals += udf.counter_delta(before)["calls"]
    warm_seconds = time.perf_counter() - warm_started
    warm = {
        "seconds": round(warm_seconds, 4),
        "queries_per_second": round(WARMUP_QUERIES / warm_seconds, 2),
        "udf_evaluations": int(warm_evals),
    }

    # ---- measured events: WINDOWS interleaved (refresh, cold) pairs -------
    # Each window appends a *fresh* 1% delta to the warm table; the cold
    # side re-ingests the cumulative data including that delta.  Order
    # alternates so drift in either direction cancels in the median.
    cumulative = _concat(base_columns, seed_delta)
    refresh_windows = []
    cold_windows = []
    for window in range(WINDOWS):
        delta_columns = _build_columns(appended_rows, seed=77 + window)
        cumulative = _concat(cumulative, delta_columns)
        refresh_first = window % 2 == 0
        if refresh_first:
            refresh_windows.append(
                _refresh_window(
                    service, table, udf, query, delta_columns, 300 + window
                )
            )
        cold_windows.append(_cold_window(cumulative, 300 + window))
        if not refresh_first:
            refresh_windows.append(
                _refresh_window(
                    service, table, udf, query, delta_columns, 300 + window
                )
            )
    speedups = [
        cold["seconds"] / max(refresh["seconds"], 1e-9)
        for refresh, cold in zip(refresh_windows, cold_windows)
    ]
    return appended_rows, warm, refresh_windows, cold_windows, speedups


def test_update_workload(benchmark):
    appended_rows, warm, refresh_windows, cold_windows, speedups = run_once(
        benchmark, _update_comparison
    )
    refresh, cold = refresh_windows[0], cold_windows[0]
    speedup = statistics.median(speedups)

    print(
        f"\nUpdate workload — {SCALE_ROWS} rows + {appended_rows} appended "
        f"({APPEND_FRACTION:.0%}) per window, {BENCH_SHARDS} shards, "
        f"median of {WINDOWS} interleaved refresh/cold windows"
    )
    print(
        f"  warm (pre-append)  : {warm['queries_per_second']:>8} q/s, "
        f"{warm['udf_evaluations']} UDF evaluations over {WARMUP_QUERIES} queries"
    )
    print(
        f"  refresh (append+query): {refresh['seconds']:.2f}s, "
        f"{refresh['udf_evaluations']} UDF evaluations, "
        f"{refresh['solver_calls']} solver calls, "
        f"{refresh['group_index_builds']} index builds / "
        f"{refresh['group_index_extensions']} extensions"
    )
    print(
        f"  cold rebuild+query : {cold['seconds']:.2f}s, "
        f"{cold['udf_evaluations']} UDF evaluations"
    )
    print(
        "  refresh speedup    : "
        + ", ".join(f"{value:.1f}x" for value in speedups)
        + f" -> median {speedup:.1f}x"
    )

    payload = {
        "rows": SCALE_ROWS + appended_rows,  # warm-table rows at append time
        "appended_rows": appended_rows,
        "shards": BENCH_SHARDS,
        "append_fraction": APPEND_FRACTION,
        "windows": WINDOWS,
        # Window 0 counters: seeds are fixed, so they are deterministic.
        "warm": warm,
        "refresh": refresh,
        "cold": cold,
        "refresh_speedup": round(speedup, 2),
        "speedup_windows": [round(value, 2) for value in speedups],
        "cpu_count": os.cpu_count(),
    }
    write_result("BENCH_update.json", json.dumps(payload, indent=2) + "\n")

    for refresh in refresh_windows:
        # The serving layer took the refresh path, exactly once, with one
        # solve — every window, not just the first append after warm-up.
        assert refresh["path"] == "refresh"
        assert refresh["plan_refreshes"] == 1
        assert refresh["solver_calls"] == 1
        # Delta-proportional UDF work: each append+query event evaluates
        # (and charges) at most one delta's worth of tuples — never the table.
        assert refresh["udf_evaluations"] <= appended_rows, (
            f"refresh evaluated {refresh['udf_evaluations']} tuples for a "
            f"{appended_rows}-row delta"
        )
        assert refresh["charged_evaluations"] <= appended_rows
        # Warm indexes were extended, never rebuilt: zero from-scratch
        # factorisations during a steady-state append (a tail seal would be
        # the only legitimate source, and these deltas fit the re-chunked
        # tail).
        assert refresh["group_index_extensions"] >= 1
        assert refresh["group_index_builds"] == 0
        # The refreshed plan actually serves the appended rows.
        assert refresh["covers_delta"], "refresh result never returns appended rows"
    # The acceptance claim: >= 10x faster than the cold-rebuild path.
    if MIN_REFRESH_SPEEDUP > 0:
        assert speedup >= MIN_REFRESH_SPEEDUP, (
            f"post-append query only {speedup:.1f}x faster than cold rebuild "
            f"(median of {WINDOWS} windows; required {MIN_REFRESH_SPEEDUP}x; "
            "set REPRO_BENCH_MIN_REFRESH_SPEEDUP to tune)"
        )
