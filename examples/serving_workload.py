"""Serving a repeated query workload with statistics/plan caching.

A :class:`~repro.serving.QueryService` fronts a shared catalog and replays a
1000-query trace drawn from a handful of distinct query signatures — the
shape of real dashboard/API traffic, where the same few questions arrive
over and over with different clients behind them.  The service plans each
signature once, reuses the paid-for sampling evidence across constraint
variants, and executes everything on the library-wide default vectorised
:class:`~repro.core.BatchExecutor`.

Every layer shares one :class:`~repro.db.GroupIndex` per (table, column):
the cold pipeline builds it through :meth:`~repro.db.Table.group_index`,
warm plan-cache hits reuse the same object, and the example prints both the
serving-layer index hit rate and the *global* build counter so you can see
that a 1000-query trace groups each column exactly once.

Run with::

    python examples/serving_workload.py
    python examples/serving_workload.py --shards 8               # sharded, serial
    python examples/serving_workload.py --shards 8 --workers 4 --executor process
    python examples/serving_workload.py --churn 2                # 2% appends between batches
    python examples/serving_workload.py --async --clients 1000   # concurrent front-end
    python examples/serving_workload.py --persist /tmp/repro-db  # durable warm restart
    python examples/serving_workload.py --memory-budget 400000   # bounded-memory serving
    python examples/serving_workload.py --scale 20 --memory-budget 8000000  # ~1M rows

``--shards N`` splits the table into N contiguous shards
(:class:`~repro.db.ShardedTable`); ``--executor process --workers W`` serves
it on W worker processes over memory-mapped shard files, the multi-core backend
for python-callable UDFs.  Its answers are identical for every shard layout
and worker count (the coin discipline is layout- and worker-invariant);
only the wall-clock changes, and only helps on multi-core hosts with large
tables.

``--async`` replays the trace through :meth:`QueryService.submit_async`
with ``--clients N`` concurrent anonymous requests: same-signature cold
arrivals coalesce onto one in-flight execution (work done once, everyone
gets the same bitwise answer), over-limit arrivals would be shed with a
typed :class:`~repro.serving.Overloaded`, and the unified
:meth:`QueryService.stats` snapshot is printed afterwards.

``--churn P`` splits the trace into batches and appends ``P``% of the
table's rows (bootstrap-resampled from the existing data) between batches.
Each append bumps the table's data generation, so the first submit of every
warm signature afterwards takes the *refresh* path — statistics topped up
with delta-only UDF work, one re-solve — instead of a cold re-plan; the
example prints the warm-hit versus refresh counts so the effect is visible.

``--persist DIR`` runs the service with durable storage under ``DIR``:
after the replay the service is shut down (checkpointing the table into
checksummed column segments and the warm state — plan-cache entries,
statistics, UDF memo — under the atomic manifest), reopened from the
manifest as a fresh process would, and asked the hottest signature again.
The example prints cold-start versus warm-restart work counters side by
side: the restarted service answers with ``plan_cache: restored`` and
**zero** UDF evaluations, bitwise identical to the pre-shutdown warm run.

``--memory-budget BYTES`` demonstrates bounded-memory serving: the table is
checkpointed into durable column segments, reopened *lazily* behind a
:class:`~repro.db.residency.ResidencyManager` with the given byte budget,
and the hottest query is answered straight off disk — segments map on
first touch, clean least-recently-used mappings are evicted to stay under
budget, and the answer is bitwise identical to an unbounded in-memory run
at the same seed.  Pick a budget smaller than the printed segment bytes to
see evictions; ``--scale 20`` grows the table to ~1M rows for an
out-of-core-sized demonstration.

``--metrics`` installs a trace sink for the replay, then prints the
``stats()`` counter sections, the same snapshot as Prometheus text
(``prometheus_text({"repro_service": stats().flat()})``), per-path latency
percentiles and the slowest query's span tree —
works in every mode, including ``--churn`` (refresh spans) and
``--shards/--workers`` (per-shard spans).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import tempfile
import time

from repro import (
    Catalog,
    Engine,
    GroupIndex,
    Overloaded,
    QueryService,
    SelectQuery,
    ServiceConfig,
    ShardedTable,
    UdfPredicate,
    load_dataset,
)
from repro.db.storage import CatalogStore
from repro.obs import CollectingTraceSink, prometheus_text
from repro.stats.metrics import result_quality
from repro.stats.random import RandomState

TRACE_LENGTH = 1000
DISTINCT_CLIENTS = 8


def build_trace(dataset, udf, rng: RandomState):
    """A skewed trace over a few distinct signatures (hot queries dominate)."""
    signatures = [
        dict(alpha=0.8, beta=0.8, column="grade"),
        dict(alpha=0.9, beta=0.7, column="grade"),
        dict(alpha=0.7, beta=0.9, column="grade"),
        dict(alpha=0.8, beta=0.8, column="grade_band"),
        dict(alpha=0.85, beta=0.75, column=None),  # automatic column selection
    ]
    weights = [0.40, 0.25, 0.15, 0.12, 0.08]
    queries = [
        SelectQuery(
            table=dataset.table.name,
            predicate=UdfPredicate(udf),
            alpha=spec["alpha"],
            beta=spec["beta"],
            rho=0.8,
            correlated_column=spec["column"],
        )
        for spec in signatures
    ]
    picks = rng.choice(len(queries), size=TRACE_LENGTH, replace=True, p=weights)
    return [queries[int(i)] for i in picks]


def replay(service, trace, label, churn_percent=0.0, batches=4, rng=None):
    """Replay the trace; with churn, append rows between query batches."""
    table = service.catalog.table(trace[0].table)
    started = time.perf_counter()
    evaluations = 0
    batch_size = max(1, len(trace) // batches) if churn_percent else len(trace)
    for position, query in enumerate(trace):
        if churn_percent and position and position % batch_size == 0:
            appended = append_bootstrap_delta(table, churn_percent / 100.0, rng)
            print(f"  … appended {appended} rows (generation {table.data_generation})")
        result = service.submit(
            query,
            client_id=f"client_{position % DISTINCT_CLIENTS}",
            seed=10_000 + position,
        )
        evaluations += result.ledger.evaluated_count
    elapsed = time.perf_counter() - started
    print(f"{label}")
    print(f"  queries            : {len(trace)}")
    print(f"  wall time          : {elapsed:.2f}s  ({len(trace) / elapsed:,.0f} queries/sec)")
    print(f"  charged evaluations: {evaluations}")
    return elapsed


def replay_concurrent(service, trace, clients, label):
    """Fire ``clients`` concurrent anonymous requests through submit_async.

    Same-signature requests share a seed, so cold arrivals coalesce onto
    the leader's flight; everything else is a warm plan hit.
    """
    requests = [trace[i % len(trace)] for i in range(clients)]
    seeds: dict[int, int] = {}
    for query in requests:
        seeds.setdefault(id(query), 20_000 + len(seeds))

    async def herd():
        return await asyncio.gather(
            *[
                service.submit_async(query, seed=seeds[id(query)])
                for query in requests
            ],
            return_exceptions=True,
        )

    started = time.perf_counter()
    results = asyncio.run(herd())
    elapsed = time.perf_counter() - started
    shed = sum(1 for r in results if isinstance(r, Overloaded))
    answered = [r for r in results if not isinstance(r, BaseException)]
    coalesced = sum(1 for r in answered if r.metadata.get("coalesced"))
    print(f"{label}")
    print(f"  concurrent clients : {clients}")
    print(f"  wall time          : {elapsed:.2f}s  ({clients / elapsed:,.0f} queries/sec)")
    print(f"  answered           : {len(answered)}  (coalesced: {coalesced}, shed: {shed})")
    return elapsed


def append_bootstrap_delta(table, fraction, rng: RandomState):
    """Append ``fraction`` of the table's rows, bootstrap-resampled.

    Resampling existing rows (hidden label included) keeps the delta
    schema-exact and roughly distribution-preserving — the shape of real
    churn, where tomorrow's records look like today's.
    """
    count = max(1, int(round(table.num_rows * fraction)))
    picks = rng.choice(table.num_rows, size=count, replace=True)
    delta = {name: [] for name in table.schema.column_names}
    for row_id in picks:
        row = table.row(int(row_id), include_hidden=True)
        for name, value in row.items():
            delta[name].append(value)
    return table.append_columns(delta)


def demonstrate_restart(
    service, dataset, udf, hot, persist_dir, scale, backend, workers
) -> None:
    """Shut down (persisting), warm-restart from the manifest, contrast cold.

    The pre-shutdown warm run pins the seed the restart replays: warm
    execution draws per-request coins, so bitwise parity (and a fully
    covering UDF memo) holds against the warm run at the same seed.  The
    restarted service runs the *same* executor config — a restarted
    process reads the same config it crashed with, and the per-span coin
    streams (hence the memo's coverage) follow the execution layout.
    """
    seed = 424_242
    before = udf.counter_snapshot()
    warm = service.submit(hot, seed=seed)
    warm_evals = udf.counter_delta(before)["calls"]
    started = time.perf_counter()
    service.close()  # checkpoint + journal truncate + warm state: the commit
    persist_seconds = time.perf_counter() - started

    # Warm restart: reopen the catalog from the manifest, as a fresh
    # process would, and repeat the previously-served query.
    started = time.perf_counter()
    catalog, reports = CatalogStore(persist_dir).open()
    restart_udf = dataset.make_udf("credit_check")  # UDFs are code: re-registered
    catalog.register_udf(restart_udf)
    restarted = QueryService(
        Engine(catalog),
        config=ServiceConfig(
            executor=backend, max_workers=workers, storage_dir=persist_dir
        ),
    )
    repeated = SelectQuery(
        table=hot.table,
        predicate=UdfPredicate(restart_udf),
        alpha=hot.alpha,
        beta=hot.beta,
        rho=hot.rho,
        correlated_column=hot.correlated_column,
    )
    restored = restarted.submit(repeated, seed=seed)
    restart_seconds = time.perf_counter() - started
    restart_evals = restart_udf.counter_snapshot()["calls"]
    storage = restarted.stats().storage
    restarted.close()

    # Cold start: what a process without durable warm state pays for the
    # same query — re-ingest the source data and run the full pipeline.
    started = time.perf_counter()
    cold_dataset = load_dataset("lending_club", random_state=7, scale=scale)
    cold_udf = cold_dataset.make_udf("credit_check")
    cold_catalog = Catalog()
    cold_catalog.register_table(cold_dataset.table)
    cold_catalog.register_udf(cold_udf)
    cold_service = QueryService(Engine(cold_catalog))
    cold_service.submit(
        SelectQuery(
            table=cold_dataset.table.name,
            predicate=UdfPredicate(cold_udf),
            alpha=hot.alpha,
            beta=hot.beta,
            rho=hot.rho,
            correlated_column=hot.correlated_column,
        ),
        seed=seed,
    )
    cold_seconds = time.perf_counter() - started
    cold_evals = cold_udf.counter_snapshot()["calls"]
    cold_solves = cold_service.stats().serving["solver_calls"]
    cold_service.close()

    print(f"\ndurable restart (--persist {persist_dir})")
    print(f"  persisted on close  : {persist_seconds:.2f}s "
          f"(tables: {', '.join(sorted(reports))})")
    print(f"  cold start          : {cold_seconds:.2f}s, "
          f"{cold_evals} UDF evaluations, {cold_solves} solver calls")
    print(f"  warm restart        : {restart_seconds:.2f}s, "
          f"{restart_evals} UDF evaluations, "
          f"plan_cache={restored.metadata['plan_cache']}")
    print(f"  restored from disk  : {storage['restored_plans']} plans, "
          f"{storage['restored_udf_memos']} UDF memo, "
          f"{storage['restore_errors']} restore errors")
    print(f"  pre-shutdown warm run: {warm_evals} UDF evaluations; "
          f"row ids identical after restart: "
          f"{list(restored.row_ids) == list(warm.row_ids)}")


def demonstrate_bounded_memory(dataset, table, args, backend) -> None:
    """Serve the hottest signature from durable segments under a byte budget.

    The table is checkpointed into its own staging store, reopened twice
    over the *same* segments — once eagerly (unbounded, fully resident)
    and once lazily behind a :class:`ResidencyManager` with the requested
    budget — and the same seeded query is submitted to both.  Eviction
    order is bitwise-invisible: the bounded run must return the identical
    row ids while its peak residency stays at (or, transiently, one pinned
    shard above) the budget.
    """
    from repro.db.residency import ResidencyManager

    budget = args.memory_budget
    directory = tempfile.mkdtemp(prefix="repro-budget-")
    staging = Catalog()
    staging.register_table(table)
    store = CatalogStore(directory)
    store.save(staging)
    segment_bytes = sum(
        entry.stat().st_size
        for name in store.table_names()
        for entry in os.scandir(store.table_store(name).segments_dir)
        if entry.is_file()
    )

    seed = 777_000

    def run(residency, budget_bytes):
        catalog, _ = CatalogStore(directory).open(residency=residency)
        udf = dataset.make_udf("credit_check")
        catalog.register_udf(udf)
        service = QueryService(
            Engine(catalog),
            config=ServiceConfig(
                executor=backend,
                max_workers=args.workers,
                memory_budget_bytes=budget_bytes,
            ),
        )
        query = SelectQuery(
            table=table.name,
            predicate=UdfPredicate(udf),
            alpha=0.8,
            beta=0.8,
            rho=0.8,
            correlated_column="grade",
        )
        result = service.submit(query, seed=seed)
        snapshot = service.stats().storage.get("residency")
        service.close()
        return result, snapshot

    unbounded, _ = run(None, None)
    bounded, snapshot = run(ResidencyManager(budget_bytes=budget), budget)

    print(f"\nbounded-memory serving (--memory-budget {budget:,})")
    print(f"  durable segment bytes : {segment_bytes:,} "
          f"({segment_bytes / budget:.1f}x the budget)")
    print(f"  peak resident bytes   : {snapshot['peak_resident_bytes']:,} "
          f"(budget {snapshot['budget_bytes']:,})")
    print(f"  segment maps          : {snapshot['maps']}  "
          f"evictions: {snapshot['evictions']}  refaults: {snapshot['refaults']}")
    print(f"  pressure level at end : {snapshot['pressure_level']}")
    print(f"  row ids bitwise equal to unbounded run: "
          f"{list(bounded.row_ids) == list(unbounded.row_ids)}")


def print_metrics_report(service, sink) -> None:
    """Print the stats() sections, their Prometheus text, latency and slowest trace."""
    snapshot = service.stats()
    print("\nobservability (--metrics)")
    print("  stats() counters (each read from the object that owns it):")
    sections = {
        "serving": snapshot.serving,
        "plan_cache": snapshot.plan_cache,
        **{f"udfs.{name}": counts for name, counts in snapshot.udfs.items()},
    }
    for section, counts in sections.items():
        shown = ", ".join(f"{key}={value:g}" for key, value in counts.items() if value)
        print(f"    {section:<20s} {shown}")
    samples = [
        line
        for line in prometheus_text({"repro_service": snapshot.flat()}).splitlines()
        if not line.startswith("#")
    ]
    print(f"  prometheus text of stats().flat() ({len(samples)} samples, non-zero shown):")
    for line in samples:
        if not line.endswith(" 0"):
            print(f"    {line}")
    print("  per-path latency (ms):")
    for path, stats in sorted(snapshot.latency_ms.items()):
        if not stats["count"]:
            continue
        print(
            f"    {path:<10s} n={stats['count']:<5d} "
            f"p50={stats['p50_ms']:.3f}  p95={stats['p95_ms']:.3f}  "
            f"p99={stats['p99_ms']:.3f}  max={stats['max_ms']:.3f}"
        )
    slowest = sink.slowest()
    if slowest is not None:
        print(
            f"  slowest query: {slowest.name} query_id={slowest.query_id} "
            f"{slowest.duration_ms:.2f}ms"
        )
        for line in slowest.format_tree().splitlines():
            print(f"    {line}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--shards", type=int, default=1,
        help="contiguous shards to split the table into (default: 1, unsharded)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the 'process' executor backend (default: 1)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="dataset scale factor (default: 0.1, ~5k rows)",
    )
    parser.add_argument(
        "--churn", type=float, default=0.0,
        help="percent of rows to append between query batches (default: 0, "
        "no churn); appends take the serving layer's delta-refresh path",
    )
    parser.add_argument(
        "--executor", choices=("serial", "process"), default="serial",
        help="executor backend (default: 'serial'; 'process' fans "
        "python-callable UDF work over memory-mapped shard files on a spawn "
        "process pool)",
    )
    parser.add_argument(
        "--async", dest="use_async", action="store_true",
        help="replay through the asyncio front-end (submit_async): "
        "concurrent same-signature cold requests coalesce onto one flight "
        "and the unified stats() snapshot is printed",
    )
    parser.add_argument(
        "--clients", type=int, default=1000,
        help="concurrent clients for --async (default: 1000)",
    )
    parser.add_argument(
        "--persist", metavar="DIR", default=None,
        help="durable storage directory: checkpoint the table + warm state "
        "there on shutdown, then demonstrate a warm restart (reopen from "
        "the manifest, repeat the hottest query with zero UDF evaluations) "
        "against a cold start over the same data",
    )
    parser.add_argument(
        "--memory-budget", type=int, metavar="BYTES", default=None,
        help="demonstrate bounded-memory serving: checkpoint the table into "
        "durable segments, reopen lazily under this residency budget, and "
        "answer the hottest query bitwise-identically to an unbounded run "
        "while evicting LRU segment mappings to stay under budget",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="trace every query and print the stats() snapshot, its "
        "Prometheus text and the slowest trace tree after the replay",
    )
    args = parser.parse_args()

    dataset = load_dataset("lending_club", random_state=7, scale=args.scale)
    udf = dataset.make_udf("credit_check")
    catalog = Catalog()
    table = dataset.table
    if args.shards > 1:
        table = ShardedTable.from_table(dataset.table, num_shards=args.shards)
    catalog.register_table(table)
    catalog.register_udf(udf)

    parallel = args.shards > 1 or args.workers > 1
    backend = args.executor
    service = QueryService(
        Engine(catalog),
        config=ServiceConfig(
            executor=backend,
            max_workers=args.workers,
            # The async herd arrives all at once; admit it wholesale (tune
            # class_limits / max_pending down to see typed Overloaded sheds).
            max_pending=max(64, 2 * args.clients),
            storage_dir=args.persist,
        ),
    )
    sink = None
    if args.metrics:
        # Room for every request the run serves — the replay, then the
        # quality spot check — so the slowest trace (the first cold miss)
        # is never evicted before the report reads it.
        served = (args.clients if args.use_async else TRACE_LENGTH) + 1
        sink = CollectingTraceSink(capacity=served)
        service.set_trace_sink(sink)
    trace = build_trace(dataset, udf, RandomState(2015))
    layout = (
        f"{args.shards} shards, {args.workers} workers ({backend} backend)"
        if parallel
        else f"unsharded ({backend} backend)"
    )
    print(f"dataset: {dataset.name}, {dataset.num_rows} rows; "
          f"{TRACE_LENGTH}-query trace over 5 signatures, "
          f"{DISTINCT_CLIENTS} clients; {layout}\n")

    index_builds_before = GroupIndex.builds_total
    if args.use_async:
        replay_concurrent(
            service, trace, args.clients,
            "async replay (caches cold at start, coalescing on)",
        )
    else:
        label = (
            f"replay (caches cold at start, {args.churn}% churn between batches)"
            if args.churn
            else "replay (caches cold at start)"
        )
        replay(
            service, trace, label,
            churn_percent=args.churn, rng=RandomState(99),
        )

    snapshot = service.stats()
    metrics = snapshot.serving
    plans = snapshot.plan_cache
    stats = snapshot.stats_cache
    print("\ncache effectiveness")
    print(f"  pipeline runs (solver invocations) : {metrics['pipeline_runs']}")
    print(f"  plan cache hit rate                : {plans['hit_rate']:.1%}")
    if args.churn:
        print(f"  warm plan hits                     : {metrics['plan_hits']}")
        print(f"  generation refreshes (delta path)  : {metrics['plan_refreshes']}")
        refresh_rate = metrics["plan_refreshes"] / max(
            1, metrics["plan_hits"] + metrics["plan_refreshes"]
        )
        print(f"  refresh share of warm traffic      : {refresh_rate:.1%}")
    print(f"  labelled-sample hit rate           : {stats['labeled_samples']['hit_rate']:.1%}")
    print(f"  sample-outcome hit rate            : {stats['sample_outcomes']['hit_rate']:.1%}")
    print(f"  group-index hit rate               : {stats['indexes']['hit_rate']:.1%}")
    print(f"  group-index builds (whole trace)   : {GroupIndex.builds_total - index_builds_before}")

    # Quality spot check on the hottest signature.
    check = service.submit(trace[0], seed=99, audit=True)
    print("\nquality spot check (hottest signature)")
    print(f"  precision={check.quality.precision:.3f}  recall={check.quality.recall:.3f}")

    udf_counters = udf.counter_snapshot()
    print("\nUDF memoisation")
    print(f"  distinct evaluations paid : {udf_counters['cache_misses']}")
    print(f"  memo-cache hits           : {udf_counters['cache_hits']}")

    if args.use_async:
        stats = service.stats()
        print("\nstats() snapshot (unified serving surface)")
        print(f"  serving counters : queries={stats.serving['queries']} "
              f"coalesced={stats.serving['coalesced']} shed={stats.serving['shed']}")
        print(f"  front-end        : max_concurrency={stats.frontend['max_concurrency']} "
              f"max_pending={stats.frontend['max_pending']} "
              f"open_flights={stats.frontend['open_flights']}")
        latency = stats.latency_ms.get("all", {})
        if latency.get("count"):
            print(f"  latency (all)    : n={latency['count']} "
                  f"p50={latency['p50_ms']:.2f}ms p99={latency['p99_ms']:.2f}ms")

    if args.metrics:
        print_metrics_report(service, sink)
    if not args.churn:
        # (under churn the bundle's precomputed truth is stale — the audit
        # above already recomputed it live through the engine)
        truth = dataset.ground_truth_row_ids()
        quality = result_quality(check.row_ids, truth)
        assert quality.precision == check.quality.precision  # audit consistency
    if args.memory_budget:
        demonstrate_bounded_memory(dataset, table, args, backend)
    if args.persist:
        demonstrate_restart(
            service, dataset, udf, trace[0], args.persist, args.scale,
            backend, args.workers,
        )


if __name__ == "__main__":
    main()
