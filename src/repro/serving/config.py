"""Service configuration and the unified stats surface.

:class:`ServiceConfig` is the one place :class:`~repro.serving.service.QueryService`
is configured — it replaces the ~10 loose keyword arguments that accreted on
the constructor across releases (removed in 1.7).  :class:`ServiceStats` is the matching
read side: one typed snapshot unifying the serving counters, cache
statistics, session accounting, latency summaries, async front-end state,
breaker, storage and UDF counters — each read from the object that counts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

#: Canonical executor backend names.
#:
#: ``serial``
#:     The vectorised single-threaded :class:`~repro.core.executor.BatchExecutor`
#:     (the default — "serial" describes its concurrency, not its speed).
#: ``process``
#:     :class:`~repro.core.procpool.ProcessPoolBatchExecutor` over
#:     memory-mapped shard files; the only backend that scales python-callable
#:     UDF evaluation across cores.  It flips ``serial``'s coins in the
#:     parent and only evaluates in workers, so a seed gets the same answer
#:     from either backend.
#:
#: The paper-faithful tuple-at-a-time :class:`~repro.core.executor.PlanExecutor`
#: stays in :mod:`repro.core` as the differential reference; no service runs it.
EXECUTORS = ("serial", "process")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything configurable about a :class:`QueryService`, in one value.

    Parameters
    ----------
    executor:
        One of :data:`EXECUTORS` (``"serial"`` or ``"process"``) — backend
        for warm-plan execution, the pipeline's execution step and, for
        ``"process"``, the fan-out of sampling and labelling evaluations.
    max_workers:
        Worker processes of the ``process`` backend (``None`` = machine
        cores; ``1`` runs its spans inline); ignored by ``serial``.  Workers
        memory-map the columns they read as segment files
        (:mod:`repro.db.shm`).
    plan_cache_size / stats_cache_size:
        LRU bounds for the two caches (``0`` disables caching).
    ttl:
        Optional time-to-live in seconds applied to both caches.
    default_budget:
        UDF-cost budget assigned to implicitly created client sessions.
    free_memoized:
        Serving accounting: do not re-charge evaluations whose value the UDF
        already memoised.  The service sets it on the ledger of every hit and
        every refresh (:attr:`~repro.db.udf.CostLedger.free_memoized`); cold
        pipeline runs keep the paper's accounting.
    max_concurrency:
        Threads executing requests for the asyncio front-end
        (:meth:`QueryService.submit_async`); bounds how many requests run at
        once regardless of how many are admitted.  It bounds pool *tasks*:
        the live hits one event-loop iteration brings share one task (run
        back to back on one thread, their results landed together), so a
        burst of k warm hits occupies one thread, not ``min(k,
        max_concurrency)``; every planning request (flight leader),
        python-callable-UDF, process-backend, budgeted, exact or
        named-strategy request is a task of its own.  More threads than
        cores buy nothing for label-column hits — they contend for the
        interpreter lock — and with partly filled ticks an oversubscribed
        pool costs tail latency on top (numbers on
        :meth:`QueryService.submit_async`): size it to the cores.
    max_pending:
        Default per-class admission limit for the async front-end: when this
        many requests of one query class are already in flight, further
        arrivals are shed with :class:`~repro.serving.session.Overloaded`.
    class_limits:
        Per-class overrides of ``max_pending``, keyed by query class
        (``"exact"`` / ``"strategy"`` / ``"approximate"``).
    default_timeout_s:
        Deadline applied to every request that does not carry its own
        ``timeout_s``/``deadline`` (``None`` = no default deadline).  An
        expired request raises the typed
        :class:`~repro.resilience.deadline.DeadlineExceeded` at the next
        cooperative cancellation point, charging no further UDF work.
    breaker_threshold / breaker_recovery_s:
        Circuit breaker over process-pool health.  The process executor
        retries a transiently failed span once against a respawned pool and
        reports each faulting round here.  After ``breaker_threshold``
        consecutive faulting requests the service runs process-backed
        execution inline on the calling thread; after
        ``breaker_recovery_s`` seconds it half-opens and lets one probe
        request at a time try the pool again.
    storage_dir:
        Root directory of a durable :class:`~repro.db.storage.CatalogStore`.
        When set, the service restores persisted warm state (plan-cache
        entries, statistics reservoirs, one set of group-index codes per
        indexed column of a table, sharded or not, and the UDF memos, kept
        once for the whole catalog under ``<storage_dir>/warm/``) for
        matching tables on construction — a restarted service answers its
        first repeated query as a warm hit with zero UDF evaluations — and
        :meth:`QueryService.save_warm_state` / :meth:`QueryService.close`
        checkpoint the tables and write the warm state back.  A checkpoint
        writes what changed since the last one into this directory (the
        appended-to tail, freshly sealed shards) and references every
        segment file that is already durable there, so closing an untouched
        service writes no table segment at all; the warm state (segments
        under one record per table plus the catalog's memo record,
        :mod:`repro.serving.persistence`) is rewritten whole each time.
        ``None`` (the default) keeps the service fully in-memory.
    memory_budget_bytes:
        Residency budget for durable table segments, in bytes.  When set
        (with ``storage_dir``), tables open *lazily*: segments map on first
        touch and a :class:`~repro.db.residency.ResidencyManager` evicts
        clean least-recently-used mappings to keep resident bytes at or
        under the budget (pinned in-flight segments may transiently exceed
        it by one shard's columns).  Crossing the high watermark sheds the
        service caches; exceeding the budget outright (``critical``) sheds
        new async admissions with :class:`~repro.serving.session.Overloaded`.
        ``None`` (the default) keeps durable tables fully resident, exactly
        as before.
    """

    executor: str = "serial"
    max_workers: Optional[int] = None
    plan_cache_size: Optional[int] = 256
    stats_cache_size: Optional[int] = 256
    ttl: Optional[float] = None
    default_budget: Optional[float] = None
    free_memoized: bool = True
    max_concurrency: int = 8
    max_pending: int = 64
    class_limits: Mapping[str, int] = field(default_factory=dict)
    default_timeout_s: Optional[float] = None
    breaker_threshold: int = 3
    breaker_recovery_s: float = 30.0
    storage_dir: Optional[str] = None
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
        if self.max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be positive, got {self.max_concurrency}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be positive, got {self.max_pending}")
        for query_class, limit in self.class_limits.items():
            if limit < 0:
                raise ValueError(
                    f"class_limits[{query_class!r}] must be non-negative, got {limit}"
                )
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError(
                f"default_timeout_s must be positive, got {self.default_timeout_s}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be positive, got {self.breaker_threshold}"
            )
        if self.breaker_recovery_s <= 0:
            raise ValueError(
                f"breaker_recovery_s must be positive, got {self.breaker_recovery_s}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError(
                f"memory_budget_bytes must be positive, got {self.memory_budget_bytes}"
            )


@dataclass
class ServiceStats:
    """One typed observability surface for a :class:`QueryService`.

    Returned by :meth:`QueryService.stats`, the only stats method (the
    ``metrics()`` / ``latency_snapshot()`` / ``metrics_snapshot()`` aliases
    were removed in 1.7).  See :data:`SERVICE_STATS_SCHEMA` for the
    field contract (documented alongside
    :meth:`repro.db.engine.Engine.metadata_schema`, the result-metadata
    contract).
    """

    serving: Dict[str, int]
    plan_cache: Dict[str, float]
    stats_cache: Dict[str, float]
    sessions: Dict[str, Dict[str, float]]
    latency_ms: Dict[str, Dict[str, Optional[float]]]
    frontend: Dict[str, object]
    resilience: Dict[str, object] = field(default_factory=dict)
    storage: Dict[str, object] = field(default_factory=dict)
    udfs: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The whole snapshot as one plain dict (for JSON reports)."""
        return {
            "serving": dict(self.serving),
            "plan_cache": dict(self.plan_cache),
            "stats_cache": dict(self.stats_cache),
            "sessions": dict(self.sessions),
            "latency_ms": dict(self.latency_ms),
            "frontend": dict(self.frontend),
            "resilience": dict(self.resilience),
            "storage": dict(self.storage),
            "udfs": dict(self.udfs),
        }

    def flat(self) -> Dict[str, Union[int, float]]:
        """Every finite numeric leaf, keyed ``<section>_<path>_<leaf>``.

        The shape :func:`repro.obs.export.prometheus_text` renders:
        ``prometheus_text({"repro_service": service.stats().flat()})``
        exports one service's counters, cache statistics, latency
        quantiles, sessions, breaker, storage and UDF counts as
        ``repro_service_*`` Prometheus lines.
        """
        leaves: Dict[str, Union[int, float]] = {}

        def walk(path: str, node: object) -> None:
            if isinstance(node, Mapping):
                for key, value in node.items():
                    walk(f"{path}_{key}", value)
            elif isinstance(node, (int, float)) and math.isfinite(node):
                leaves[path] = node

        for section, payload in self.to_dict().items():
            walk(section, payload)
        return leaves


#: Contract for :class:`ServiceStats` fields — the stats-side sibling of
#: :meth:`repro.db.engine.Engine.metadata_schema`.
SERVICE_STATS_SCHEMA: Dict[str, str] = {
    "serving": (
        "monotonic request counters: queries, exact_queries, plan_hits/"
        "misses/refreshes, pipeline_runs, solver_calls, degraded_plans, "
        "rejected, flight_waits (times a synchronous request parked behind a "
        "signature's flight leader), fallbacks, trace_sink_errors, shed "
        "(async admission rejections), coalesced (requests answered from a "
        "coalesced leader's result without executing), deadline_exceeded "
        "(requests cancelled by their deadline), degraded (requests the "
        "process executor ran in-process at least once, for any fallback "
        "reason: breaker_open, unpicklable_udf, unshareable_column, "
        "label_column_missing, segment_map, segment_write, worker_hang or a "
        "span the pool failed twice; metadata['degraded'] names the first), "
        "retried_spans "
        "(process-pool spans retried after a transient fault), "
        "plan_restored (requests served from a plan-cache entry restored "
        "from durable storage), pressure_shed (async admissions shed under "
        "critical memory pressure), pressure_cache_clears (cache sheds "
        "triggered by the residency watermark)"
    ),
    "plan_cache": "LRUCache.snapshot() of the plan cache (hits, misses, size, ...)",
    "stats_cache": "LRUCache.snapshot() of the statistics cache",
    "sessions": "per-client SessionManager.snapshot(): budget, spent, admitted, ...",
    "latency_ms": (
        "per-path latency summaries {count, mean_ms, p50_ms, p95_ms, p99_ms, "
        "max_ms}; paths: all, exact, strategy, hit, miss, refresh, restored, "
        "error, coalesced"
    ),
    "frontend": (
        "async front-end state: pending per query class, class_limits, "
        "max_pending, max_concurrency, open_flights (signatures being planned "
        "right now, by either front-end: the size of the one flight table), "
        "ticks (pool tasks that carried the live hits of one event-loop "
        "iteration) and tick_requests (the requests in them) - their ratio is "
        "the mean number of submit_async hits sharing one pool task and one "
        "loop wake-up; requests that dispatch alone are in neither"
    ),
    "resilience": (
        "CircuitBreaker.snapshot(): state (closed/open/half_open), "
        "consecutive_failures, failures_total, successes_total, "
        "retried_spans, opened_count, probes_in_flight, failure_threshold, "
        "recovery_time_s, last_failure_reason; plus service_closed (bool, "
        "true once QueryService.close() has begun)"
    ),
    "storage": (
        "durability counters (empty dict when storage_dir is unset): the "
        "process-wide repro.db.storage counters — segments_written/"
        "segments_retained (segment files a checkpoint wrote/referenced "
        "as already durable), segments_loaded (validated+mapped), "
        "checksum_failures, quarantines, journal_replays/"
        "journal_records_replayed/journal_truncations, manifest_commits, "
        "rebuilds (rebuild-from-source recoveries), temp_files_cleaned — "
        "plus restore accounting for this service: restored_plans, "
        "restored_stats_entries, restored_group_indexes, restored_udf_memos, "
        "restore_errors, and warm_state_saved (saves written by this service); "
        "when memory_budget_bytes is set, a 'residency' sub-dict — "
        "ResidencyManager.snapshot(): budget_bytes, resident_bytes, "
        "peak_resident_bytes, mapped_segments, pinned_segments, "
        "pressure_level (ok/high/critical), maps, evictions, refaults, "
        "map_faults, evict_faults, map_seconds_total, tables_materialised, "
        "tables_degraded"
    ),
    "udfs": (
        "UserDefinedFunction.counter_snapshot() of every UDF registered in the "
        "service's catalog, by name: calls, cache_hits, cache_misses, "
        "cache_size, row_calls, bulk_calls"
    ),
}
