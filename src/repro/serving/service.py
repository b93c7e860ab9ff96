"""The concurrent query-serving front-end.

:class:`QueryService` accepts many (possibly concurrent) ``SelectQuery``
requests against one shared :class:`~repro.db.catalog.Catalog` and amortises
the expensive statistical work across them:

* **plan cache** — a repeated query signature skips column selection,
  labelling, sampling *and* the convex-program solve; only the (cheap,
  per-request-seeded) probabilistic execution runs.
* **statistics cache** — a new signature over an already-profiled
  ``(table, predicate)`` reuses the labelled sample and per-column sample
  outcomes, paying only the sampling shortfall before solving.
* **admission/sessions** — per-client UDF-cost budgets enforced through the
  ledger's hard budget, with a budget-constrained re-solve
  (:func:`~repro.core.extensions.budget.solve_budgeted_recall`) when a
  cached plan would overrun what the client can still afford.
* **batched execution** — warm plans execute on the vectorised
  :class:`~repro.core.executor.BatchExecutor` by default.

Thread safety: cache structures are individually locked, and N concurrent
requests for one cold (or stale) signature plan once through **one flight
table** — ``signature -> _Flight`` under one lock, shared by both
front-ends.  The first request to find a signature not live opens its
flight and leads: it re-checks the cache, solves, stores the plan and lands
the flight.  Everyone else waits for the landing — a synchronous caller in
deadline-checked 50 ms chunks, an asyncio follower on the event loop without
holding a pool thread — then re-reads the cache and runs *its own* warm
execution with no lock held (or leads the next flight if the leader
failed).  A flight is landed exactly once, by whoever opened it:
:meth:`QueryService.submit` lands the flights it opens empty,
:meth:`QueryService.submit_async` lands the ones it opens with the leader's
finished result, which is what bitwise-compatible followers share.  The
table's lock guards dictionary bookkeeping only, so distinct signatures never
wait on each other.  Each request carries its own seed and ledger, so a warm
service is deterministic per request regardless of thread interleaving.

Sharded catalogs are served transparently: a
:class:`~repro.db.sharding.ShardedTable` satisfies the full table contract,
the statistics cache keys per (table, shard-layout) generation, and the
``"process"`` executor backend fans execution across the shards in worker
processes over memory-mapped column files (the only backend that scales
python-callable UDFs past the GIL).

On top of the synchronous :meth:`QueryService.submit` there is an asyncio
front-end, :meth:`QueryService.submit_async`: admission control sheds
excess per-class load with a typed
:class:`~repro.serving.session.Overloaded` (never a silent drop), requests
execute on a bounded worker pool, and concurrent cold misses for one plan
signature **coalesce** — followers await the leader's planning/sampling
pass, and same-seed followers share its result outright.  There is one way
onto that pool and one way back (:meth:`QueryService._dispatch`,
:func:`_land`): the live hits one event-loop iteration brings travel as
**one** pool task and wake the loop **once** for all their results; every
other request is a task of its own through the same two routines.  A hit
that evaluates nothing fresh costs its coin pass; what made it cost ten times
that through ``submit_async`` was the hand-off — ``nproc`` pool threads plus
the loop thread runnable at once, the loop woken by each finished request in
the middle of the others' GIL-releasing NumPy calls (the same hits through
plain ``submit`` on 2 cores: 2 500–3 350 ops/s from one thread, 1 300–1 900
from two, 1 000 from four).  Configuration
lives in one :class:`~repro.serving.config.ServiceConfig` value; the
unified observability surface is :meth:`QueryService.stats`.

Data churn is served through a **refresh path**: appending rows to a
catalog table bumps its ``data_generation``, which marks warm plan entries
*refreshable* rather than dead — the next request for such a signature
tops up the cached statistics with delta-only UDF work (sticky correlated
column, reservoir-topped labelled sample, shortfall-only sampling) and
re-solves once, instead of re-planning cold.  Cold miss and refresh are one
code path, :meth:`QueryService._solve_and_execute`, differing only in where
the statistics handed to the pipeline come from.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, replace as _dc_replace
from functools import partial
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.core.column_selection import top_up_labeled_sample
from repro.core.constraints import CostModel, QueryConstraints
from repro.core.executor import BatchExecutor, ExecutorBackend
from repro.core.extensions.budget import solve_budgeted_recall
from repro.core.pipeline import IntelSample, _probe_bulk_evaluator, _udf_from_query
from repro.core.procpool import (
    ProcessPoolBatchExecutor,
    _discard_process_pool,
    default_max_workers,
)
from repro.db.catalog import Catalog
from repro.db.engine import Engine, QueryResult
from repro.db.query import SelectQuery
from repro.db.shm import release_exports
from repro.db.storage import CatalogStore
from repro.db.storage.store import storage_counters
from repro.db.table import Table
from repro.db.udf import CostLedger
from repro.obs.metrics import Histogram
from repro.obs.trace import Trace
from repro.obs.trace import span as _span
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.serving import persistence as _persistence
from repro.serving.config import ServiceConfig, ServiceStats
from repro.serving.plan_cache import PLAN_CACHE_VERSION, CachedPlan, PlanCache
from repro.serving.session import (
    ClientSession,
    Overloaded,
    ServiceClosed,
    SessionManager,
)
from repro.serving.stats_cache import StatisticsCache
from repro.serving.signature import plan_signature, statistics_key
from repro.stats.random import (
    RandomState,
    SeedLike,
    as_random_state,
    stable_hash_seed,
)


@dataclass
class _Flight:
    """One open single-flight: a signature being planned, and who waits on it.

    The first request to find a signature not live opens its flight and
    leads; later arrivals wait on ``future``.  Whoever opened a flight lands
    it, exactly once (:meth:`QueryService._finish_flight`).  A flight
    :meth:`~QueryService.submit` opened lands empty — the plan is in the
    cache, every waiter executes it itself.  A flight
    :meth:`~QueryService.submit_async` opened lands with its leader's
    finished result, and ``seed``/``audit``/``client_id`` say which
    followers that result is bitwise theirs to share (same seed and audit
    flag, both anonymous); the rest re-submit once the plan is warm.

    ``running`` says a thread is actually planning: true from the start for
    a flight ``submit`` opened, and for an async-opened one only once its
    leading ``submit`` has left the front-end pool's queue.  Nobody parks a
    thread behind a flight that is not running — the thread might be the
    very pool thread its leader is queued for.
    """

    signature: Hashable
    seed: object
    audit: bool
    client_id: Optional[str]
    future: "concurrent.futures.Future[Optional[QueryResult]]"
    running: bool = True


#: The flight :meth:`QueryService.submit_async` opened for the ``submit`` it
#: dispatched on this thread, which therefore leads it instead of joining.
_LED_FLIGHT: ContextVar[Optional[_Flight]] = ContextVar("repro_led_flight", default=None)

#: One admitted async request on its way through the front-end pool: the
#: closure that runs it and the event-loop future its awaiter holds.
_Queued = Tuple[Callable[[], QueryResult], "asyncio.Future[QueryResult]"]


#: What became of one queued request: ``(its awaiter's future, result, error)``.
_Outcome = Tuple["asyncio.Future[QueryResult]", Optional[QueryResult], Optional[BaseException]]


def _land(outcomes: Iterable[_Outcome]) -> None:
    """Resolve each awaiter's own future, on its loop's thread — the one landing.

    An outcome is ``(waiter, result, error)``.  An error reaches only its own
    awaiter; neither a result nor an error means the request never ran (its
    pool task was cancelled in the queue) and cancels the awaiter; an awaiter
    already done was cancelled mid-run, and its outcome is dropped.
    """
    for waiter, result, error in outcomes:
        if waiter.done():
            continue
        if error is not None:
            waiter.set_exception(error)
        elif result is not None:
            waiter.set_result(result)
        else:
            waiter.cancel()


def _call_on_loop(loop: asyncio.AbstractEventLoop, callback: Callable, *args) -> None:
    """``call_soon_threadsafe``, from a thread that may outlive the loop."""
    try:
        loop.call_soon_threadsafe(callback, *args)
    except RuntimeError:
        pass  # the loop closed meanwhile, and every awaiter went with it


#: Why the current request was served degraded (the process executor's first
#: fallback reason, e.g. ``"breaker_open"`` or ``"unpicklable_udf"``), or
#: ``None``.  Request-scoped:
#: :meth:`QueryService.submit` resets it on entry and folds it into result
#: metadata and the trace root on exit.
_DEGRADED: ContextVar[Optional[str]] = ContextVar("repro_degraded", default=None)


class QueryService:
    """Serves repeated approximate queries with statistics/plan caching.

    Parameters
    ----------
    catalog:
        The shared catalog, or an :class:`Engine` wrapping one.
    config:
        A :class:`~repro.serving.config.ServiceConfig` with everything else:
        executor backend (``"serial"``/``"process"``),
        cache bounds and TTL, session budgets, serving
        accounting, and the async front-end's admission limits.  Omitted =
        all defaults.
    strategy_factory:
        Maps a per-request :class:`RandomState` to a strategy instance; the
        default builds an :class:`IntelSample` wired to this service's
        executor backend.  The factory must produce identically-configured
        strategies — the configuration is part of every plan signature.
        A pipeline run (cold or refresh) executes on the strategy's own
        ``executor_factory``; a plan-cache hit executes on this service's
        backend.  Either way the service sets the accounting on the
        request's ledger, never on the strategy.
    sessions:
        Session manager for admission control; a default manager with
        ``config.default_budget`` is created when omitted.
    """

    def __init__(
        self,
        catalog: Union[Catalog, Engine],
        strategy_factory: Optional[Callable[[RandomState], object]] = None,
        *,
        config: Optional[ServiceConfig] = None,
        sessions: Optional[SessionManager] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.engine = catalog if isinstance(catalog, Engine) else Engine(catalog)
        self.catalog = self.engine.catalog
        self.executor_backend = self.config.executor
        self.max_workers = self.config.max_workers
        self.free_memoized = self.config.free_memoized
        self.plan_cache = PlanCache(
            max_size=self.config.plan_cache_size, ttl=self.config.ttl
        )
        self.stats_cache = StatisticsCache(
            max_size=self.config.stats_cache_size, ttl=self.config.ttl
        )
        self.sessions = sessions or SessionManager(
            default_budget=self.config.default_budget
        )
        self._strategy_factory = strategy_factory
        # A configured-but-unseeded instance whose settings fingerprint every
        # plan signature this service produces.  It lives as long as the
        # service, so the default one is not wired to ``_executor``: a
        # bound method kept here would make every service a reference cycle,
        # and a closed, dropped service would pin its catalog's tables until
        # a full collector pass.
        self._strategy_prototype = (
            IntelSample(random_state=as_random_state(0))
            if strategy_factory is None
            else strategy_factory(as_random_state(0))
        )
        self._metrics_lock = threading.Lock()
        self._metrics: Dict[str, int] = {
            "queries": 0,
            "exact_queries": 0,
            "plan_hits": 0,
            "plan_misses": 0,
            "plan_refreshes": 0,
            "pipeline_runs": 0,
            "solver_calls": 0,
            "degraded_plans": 0,
            "rejected": 0,
            "flight_waits": 0,
            "fallbacks": 0,
            "trace_sink_errors": 0,
            "shed": 0,
            "coalesced": 0,
            "deadline_exceeded": 0,
            "degraded": 0,
            "plan_restored": 0,
            "pressure_shed": 0,
            "pressure_cache_clears": 0,
        }
        # Per-path latency histograms (always on, so ``stats()`` can report
        # p50/p95/p99).
        self._latency_lock = threading.Lock()
        self._latency: Dict[str, Histogram] = {}
        # Per-query tracing is active only while a sink is installed.
        self._trace_sink: Optional[Callable[[Trace], None]] = None
        self._query_ids = itertools.count(1)
        # The one single-flight table (see ``_Flight``), shared by both
        # front-ends; its lock guards the dict, never a request's work.
        self._flights: Dict[Hashable, _Flight] = {}
        self._flights_lock = threading.Lock()
        # Async front-end: admission counters and the lazily created
        # bounded worker pool.
        self._frontend_lock = threading.Lock()
        self._frontend_pending: Dict[str, int] = {}
        self._frontend_executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        # What the current iteration of each running event loop has handed
        # ``submit_async`` to share one pool task (see ``_dispatch``); an
        # entry lives from a tick's first such request to its flush.
        self._ticks: Dict[asyncio.AbstractEventLoop, List[_Queued]] = {}
        self._tick_count = 0
        self._tick_requests = 0
        # Resilience: one breaker guards process-pool health for the whole
        # service; requests carry deadlines; close() drains in-flight work
        # under the condition below before tearing pools and exports down.
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            recovery_time_s=self.config.breaker_recovery_s,
        )
        self._closed = False
        self._inflight = 0
        self._drained = threading.Condition(threading.Lock())
        # Durable warm restart: with a storage_dir configured, restore
        # persisted warm state (plans, statistics, group indexes, UDF memos)
        # for tables whose shard signature matches their durable checkpoint.
        # Restore is best-effort — corrupt warm files are quarantined, stale
        # ones skipped, both counted; they only cost warmth, never construction.
        self._storage: Optional[CatalogStore] = None
        self._storage_counts: Dict[str, int] = {}
        self._warm_saves = 0
        if self.config.storage_dir is not None:
            self._storage = CatalogStore(self.config.storage_dir)
            self._storage_counts = _persistence.restore_warm_state(
                self, self._storage
            )
        # Bounded-memory serving: when the catalog's durable tables were
        # opened lazily (CatalogStore.open(residency=...)), adopt their
        # ResidencyManager — a configured budget overrides the manager's,
        # and watermark crossings degrade in order: caches first (high),
        # then new async admissions (critical, via Overloaded).
        self._residency = self._discover_residency()
        self._pressure_level = "ok"
        if self._residency is not None:
            if self.config.memory_budget_bytes is not None:
                self._residency.set_budget(self.config.memory_budget_bytes)
            self._residency.add_pressure_callback(self._on_memory_pressure)

    # -- construction helpers -----------------------------------------------------
    def strategy_factory(self, random_state: RandomState) -> object:
        """One request's strategy: the injected factory's, else the default."""
        if self._strategy_factory is not None:
            return self._strategy_factory(random_state)
        return IntelSample(random_state=random_state, executor_factory=self._executor)

    def _discover_residency(self):
        """The ResidencyManager behind this catalog's lazy tables, if any.

        Lazily opened tables of one catalog share one manager
        (:meth:`~repro.db.storage.CatalogStore.open` threads a single
        ``residency=`` through every table store), so the first hit is the
        catalog's manager.  Eagerly opened catalogs have none — the budget
        then has nothing to bound and the service behaves exactly as before.
        """
        for name in self.catalog.table_names():
            manager = getattr(self.catalog.table(name), "residency_manager", None)
            if manager is not None:
                return manager
        return None

    def _on_memory_pressure(self, level: str) -> None:
        """Edge-triggered residency watermark callback (degradation order).

        ``high`` (resident >= watermark * budget) sheds the plan/stats
        caches — the cheapest reclaimable state, and dropping them also
        releases cached column references that may be keeping evicted
        mappings alive.  ``critical`` (pins holding residency over budget)
        additionally sheds *new* async admissions in
        :meth:`_admit_frontend`; in-flight requests always run to
        completion.  Back at ``ok`` both degradations lift.
        """
        self._pressure_level = level
        if level in ("high", "critical"):
            self.clear_caches()
            self._count("pressure_cache_clears")

    def _note_degraded(self, reason: str) -> None:
        """Record that the current request runs degraded (once per request)."""
        if _DEGRADED.get() is None:
            _DEGRADED.set(reason)
            self._count("degraded")

    def _executor(self, random_state: RandomState) -> ExecutorBackend:
        """One request's executor for the configured backend.

        The accounting is not the executor's: it rides on the request's
        ledger (:attr:`~repro.db.udf.CostLedger.free_memoized`), which a
        cold run leaves at the paper's and hits and refreshes set to
        ``config.free_memoized``.  Construction is configuration only — it
        touches no breaker state, so the pipeline may build a throwaway
        executor just to bind its ``evaluate_rows``.
        The ``process`` executor asks the service's breaker itself, where it
        is about to use the pool: refused (repeated pool faults), it runs
        its spans inline — bitwise-identical results, just not multi-core —
        and reports ``"breaker_open"`` to :meth:`_note_degraded`, as it
        reports every other reason it falls back in-process; admitted as a
        half-open probe, it reports the probe's outcome back through the
        shared breaker.
        """
        if self.executor_backend == "serial":
            return BatchExecutor(random_state=random_state)
        return ProcessPoolBatchExecutor(
            random_state=random_state,
            max_workers=self.max_workers,
            breaker=self.breaker,
            on_degraded=self._note_degraded,
        )

    def _cost_model(self) -> CostModel:
        return CostModel(
            retrieval_cost=self.engine.retrieval_cost,
            evaluation_cost=self.engine.evaluation_cost,
        )

    def _count(self, metric: str, amount: int = 1) -> None:
        with self._metrics_lock:
            self._metrics[metric] += amount

    def latency_histogram(self, path: str) -> Histogram:
        """The (always-on) latency histogram for a request path.

        Paths: ``all`` (every request), ``exact``, ``strategy`` (named
        strategy bypass), ``hit``/``miss``/``refresh``/``restored``
        (plan-cache classification of approximate queries), ``coalesced``
        (async followers served from a leader's result) and ``error``.  Values are
        seconds; quantiles come out via :meth:`Histogram.quantile` /
        :meth:`stats` (``latency_ms``).
        """
        found = self._latency.get(path)
        if found is None:
            with self._latency_lock:
                found = self._latency.get(path)
                if found is None:
                    found = Histogram()
                    self._latency[path] = found
        return found

    def _record_latency(self, path: str, started: float) -> None:
        """Time one finished request into ``all`` and its own path."""
        elapsed = time.perf_counter() - started
        self.latency_histogram("all").observe(elapsed)
        self.latency_histogram(path).observe(elapsed)

    @classmethod
    def _latency_path(cls, query: SelectQuery, result: QueryResult) -> str:
        """A served request's path: its query class, split by ``plan_cache``."""
        query_class = cls._query_class(query)
        if query_class != "approximate":
            return query_class
        return result.metadata.get("plan_cache", "strategy")

    # -- submission ----------------------------------------------------------------
    def _resolve_deadline(
        self, timeout_s: Optional[float], deadline: Optional[Deadline]
    ) -> Optional[Deadline]:
        """This request's deadline: explicit object, timeout, or config default."""
        if deadline is not None:
            return deadline
        if timeout_s is not None:
            return Deadline.after(timeout_s)
        if self.config.default_timeout_s is not None:
            return Deadline.after(self.config.default_timeout_s)
        return None

    def _enter_request(self) -> None:
        with self._drained:
            if self._closed:
                raise ServiceClosed()
            self._inflight += 1

    def _exit_request(self) -> None:
        with self._drained:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.notify_all()

    def submit(
        self,
        query: SelectQuery,
        client_id: Optional[str] = None,
        seed: SeedLike = None,
        audit: bool = False,
        timeout_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryResult:
        """Answer one query, reusing cached statistics and plans when possible.

        ``seed`` controls all request-local randomness, making a warm
        service deterministic per request.  ``client_id`` routes the request
        through the admission layer; a client whose budget ran out gets an
        :class:`~repro.serving.session.AdmissionError` and a query that
        would overrun mid-flight is stopped by the ledger's hard budget.
        With ``audit=True`` the result carries ground-truth precision/recall.

        ``timeout_s`` (or a pre-built ``deadline``; or, failing both,
        ``config.default_timeout_s``) bounds the request: past the deadline
        the next cooperative cancellation point raises the typed
        :class:`~repro.resilience.deadline.DeadlineExceeded` — counted on
        ``deadline_exceeded`` — and no further UDF work is charged.  After
        :meth:`close` every call raises
        :class:`~repro.serving.session.ServiceClosed`.

        Every request is timed into the per-path latency histograms (see
        :meth:`stats`); while a trace sink is installed
        (:meth:`set_trace_sink`) the request also produces a
        :class:`~repro.obs.trace.Trace` span tree, finished and handed to
        the sink whether the request succeeds or raises.
        """
        self._enter_request()
        degraded_token = _DEGRADED.set(None)
        reason: Optional[str] = None
        sink = self._trace_sink
        trace: Optional[Trace] = None
        if sink is not None:
            trace = Trace("query", query_id=next(self._query_ids))
            trace.root.annotate("table", query.table)
            trace.activate()
        started = time.perf_counter()
        try:
            with deadline_scope(self._resolve_deadline(timeout_s, deadline)):
                result = self._submit(query, client_id, seed, audit)
        except BaseException as exc:
            if isinstance(exc, DeadlineExceeded):
                self._count("deadline_exceeded")
            self._record_latency("error", started)
            raise
        finally:
            reason = _DEGRADED.get()
            _DEGRADED.reset(degraded_token)
            if trace is not None:
                if reason is not None:
                    # Root annotations reach the slow-query log, so degraded
                    # requests record why they ran in-process.
                    trace.root.annotate("degraded", reason)
                trace.finish()
                try:
                    sink(trace)
                except Exception:
                    # A broken sink must never fail queries; it is counted
                    # so dashboards can notice the drop.
                    self._count("trace_sink_errors")
            self._exit_request()
        if reason is not None:
            result.metadata["degraded"] = reason
        self._record_latency(self._latency_path(query, result), started)
        return result

    # -- async front-end -------------------------------------------------------------
    async def submit_async(
        self,
        query: SelectQuery,
        client_id: Optional[str] = None,
        seed: SeedLike = None,
        audit: bool = False,
        timeout_s: Optional[float] = None,
    ) -> QueryResult:
        """Answer one query from an asyncio application without blocking it.

        Semantics are :meth:`submit` plus three front-end behaviours:

        * **admission** — each query class (``exact``/``strategy``/
          ``approximate``) has a pending-request limit
          (``config.class_limits``, default ``config.max_pending``); at the
          limit further arrivals are shed with a typed
          :class:`~repro.serving.session.Overloaded` and counted on the
          ``shed`` metric — never silently dropped.
        * **bounded execution** — admitted requests run on a worker pool of
          ``config.max_concurrency`` threads, so a burst cannot stampede
          the planner.  What one event-loop iteration brings of requests
          that will *execute a live plan on the calling thread with a
          column-gather UDF* (plan live at admission,
          ``udf.vectorised_on(table)``, backend not ``"process"``, no client
          budget) shares **one** pool task — run back to back in arrival
          order, each through its own :meth:`submit` — and their results
          land through **one** loop wake-up that resolves every awaiter's
          own future.  There is no timer and no batch size: one request in
          a tick is a task of one (plus one loop pass), and batches form
          exactly when requests queue.  What never shares: flight leaders,
          followers re-submitting after a landing, exact and
          named-strategy queries, budgeted clients, python-callable UDFs and
          the process backend — each a task of its own, since any of them
          may run long and would hold its tick-mates' answers.  The
          trade-off: a tick's first finisher waits for its tick-mates, and
          a tick runs on one thread however many the pool has.  Measured
          on 2 cores with closed-loop clients that re-submit at once (so a
          tick is every client): 16 clients on 2 pool threads p10 14.8 →
          6.7 ms, p50 17.3 → 7.5, p99 21.6 → 11.5, 930 → 2 090 ops/s; on
          the default 8 threads p10 9.5 → 6.8, p99 39 → 10.1, 780 → 2 100
          ops/s — no percentile rose at 2, 4, 16 or 48 clients; a lone
          client pays the extra loop pass (p50 ≈ +0.03 ms, throughput +3 %
          to −5 %, inside its noise).  Clients that think between requests
          form smaller ticks and gain less: with 0–1 ms of think time and
          ticks of ≈ 2, 4 clients still improved (p50 3.5 → 2.8 ms) and 16
          clients on 2 pool threads read flat — but 16 clients on **8**
          pool threads (four per core) read p90 30–34 → 43–51 ms and p99
          39–44 → 72–82 ms at unchanged throughput: eight threads contend
          for the lock as before, and now a batch's first finisher is held
          for its tick-mate.  Size ``max_concurrency`` to the cores.  An
          awaiter cancelled before its turn is skipped (not executed,
          nothing charged), one cancelled mid-run has its result dropped;
          an exception reaches only its own awaiter; :meth:`close` cancels
          the awaiters of a task still queued.
        * **coalescing** — concurrent cold misses for one plan signature
          merge: the first arrival leads and runs the full request, the
          rest await it.  A follower with the leader's seed and audit flag
          (both anonymous) shares the leader's result — bitwise identical
          row ids, zero extra UDF work, metadata ``coalesced: True``,
          counted on the ``coalesced`` metric.  Other followers (different
          seed, budgeted, or auditing) re-submit once the plan is warm,
          paying only warm-path execution — as does every follower of a
          flight a synchronous :meth:`submit` opened, which lands empty.
          Flights are opened here, on the event-loop thread, so a burst
          coalesces before the pool hop and a follower never holds a pool
          thread while it waits.

        ``timeout_s`` bounds the whole wait — the clock starts here, at
        admission, so time queued for the pool, behind tick-mates or parked
        behind a flight leader all counts: a request whose budget ran out in
        the queue raises :class:`DeadlineExceeded` at its first cooperative
        check, before any UDF work is charged; a follower whose deadline
        passes while the leader is still planning raises it instead of
        waiting on, and a bitwise-compatible follower of a leader that
        *itself* timed out receives the leader's typed error rather than
        re-running.
        """
        if self._closed:
            raise ServiceClosed()
        # The clock starts here, at admission: time queued for the pool, behind
        # tick-mates or behind a flight leader all counts against the budget.
        deadline = self._resolve_deadline(timeout_s, None)

        def run(led: Optional[_Flight]) -> QueryResult:
            # Leadership is set inside the callable because the pool hop does
            # not copy context.  ``seed`` stays an argument of ``submit``: the
            # benchmark tracer attributes pool-thread spans to operations
            # through it.
            token = _LED_FLIGHT.set(led)
            try:
                return self.submit(query, client_id, seed, audit, deadline=deadline)
            finally:
                _LED_FLIGHT.reset(token)

        query_class = self._query_class(query)
        self._admit_frontend(query_class)
        try:
            signature, live = self._coalesce_signature(query)
            if signature is None:
                return await self._dispatch(
                    partial(run, None), self._shares_tick(query, live, client_id)
                )
            flight, leader = self._join_flight(
                signature, seed, audit, client_id, running=False
            )
            if leader:
                try:
                    result = await self._dispatch(partial(run, flight))
                except BaseException as exc:
                    self._finish_flight(flight, error=exc)
                    raise
                self._finish_flight(flight, result)
                return result
            # Follower: wait for the flight to land — but never past this
            # request's own deadline.  A failed leader is normally not
            # propagated (the follower runs its own request, attributing any
            # repeat failure to itself); the exception is a leader killed by
            # its deadline, whose typed error a bitwise-compatible follower
            # shares exactly as it would have shared the result.
            started = time.perf_counter()
            shared: Optional[QueryResult] = None
            shared_error: Optional[Exception] = None
            try:
                # Shielded: a follower timing out (or cancelled) must not
                # cancel the *shared* flight future out from under its
                # leader and the other waiters.
                shared = await asyncio.wait_for(
                    asyncio.shield(asyncio.wrap_future(flight.future)),
                    timeout=None if deadline is None else max(deadline.remaining(), 0.0),
                )
            except asyncio.TimeoutError:
                self._count("deadline_exceeded")
                raise DeadlineExceeded(deadline.timeout_s, "flight-follower") from None
            except Exception as exc:  # noqa: BLE001 - classified below
                shared_error = exc
            compatible = (
                client_id is None
                and flight.client_id is None
                and audit == flight.audit
                and seed == flight.seed
            )
            if compatible and isinstance(shared_error, DeadlineExceeded):
                self._count("deadline_exceeded")
                raise shared_error
            if compatible and shared is not None:
                self._count("coalesced")
                self._record_latency("coalesced", started)
                return QueryResult(
                    row_ids=shared.row_ids,
                    ledger=shared.ledger,
                    quality=shared.quality,
                    metadata={**shared.metadata, "coalesced": True},
                )
            return await self._dispatch(partial(run, None))
        finally:
            self._release_frontend(query_class)

    # -- the one way onto the front-end pool, and the one way back ------------------
    def _dispatch(
        self, run: Callable[[], QueryResult], shares_tick: bool = False
    ) -> "asyncio.Future[QueryResult]":
        """Queue one admitted request for the front-end pool; its awaiter's future.

        A request that shares its tick joins the running loop's open batch —
        the first one of an event-loop iteration opens it and schedules
        :meth:`_flush_tick` with ``call_soon``, which the loop runs first
        thing in its next iteration, after every callback that was ready in
        this one has had its turn — so the batch is what one tick brought,
        with no timer and no size.  Any other request is a pool task of its
        own, submitted at once.  Tick state is per running loop and touched
        only on that loop's thread.
        """
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[QueryResult]" = loop.create_future()
        if not shares_tick:
            self._to_pool(loop, [(run, waiter)])
            return waiter
        tick = self._ticks.get(loop)
        if tick is None:
            tick = self._ticks[loop] = []
            loop.call_soon(self._flush_tick, loop)
        tick.append((run, waiter))
        return waiter

    def _flush_tick(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hand the pool what one event-loop iteration collected, as one task."""
        requests = self._ticks.pop(loop)
        with self._frontend_lock:
            self._tick_count += 1
            self._tick_requests += len(requests)
        self._to_pool(loop, requests)

    def _to_pool(self, loop: asyncio.AbstractEventLoop, requests: List[_Queued]) -> None:
        """One pool task for ``requests``; one loop wake-up for their results.

        The task runs them back to back in arrival order and lands every
        outcome through a single ``call_soon_threadsafe`` — one wake-up of
        the loop thread per task, not one per request, which is what keeps
        the loop from contending for the interpreter lock in the middle of
        its tick-mates' NumPy calls.  An awaiter cancelled before its turn
        is skipped: not executed, nothing charged.
        """

        def task() -> None:
            outcomes = []
            for run, waiter in requests:
                if waiter.cancelled():
                    continue
                try:
                    outcomes.append((waiter, run(), None))
                except BaseException as exc:  # noqa: BLE001 - handed to its awaiter
                    outcomes.append((waiter, None, exc))
            _call_on_loop(loop, _land, outcomes)

        def cancelled_in_queue(queued: "concurrent.futures.Future[None]") -> None:
            # close() shut the pool down with this task still queued
            # (``cancel_futures=True``): its awaiters must not stay pending.
            if queued.cancelled():
                _call_on_loop(loop, _land, [(w, None, None) for _run, w in requests])

        try:
            self._frontend_pool().submit(task).add_done_callback(cancelled_in_queue)
        except RuntimeError:
            # close() shut the pool down between admission and this hand-off.
            _land([(waiter, None, ServiceClosed()) for _run, waiter in requests])

    @staticmethod
    def _query_class(query: SelectQuery) -> str:
        """Admission class of a query: ``exact``, ``strategy`` or ``approximate``."""
        if query.is_exact:
            return "exact"
        if query.strategy is not None:
            return "strategy"
        return "approximate"

    def _admit_frontend(self, query_class: str) -> None:
        """Count a pending request in, or shed it with :class:`Overloaded`."""
        if self._pressure_level == "critical":
            # Memory pressure the evictor cannot relieve (pinned segments
            # hold residency over budget): the admission limit is
            # effectively zero until in-flight work unpins.
            with self._frontend_lock:
                pending = self._frontend_pending.get(query_class, 0)
            self._count("pressure_shed")
            self._count("shed")
            raise Overloaded(query_class, pending, 0)
        limit = self.config.class_limits.get(query_class, self.config.max_pending)
        with self._frontend_lock:
            pending = self._frontend_pending.get(query_class, 0)
            admitted = pending < limit
            if admitted:
                self._frontend_pending[query_class] = pending + 1
        if not admitted:
            self._count("shed")
            raise Overloaded(query_class, pending, limit)

    def _release_frontend(self, query_class: str) -> None:
        with self._frontend_lock:
            self._frontend_pending[query_class] = max(
                0, self._frontend_pending.get(query_class, 0) - 1
            )

    def _frontend_pool(self) -> concurrent.futures.ThreadPoolExecutor:
        """The lazily created bounded pool async requests execute on."""
        pool = self._frontend_executor
        if pool is None:
            with self._frontend_lock:
                pool = self._frontend_executor
                if pool is None:
                    pool = concurrent.futures.ThreadPoolExecutor(
                        max_workers=self.config.max_concurrency,
                        thread_name_prefix="repro-serve",
                    )
                    self._frontend_executor = pool
        return pool

    def _coalesce_signature(
        self, query: SelectQuery
    ) -> Tuple[Optional[Hashable], Optional[CachedPlan]]:
        """A request's coalescing key, or ``None`` and its live plan entry.

        Only approximate, unnamed-strategy queries whose plan signature is
        not already live coalesce — warm requests are cheap and independent,
        and merging them would serialise the very traffic the plan cache
        exists to parallelise.  A request that must not merge comes back
        with the live entry it will execute, if that is why.
        """
        if self._query_class(query) != "approximate" or not self.plan_cache.enabled:
            return None, None
        signature = plan_signature(query, self._cost_model(), self._strategy_prototype)
        entry, state = self._lookup_entry(signature, query, record=False)
        return (None, entry) if state == "live" else (signature, None)

    def _shares_tick(
        self, query: SelectQuery, live: Optional[CachedPlan], client_id: Optional[str]
    ) -> bool:
        """Whether a request may share a pool task with its tick-mates.

        Only what is known to be short and to run on the thread that calls
        :meth:`submit`: a live plan (no planning, no flight), a UDF whose
        evaluation is a column gather
        (:meth:`~repro.db.udf.UserDefinedFunction.vectorised_on` — a python
        callable may take any time per row), not the ``"process"`` backend (IPC, retries,
        breaker probes), and no client budget (a budgeted client queues on
        its execution lock and may re-solve to its allowance).  Everything
        else would make its tick-mates wait for work that is not theirs.
        """
        return (
            live is not None
            and self.executor_backend != "process"
            and (client_id is None or self.sessions.session(client_id).budget is None)
            and _udf_from_query(query).vectorised_on(live.working_table)
        )

    def _join_flight(
        self,
        signature: Hashable,
        seed: SeedLike = None,
        audit: bool = False,
        client_id: Optional[str] = None,
        running: bool = True,
    ) -> Tuple[_Flight, bool]:
        """Join the open flight for a signature, or open one and lead it.

        The leader's ``seed``/``audit``/``client_id`` matter only for a
        flight that lands with a result to share, i.e. one
        :meth:`submit_async` opens — with ``running=False``, because its
        leading ``submit`` is still queued for the front-end pool.
        """
        with self._flights_lock:
            found = self._flights.get(signature)
            if found is not None:
                return found, False
            flight = _Flight(
                signature, seed, audit, client_id, concurrent.futures.Future(), running
            )
            self._flights[signature] = flight
            return flight, True

    def _finish_flight(
        self,
        flight: _Flight,
        result: Optional[QueryResult] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Land a flight: unregister it, then wake everyone waiting on it.

        Called exactly once per flight, by whoever opened it.  Only an
        ``Exception`` is worth sharing; a leader that was cancelled or
        interrupted lands its flight empty, like a flight ``submit`` opened,
        and every waiter runs its own request.
        """
        with self._flights_lock:
            del self._flights[flight.signature]
        if isinstance(error, Exception):
            flight.future.set_exception(error)
        else:
            flight.future.set_result(result)

    @staticmethod
    def _await_flight(flight: _Flight) -> None:
        """Park until a flight lands, but never past the active deadline.

        A request parked behind a signature's flight leader must raise the
        typed ``DeadlineExceeded`` when its time runs out — not hang until
        the leader finishes.  The wait is chunked (50 ms) so injected test
        clocks are honoured too, not only real elapsed time.
        """
        deadline = current_deadline()
        while not flight.future.done():
            wait = None
            if deadline is not None:
                deadline.check("flight-wait")
                wait = min(max(deadline.remaining(), 0.0), 0.05)
            concurrent.futures.wait([flight.future], timeout=wait)

    def _submit(
        self,
        query: SelectQuery,
        client_id: Optional[str],
        seed: SeedLike,
        audit: bool,
    ) -> QueryResult:
        """The untimed, untraced body of :meth:`submit`."""
        self._count("queries")
        session: Optional[ClientSession] = None
        reservation: Optional[float] = None
        if client_id is not None:
            session = self.sessions.session(client_id)
        budgeted = session is not None and session.budget is not None

        # Budgeted clients execute one request at a time: admission and the
        # budget reservation then always see settled state, so a concurrent
        # arrival queues behind its sibling instead of being rejected (or
        # jointly overspending).  Unbudgeted clients run fully in parallel.
        if budgeted:
            session.execution_lock.acquire()
        try:
            if session is not None:
                try:
                    self.sessions.admit(client_id)
                except Exception:
                    self._count("rejected")
                    raise
                reservation = session.reserve()

            ledger = self.engine.new_ledger()
            if reservation is not None:
                ledger.set_budget(reservation)

            try:
                if query.is_exact:
                    self._count("exact_queries")
                    result = self.engine.execute_exact(query, ledger)
                else:
                    result = self._submit_approximate(query, ledger, seed, session)
            finally:
                if session is not None:
                    session.settle(ledger.total_cost, reservation)
        finally:
            if budgeted:
                session.execution_lock.release()

        if audit:
            result.quality = self.engine.audit(query, result)
        if session is not None:
            result.metadata["session"] = session.snapshot()
        return result

    def _submit_approximate(
        self,
        query: SelectQuery,
        ledger: CostLedger,
        seed: SeedLike,
        session: Optional[ClientSession],
    ) -> QueryResult:
        if query.strategy is not None:
            # Named strategies bypass the caches: resolve through the engine
            # (raising UnsupportedQueryError for unknown names) and run as-is.
            strategy = self.engine.resolve_strategy(query.strategy, None)
            table = self.catalog.table(query.table)
            self._count("pipeline_runs")
            self._count("solver_calls")
            return strategy.run(table, query, ledger)

        with _span("plan-lookup"):
            signature = plan_signature(
                query, self._cost_model(), self._strategy_prototype
            )
            entry, state = self._lookup_entry(signature, query)
        if state == "live":
            self._count("plan_hits")
            return self._execute_cached(query, entry, ledger, seed, session, signature)

        if not self.plan_cache.enabled:
            self._count("plan_misses")
            return self._solve_and_execute(query, ledger, seed, signature, None)

        # Single-flight: concurrent cold (and refresh) requests for one
        # signature plan once.  ``leads`` is "this thread solves": it was
        # dispatched as the leader of the flight ``submit_async`` opened
        # (which lands it), or it opens a flight here and lands it below.
        # Waiting is countable (``flight_waits``) and a span in traces.
        led = _LED_FLIGHT.get()
        leads = led is not None and led.signature == signature
        if leads:
            led.running = True
        opened: Optional[_Flight] = None
        try:
            while True:
                if not leads:
                    flight, leads = self._join_flight(signature)
                    if leads:
                        opened = flight
                    elif flight.running:
                        self._count("flight_waits")
                        with _span("flight-wait"):
                            self._await_flight(flight)
                    else:
                        # Its leader is still queued for the front-end pool,
                        # perhaps behind this very thread: plan unshared.
                        leads = True
                # Re-check without recounting: the first lookup already
                # recorded this request's cache outcome; a request whose
                # plan a flight leader computed records its hit below.
                entry, state = self._lookup_entry(signature, query, record=False)
                if state == "live":
                    break
                if leads:
                    self._count(
                        "plan_refreshes" if state == "refresh" else "plan_misses"
                    )
                    return self._solve_and_execute(
                        query, ledger, seed, signature, entry
                    )
                # The leader failed (or the data moved on again): the next
                # round joins, or opens, the next flight.
        finally:
            if opened is not None:
                self._finish_flight(opened)
        # Warm from here on, with no flight held: N waiters execute at once.
        self.plan_cache.note_hit()
        self._count("plan_hits")
        return self._execute_cached(query, entry, ledger, seed, session, signature)

    def _lookup_entry(
        self, signature: Tuple, query: SelectQuery, record: bool = True
    ) -> Tuple[Optional[CachedPlan], str]:
        """Classify the cached plan for a signature: live, refreshable or dead.

        *Live* means the entry still refers to the catalog's current table
        object **at its current data generation** — re-registering a table
        under the same name invalidates by identity, and entries stamped
        with a different solver version are dead (a stale plan silently
        re-executing after a solver upgrade is the one failure mode this
        cache must never have).

        *Refresh* means the table object matches but its
        :attr:`~repro.db.table.Table.data_generation` moved on (rows were
        appended): row ids are append-only stable, so the entry's
        statistics are exact for its first ``table_rows`` rows and the
        service updates them through the delta path instead of re-planning
        cold.  Virtual-column plans are not refreshable — their derived
        working table does not grow with the base — and fall back to a cold
        miss.

        Hit/miss statistics are recorded only after the liveness checks, so
        a dead or refreshable entry counts as the miss it behaves as and the
        reported hit rate counts only what was served warm (pinned by
        ``tests/serving/test_service.py::TestPlanCaching``).
        """
        table = self.catalog.table(query.table)
        entry = self.plan_cache.get(signature, record=False)
        state = "miss"
        if (
            entry is not None
            and entry.solver_version == PLAN_CACHE_VERSION
            and entry.base_table is table
        ):
            if entry.data_generation == table.data_generation:
                state = "live"
            elif (
                not entry.used_virtual_column
                and entry.table_rows <= table.num_rows
            ):
                state = "refresh"
        if record:
            if state == "live":
                self.plan_cache.note_hit()
            else:
                self.plan_cache.note_miss()
        return (entry if state != "miss" else None), state

    # -- the one solve path (cold miss, or refresh of a stale entry) -----------------
    def _reservoir_seed(self, query: SelectQuery) -> int:
        """Deterministic coin-stream seed for the labelled-sample reservoir.

        Keyed on the (table, predicate) statistics identity, so successive
        refreshes of one statistic continue a single position-addressable
        stream — topping up after many small appends is bitwise identical
        to topping up after one big append.
        """
        return stable_hash_seed(
            statistics_key(self.catalog.table(query.table).name, query.predicate)
        )

    def _solve_and_execute(
        self,
        query: SelectQuery,
        ledger: CostLedger,
        seed: SeedLike,
        signature: Tuple,
        entry: Optional[CachedPlan],
    ) -> QueryResult:
        """One pipeline run, seeded with whatever statistics are already paid for.

        ``entry is None`` is the cold miss: the full pipeline, handed the
        statistics cache's labelled sample and per-column outcomes for this
        ``(table, predicate)`` where it has them.

        A stale-generation ``entry`` makes the same run a **refresh**.
        Instead of re-planning cold (full labelling + sampling, the 13x
        penalty the cold benchmarks measure) it reuses everything the
        previous generation paid for — the only differences are data:

        * the **correlated column is sticky** — column selection is skipped
          entirely (small deltas do not change which column correlates);
        * the cached labelled sample gets a reservoir **top-up** charging
          UDF evaluations only for newly admitted delta rows;
        * the cached per-column sample outcome counts toward the sampling
          allocation, so only the delta-driven shortfall is drawn fresh
          (group sizes are read from the grown index, never stored);
        * serving accounting applies to the execution step, and the run is
          not a ``pipeline_runs`` — one solver call re-optimises the plan
          against the merged evidence.

        Either way the statistics and plan the run produced replace what
        was cached under their keys, at the table's current generation.
        """
        table = self.catalog.table(query.table)
        udf = _udf_from_query(query)
        constraints = QueryConstraints(alpha=query.alpha, beta=query.beta, rho=query.rho)
        strategy = self.strategy_factory(as_random_state(seed))
        cached_labeled = None
        cached_outcomes: Dict[str, object] = {}
        if entry is None:
            column, label = query.correlated_column, "miss"
            if self.stats_cache.enabled:
                cached_labeled = self.stats_cache.get_labeled(table, query.predicate)
                cached_outcomes = self.stats_cache.outcomes_for(
                    table,
                    query.predicate,
                    tuple(c.name for c in table.schema.categorical_columns()),
                )
            self._count("pipeline_runs")
        else:
            column, label = entry.column, "refresh"
            # A refresh is warm-path traffic: serving accounting applies, so
            # the execution step never re-charges evaluations the UDF already
            # memoised — the ledger then reads delta-proportional.
            ledger.free_memoized = self.free_memoized
            if self.stats_cache.enabled:
                # The delta top-up is the refresh path's own UDF spend (the rest
                # happens inside the pipeline's spans), so it gets a ledger-diffed
                # span of its own.
                with _span("refresh", ledger=ledger):
                    stale = self.stats_cache.stale_labeled(table, query.predicate)
                    if stale is not None:
                        cached_labeled, covered_rows = stale
                        if covered_rows < table.num_rows:
                            cached_labeled = top_up_labeled_sample(
                                table,
                                udf,
                                ledger,
                                cached_labeled,
                                previous_rows=covered_rows,
                                fraction=getattr(
                                    self._strategy_prototype,
                                    "column_sample_fraction",
                                    0.01,
                                ),
                                stream_seed=self._reservoir_seed(query),
                                # Fan the delta labelling across shards when the
                                # backend is parallel — same hook the cold
                                # pipeline's labelling uses (row selection is
                                # counter-based, so the fan never changes the
                                # sample).
                                bulk_evaluator=_probe_bulk_evaluator(
                                    self._executor, udf
                                ),
                            )
                    stale_outcome = self.stats_cache.stale_outcome(
                        table, query.predicate, column
                    )
                    if stale_outcome is not None:
                        cached_outcomes[column] = stale_outcome[0]
            if not cached_outcomes and entry.sample_outcome is not None:
                # The stats cache may have evicted (or be disabled); the plan
                # entry itself still carries the paid-for outcome.
                cached_outcomes[column] = entry.sample_outcome

        self._count("solver_calls")
        result = strategy.answer(
            table,
            udf,
            constraints,
            ledger,
            correlated_column=column,
            cached_labeled=cached_labeled,
            cached_outcomes=cached_outcomes or None,
        )

        report = result.metadata.get("report")
        if report is not None:
            if report.used_fallback:
                self._count("fallbacks")
            self._store(signature, table, query, report)
        result.metadata["plan_cache"] = label
        result.metadata["stats_cache"] = {
            "labeled_hit": cached_labeled is not None,
            "outcome_hits": sorted(cached_outcomes),
        }
        return result

    def _store(self, signature: Tuple, table: Table, query: SelectQuery, report) -> None:
        """Persist the statistics and plan produced by a pipeline run."""
        working_table = getattr(report, "working_table", None)
        outcome = getattr(report, "sample_outcome", None)
        labeled = getattr(report, "labeled", None)
        if working_table is None or report.plan is None:
            return
        if self.stats_cache.enabled:
            if labeled is not None:
                self.stats_cache.put_labeled(table, query.predicate, labeled)
            # Virtual columns live on a derived table whose bucketing depends
            # on the training sample; their outcomes are only reusable through
            # the plan entry, not across signatures.
            if outcome is not None and not report.used_virtual_column:
                self.stats_cache.put_outcome(
                    table, query.predicate, report.correlated_column, outcome
                )
        expected_execution = report.plan.expected_cost(
            report.model, self._cost_model(), include_sampling=False
        )
        self.plan_cache.put(
            signature,
            CachedPlan(
                column=report.correlated_column,
                plan=report.plan,
                model=report.model,
                sample_outcome=outcome,
                working_table=working_table,
                base_table=table,
                expected_execution_cost=expected_execution,
                used_virtual_column=report.used_virtual_column,
                used_fallback=report.used_fallback,
                data_generation=table.data_generation,
                table_rows=table.num_rows,
            ),
        )

    # -- warm path ------------------------------------------------------------------
    def _execute_cached(
        self,
        query: SelectQuery,
        entry: CachedPlan,
        ledger: CostLedger,
        seed: SeedLike,
        session: Optional[ClientSession],
        signature: Tuple,
    ) -> QueryResult:
        """Execute a cached plan: no labelling, no sampling, no solver."""
        udf = _udf_from_query(query)
        udf_counters_before = udf.counter_snapshot()
        index = self.stats_cache.get_index(entry.working_table, entry.column)

        # A restored entry (loaded from durable storage, not solved here)
        # reports its first hit as ``plan_cache: "restored"`` — the
        # warm-restart win stays observable — then rejoins steady-state
        # accounting as an ordinary hit.
        restored = entry.restored
        if restored:
            self.plan_cache.put(signature, _dc_replace(entry, restored=False))
            self._count("plan_restored")

        plan = entry.plan
        degraded = False
        allowance = ledger.budget
        if allowance is not None and entry.expected_execution_cost > allowance:
            # Budget-constrained degradation: maximise recall within this
            # request's granted allowance while keeping the precision bound.
            with _span("solve"):
                solution = solve_budgeted_recall(
                    entry.model,
                    precision_bound=query.alpha,
                    rho=query.rho,
                    budget=allowance,
                    cost_model=self._cost_model(),
                )
            plan = solution.plan
            degraded = True
            self._count("solver_calls")
            self._count("degraded_plans")
            if session is not None:
                session.degraded += 1

        ledger.free_memoized = self.free_memoized
        with _span("execute"):
            execution = self._executor(as_random_state(seed)).execute(
                entry.working_table,
                index,
                udf,
                plan,
                ledger,
                sample_outcome=entry.sample_outcome,
            )
        return QueryResult(
            row_ids=execution.returned_row_ids,
            ledger=ledger,
            metadata={
                "strategy": "intel_sample",
                "plan_cache": "restored" if restored else "hit",
                "degraded_to_budget": degraded,
                "correlated_column": entry.column,
                "used_virtual_column": entry.used_virtual_column,
                "evaluations": ledger.evaluated_count,
                "retrievals": ledger.retrieved_count,
                "udf_cache": udf.counter_delta(udf_counters_before),
            },
        )

    # -- lifecycle -----------------------------------------------------------------
    def save_warm_state(self) -> Dict[str, int]:
        """Checkpoint the catalog and persist the service's warm state.

        Writes every table's segments/manifest/journal through the
        configured :class:`~repro.db.storage.CatalogStore`, then each
        table's warm state (plan-cache entries, statistics reservoirs,
        group-index codes, UDF memos) stamped with its current shard
        signature.  Storage faults (including injected ones) propagate —
        this is the explicit durability call; :meth:`close` wraps it
        best-effort.  Returns what was captured.
        """
        if self._storage is None:
            raise ValueError(
                "no storage configured; pass ServiceConfig(storage_dir=...)"
            )
        counts = _persistence.save_warm_state(self, self._storage)
        self._warm_saves += 1
        return counts

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain in-flight requests, then tear down deterministically.

        The moment close begins, new :meth:`submit`/:meth:`submit_async`
        calls raise the typed :class:`~repro.serving.session.ServiceClosed`;
        requests already executing drain to completion (bounded by
        ``timeout`` seconds, ``None`` = wait for all of them).  Teardown
        then shuts the async front-end pool down, discards the shared
        process pool (when this service used one) and releases every
        exported column file of this catalog's tables — after close,
        :func:`repro.db.shm.exported_segment_count` owes nothing to this
        service.  Idempotent: a second close is a cheap no-op re-running
        only the (already empty) teardown.  Also the context-manager exit.
        """
        with self._drained:
            already = self._closed
            self._closed = True
            if not already:
                expires = None if timeout is None else time.monotonic() + timeout
                while self._inflight > 0:
                    remaining = (
                        None if expires is None else expires - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        break
                    self._drained.wait(timeout=remaining)
            drained = self._inflight == 0
        if not already and self._storage is not None:
            # Best-effort durability on shutdown: a failing disk must not
            # turn close() into a crash — explicit save_warm_state() is the
            # call that propagates storage faults.
            try:
                self.save_warm_state()
            except Exception:
                pass
        pool = self._frontend_executor
        self._frontend_executor = None
        if pool is not None:
            # Undrained (timed-out) closes must not block forever on a
            # wedged request thread; drained closes join cleanly.
            pool.shutdown(wait=drained, cancel_futures=True)
        if self.executor_backend == "process":
            workers = (
                default_max_workers() if self.max_workers is None else self.max_workers
            )
            _discard_process_pool(workers)
        for name in self.catalog.table_names():
            release_exports(self.catalog.table(name))
        if self._residency is not None:
            # Nothing is in flight any more, so nothing should be pinned:
            # drop every mapping this service's tables hold.  The leak gate
            # (tests/leakcheck.py) asserts this leaves zero resident bytes.
            self._residency.evict_all()
            # A closed service sheds nothing: stop the manager calling it
            # (and referring to it — the callback would otherwise tie the
            # service, its caches and its tables into a reference cycle).
            self._residency.remove_pressure_callback(self._on_memory_pressure)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def stats(self) -> ServiceStats:
        """The unified observability surface: one typed snapshot of everything.

        Bundles the serving counters, both cache snapshots, per-client
        session accounting, per-path latency summaries, the async
        front-end's admission state, the breaker, storage and residency
        counters and the catalog's UDF counters.  Field contract:
        :data:`repro.serving.config.SERVICE_STATS_SCHEMA` (the stats-side
        sibling of :meth:`repro.db.engine.Engine.metadata_schema`).
        """
        with self._metrics_lock:
            counters = dict(self._metrics)
        counters["retried_spans"] = self.breaker.retries_total
        with self._frontend_lock:
            pending = dict(self._frontend_pending)
            ticks, tick_requests = self._tick_count, self._tick_requests
        with self._flights_lock:
            open_flights = len(self._flights)
        resilience = self.breaker.snapshot()
        resilience["service_closed"] = self._closed
        storage: Dict[str, object] = {}
        if self._storage is not None:
            storage = dict(storage_counters())
            storage.update(self._storage_counts)
            storage["warm_state_saved"] = self._warm_saves
        if self._residency is not None:
            storage["residency"] = self._residency.snapshot()
        return ServiceStats(
            serving=counters,
            plan_cache=self.plan_cache.snapshot(),
            stats_cache=self.stats_cache.snapshot(),
            sessions=self.sessions.snapshot(),
            latency_ms=self._latency_snapshot(),
            frontend={
                "pending": pending,
                "max_pending": self.config.max_pending,
                "class_limits": dict(self.config.class_limits),
                "max_concurrency": self.config.max_concurrency,
                "open_flights": open_flights,
                "ticks": ticks,
                "tick_requests": tick_requests,
            },
            resilience=resilience,
            storage=storage,
            udfs={udf.name: udf.counter_snapshot() for udf in self.catalog.udfs},
        )

    def _latency_snapshot(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-path latency summaries in **milliseconds**.

        Each path maps to ``{count, mean_ms, p50_ms, p95_ms, p99_ms,
        max_ms}``; quantiles are ``None`` for paths that served nothing.
        Always available.
        """
        with self._latency_lock:
            histograms = dict(self._latency)
        summary: Dict[str, Dict[str, Optional[float]]] = {}
        for path, hist in sorted(histograms.items()):
            scale = lambda v: None if v is None else v * 1000.0  # noqa: E731
            snap = hist.snapshot()
            summary[path] = {
                "count": snap["count"],
                "mean_ms": scale(hist.mean),
                "p50_ms": scale(snap["p50"]),
                "p95_ms": scale(snap["p95"]),
                "p99_ms": scale(snap["p99"]),
                "max_ms": scale(snap["max"]),
            }
        return summary

    def set_trace_sink(self, sink: Optional[Callable[[Trace], None]]) -> None:
        """Install (or with ``None`` remove) the per-query trace sink.

        While a sink is installed every :meth:`submit` call builds a
        :class:`~repro.obs.trace.Trace` and hands the finished trace to the
        sink — see :class:`~repro.obs.export.CollectingTraceSink`,
        :class:`~repro.obs.export.JsonLinesTraceSink` and
        :class:`~repro.obs.export.SlowQueryLog`.  Sink exceptions are
        swallowed (counted as ``trace_sink_errors``), never surfaced to
        query callers.  With no sink installed tracing costs nothing.
        """
        self._trace_sink = sink

    def clear_caches(self) -> None:
        """Drop every cached plan and statistic (sessions are kept)."""
        self.plan_cache.clear()
        self.stats_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryService(tables={self.catalog.table_names()}, "
            f"executor={self.executor_backend!r}, plans={len(self.plan_cache)})"
        )
