"""repro — a reproduction of "Exploiting Correlations for Expensive Predicate Evaluation".

The library answers selection queries with expensive boolean UDF predicates
approximately: the user specifies precision/recall lower bounds and a
satisfaction probability, and the optimizer exploits the correlation between a
categorical attribute and the UDF outcome to skip most UDF calls.

Quickstart::

    from repro import (
        CostLedger, IntelSample, QueryConstraints, load_dataset,
    )

    dataset = load_dataset("lending_club", random_state=0, scale=0.2)
    udf = dataset.make_udf()
    strategy = IntelSample(random_state=0)
    ledger = CostLedger(retrieval_cost=1.0, evaluation_cost=3.0)
    result = strategy.answer(
        dataset.table, udf, QueryConstraints(alpha=0.8, beta=0.8, rho=0.8), ledger
    )
    print(len(result.row_ids), "tuples returned for", ledger.evaluated_count, "UDF calls")

Serving repeated workloads
--------------------------

The one-shot pipeline above recomputes selectivity estimates, the chosen
correlated column and the solved plan on every call.  For repeated traffic
against a shared catalog, :mod:`repro.serving` amortises that work behind a
thread-safe :class:`~repro.serving.QueryService`:

* a **statistics cache** memoises labelled samples and per-column sampling
  outcomes per ``(table, predicate)``, with TTL + LRU eviction and hit/miss
  accounting, so new constraint combinations reuse paid-for UDF evidence;
* a **plan cache** keyed on a canonical query signature (reordered
  predicates hash equal) lets repeated queries skip column selection and
  the convex-program solve entirely;
* **sessions** enforce per-client UDF-cost budgets through the ledger's
  hard budget, degrading cached plans with the budget-constrained solver
  when a client cannot afford the full plan.

::

    from repro import Catalog, Engine, QueryService, SelectQuery, UdfPredicate

    catalog = Catalog()
    catalog.register_table(dataset.table)
    catalog.register_udf(udf)
    service = QueryService(Engine(catalog))
    query = SelectQuery(dataset.table.name, UdfPredicate(udf),
                        alpha=0.8, beta=0.8, rho=0.8)
    cold = service.submit(query, seed=0)   # plans, samples, solves
    warm = service.submit(query, seed=1)   # cache hit: execution only
    print(service.stats().plan_cache["hit_rate"])

Paid-for UDF outcomes live in the UDF's own memo — one byte per row in an
array indexed by row id (see :class:`~repro.db.UserDefinedFunction`) — so a
warm query's "already paid for?" check is one gather, whatever the memo's
size and however recently it was written.

``examples/serving_workload.py`` replays a 1000-query trace and prints the
cache hit rates; ``benchmarks/test_serving_throughput.py`` measures the
cold-versus-warm throughput gap.

Execution backends & performance
--------------------------------

The whole query path is *array-native by default*:

* :class:`~repro.core.BatchExecutor` is the default execution backend for
  :class:`IntelSample`, :class:`OptimalOracle`,
  :class:`AdaptiveIntelSample` and the serving layer — one NumPy pass and
  one bulk UDF call per group, over per-group candidate rows that are
  prepared once per (group index, sample outcome) and memoised on the index
  (the candidate frame, see :mod:`repro.core.executor`), so a plan-cache
  hit only flips coins and hands back their concatenation: every backend's
  answer (``QueryResult.row_ids``) is one read-only ``intp`` array,
  ``.tolist()`` away from python ints.  Execution is one kernel with two
  coin sources and three placements (see :mod:`repro.core.executor`): the
  same frame, the same charge rule (``evaluation_charge``) and the same
  fold (``fold_group``) serve this sequential-coin loop and the
  counter-coin span executors below, which place spans inline, on pool
  threads or in worker processes.  The tuple-at-a-time
  :class:`~repro.core.PlanExecutor` remains the paper-faithful reference:
  both sequential backends share one coin discipline (see
  :mod:`repro.core.executor`), so for a fixed seed they return *identical*
  row ids and ledger counts; differential property tests in
  ``tests/properties`` enforce this.  Pass
  ``IntelSample(executor_factory=lambda rng: PlanExecutor(random_state=rng))``
  to run on the reference backend (e.g. when auditing per-tuple charging
  order or budget-exhaustion behaviour mid-group).
* :class:`~repro.db.GroupIndex` factorises a column once into integer group
  codes plus read-only per-group row-id arrays, and
  :meth:`~repro.db.Table.group_index` caches one index per column on the
  table itself.  ``Engine``, the cold pipeline and ``QueryService`` all
  share these cached indexes — a warm (plan-cache hit) query reuses the
  exact index object the cold run built, and statistics such as
  column-selection label counts reduce to ``bincount`` over the codes.
* Sampling and labelling are batched: ``draw_labeled_sample`` and
  ``GroupSampler`` charge the ledger in bulk and evaluate through one
  ``UserDefinedFunction.evaluate_rows`` call (per-row UDF API calls on the
  cold path are pinned to zero by the benchmark gate).
* Planning is an array program as well: Convex Program 4.1 reaches SLSQP as
  one vector-valued constraint oracle (the Chebyshev-margined rows with
  their loop-invariant terms hoisted, above a coupling block built once —
  see :mod:`repro.solvers.convex`) and BiGreedy's warm start bisects its
  shadow-price breakpoints instead of walking them, bit for bit the plans
  the per-constraint closures and the linear sweep produced.

Interpreting the benchmark numbers (``benchmarks/BENCH_serving.json`` and
``BENCH_coldpath.json``): *cold* rows model first-sight traffic — no
statistics/plan caches, UDF memo reset per query — so their
queries/sec measure the vectorised end-to-end pipeline (sample, solve,
execute); *warm* rows measure the amortised serving path where only plan
execution runs.  The wall-clock-independent counters (``udf_evaluations``,
``solver_calls``, ``group_index_builds``, ``udf_bulk_calls`` /
``udf_row_calls``) are gated at ±15% in CI by
``benchmarks/compare_bench.py`` so neither the statistical work nor the
batched structure of the cold path can silently regress.

Sharding & parallelism
~~~~~~~~~~~~~~~~~~~~~~

Past a few tens of thousands of rows a single core becomes the ceiling, so
the engine scales *out* instead:

* **Shard layout** — :class:`~repro.db.ShardedTable` partitions rows into
  contiguous shards (each a plain :class:`Table` over its row range; global
  row ids are the concatenation order).  Build one with
  ``ShardedTable.from_columns(..., num_shards=8)`` (chunked ingestion — the
  schema is inferred once and columns are C-level-sliced per shard, never
  looped per row), ``ShardedTable.from_table`` for an existing table, or
  ``Catalog.shard_table(name, num_shards)`` to reshard in place.  Group
  indexes are built per shard — lazily, and in parallel when the table was
  given ``max_workers`` — and merged into a
  :class:`~repro.db.MergedGroupIndex` whose codes, row arrays and label
  counts are **exact** concatenations; property tests pin the merged index
  (and shard-merged ``SampleOutcome.merge_shards`` /
  ``SelectivityModel.merge_shards`` statistics — all counts, so merging is
  exact) equal to the unsharded equivalents, which is why
  :class:`IntelSample`, :class:`AdaptiveIntelSample` and
  :class:`OptimalOracle` run unchanged on sharded inputs.
* **RNG substream discipline** — the sharded
  :class:`~repro.core.ParallelBatchExecutor` cannot consume one sequential
  random stream (that would couple every coin to all earlier coins and make
  results depend on the partition).  Instead each group gets two
  counter-based SplitMix64 substreams (retrieval and evaluation coins),
  addressed by the tuple's *position* in the group's candidate list; any
  worker can generate any slice of any stream independently.  Results are
  therefore bitwise identical for every shard layout and every
  ``max_workers`` — the scale benchmark pins sharded-vs-unsharded
  ``udf_evaluations``/``solver_calls`` at ±0 — though seeds are not
  comparable with the sequential ``BatchExecutor`` discipline.  Row
  *selection* for sampling/labelling stays on the strategy's sequential
  stream; only the (deterministic) bulk UDF evaluations fan across shards.
* **When parallel beats serial** — the thread fan-out wins when the
  per-span NumPy kernels (block RNG, ufunc comparisons, sorts in index
  builds, bulk label reads) dominate, i.e. large tables (≳100k rows/query)
  on multi-core hosts: those kernels release the GIL, so thread workers
  genuinely overlap.  Per-row *python-callable* UDFs hold the GIL, so the
  thread executor never moves them onto pool threads (it decides from
  ``udf.vectorised_on(table)``; the spans then run inline, at serial
  speed) — that regime belongs to the
  ``"process"`` backend below.  On small tables or single cores the python
  orchestration dominates and ``BatchExecutor`` (or ``max_workers=1``, the
  documented serial fallback) is the right default — which is why
  ``"serial"`` remains the library-wide default and the parallel backends
  are opt-in via
  ``QueryService(config=ServiceConfig(executor="thread", max_workers=...))``
  or ``IntelSample(executor_factory=lambda rng: ParallelBatchExecutor(rng))``.
  ``benchmarks/BENCH_scale.json`` tracks a 1M-row point: q/s for serial vs
  the thread and process pools on both the label-column and
  python-callable workloads, plus the exact work-counter parity, gated in
  CI.

Serving under load
~~~~~~~~~~~~~~~~~~

:mod:`repro.serving` scales past the GIL and past one caller at a time:

* **Process-pool execution** —
  ``ServiceConfig(executor="process", max_workers=W)`` (or a standalone
  :class:`~repro.core.ProcessPoolBatchExecutor`) fans span work across a
  spawn process pool.  Sealed shards export their columns once into
  ``multiprocessing.shared_memory`` blocks (:mod:`repro.db.shm`;
  ``release_exports()`` frees them); workers attach zero-copy NumPy views
  and ship back compact per-span outcome deltas, and the parent folds those
  deltas into the ledger *replaying serial charging order*, so results and
  counters are bitwise identical to serial — budget exhaustion included.
  UDFs travel as pickled :meth:`~repro.db.UserDefinedFunction.worker_spec`
  payloads; unpicklable UDFs, unshareable (object-dtype) columns and broken
  pools fall back to the thread path with identical results, counted on
  ``repro_executor_fallbacks_total``.  Strategies accept the injected
  backend through the explicit :class:`~repro.core.ExecutorAware` protocol.
* **Async front-end** — :meth:`QueryService.submit_async` serves concurrent
  callers on a bounded internal pool with per-class admission limits
  (``ServiceConfig(max_concurrency=..., max_pending=...,
  class_limits={"approximate": ...})``).  Over-limit requests are *shed*:
  they raise a typed :class:`~repro.serving.Overloaded` and increment the
  ``shed`` counter — never a silent drop, and the traffic benchmark gates
  the raise-vs-count delta at exactly zero.  Identical cold anonymous
  requests (same signature, same seed, no audit) *coalesce* onto the
  leader's in-flight execution: followers share the leader's bitwise result
  (``metadata["coalesced"]``) and charge zero extra UDF work.
* **One config, one stats surface** — :class:`~repro.serving.ServiceConfig`
  is the single constructor knob, executors are named
  ``"serial"`` / ``"thread"`` / ``"process"`` / ``"reference"``, and
  :meth:`QueryService.stats` returns one typed
  :class:`~repro.serving.ServiceStats` snapshot (schema in
  ``repro.serving.config.SERVICE_STATS_SCHEMA``, the stats-side sibling of
  :func:`~repro.db.metadata_schema`).  Migrating from before 1.3: the
  shims that release promised "for one release" were removed in 1.7 — the
  loose ``QueryService`` keywords ``plan_cache_size``,
  ``stats_cache_size``, ``ttl``, ``executor``, ``default_budget``,
  ``free_memoized`` and ``max_workers`` (now a ``TypeError``; pass
  ``config=ServiceConfig(...)``), the legacy executor names ``"batch"`` /
  ``"parallel"`` / old ``"serial"`` (spell them ``"serial"`` /
  ``"thread"`` / ``"reference"``; ``repro.serving.config.LEGACY_EXECUTORS``
  is gone with them), and the stats aliases ``metrics()`` /
  ``metrics_snapshot()`` / ``latency_snapshot()`` (read
  ``stats().serving`` / ``.plan_cache`` / ``.stats_cache`` /
  ``.latency_ms`` / ``.registry``).

``benchmarks/BENCH_traffic.json`` replays 1200 concurrent zipfian clients
through ``submit_async`` and commits the deterministic work counters and
the shedding audit, gated via ``compare_bench.py --profile traffic``;
``examples/serving_workload.py --async --clients 1000`` demonstrates the
same path interactively.

Update workloads
~~~~~~~~~~~~~~~~

Tables are append-only mutable: :meth:`Table.append_rows` /
:meth:`Table.append_columns` add rows at the end (existing row ids never
move) and every derived structure is **delta-maintained** — the work of
absorbing an append is proportional to the delta, not the table:

* **storage** — on a :class:`ShardedTable` appends flow into a *mutable
  tail shard* that is sealed and re-chunked once it exceeds
  ``tail_shard_rows``; sealed shards are never rewritten.  Cached column
  arrays extend by concatenation, and cached group indexes are replaced by
  :meth:`~repro.db.GroupIndex.extended_by` copies that factorise *only the
  appended rows* and merge them against the existing code table (property
  tests pin the extension equal to a from-scratch rebuild, for
  ``GroupIndex`` and ``MergedGroupIndex`` alike).  Each append bumps the
  table's monotonic ``data_generation``, folded into ``shard_signature()``.
* **statistics** — per-shard merge machinery
  (``SampleOutcome.merge_shards`` / ``SelectivityModel.merge_shards``)
  doubles as the delta path: a delta is just one more disjoint row range,
  so group sizes add and cached evidence stays exact for the rows it
  covered.  The cached labelled sample is topped up by a *reservoir*
  (:func:`~repro.core.column_selection.top_up_labeled_sample`) whose
  admission/eviction coins are counter-based SplitMix64 streams addressed
  by row position — many small appends produce bitwise the same sample as
  one big append — and UDF evaluations are charged only for newly admitted
  delta rows.
* **serving** — ``QueryService`` detects a generation bump on a warm plan
  entry and *refreshes* it in place instead of re-planning cold: the
  correlated column is sticky, the labelled sample is reservoir-topped-up,
  the cached sample outcome absorbs only the delta-driven sampling
  shortfall, and one solver call re-optimises the plan.  The refresh
  executes with serving accounting (memoised rows are free), so its ledger
  reads delta-proportional; ``stats().serving["plan_refreshes"]`` and the
  ``refreshes`` counters on the statistics caches make the behaviour
  observable.  Appends are single-writer: quiesce queries against a table
  while appending (e.g. between batches, as
  ``examples/serving_workload.py --churn`` does).

``benchmarks/test_update_workload.py`` appends 1% to a warm 1M-row table
and records refresh-vs-cold-rebuild throughput and the delta-only UDF
evaluation counts in ``BENCH_update.json``, gated in CI via
``compare_bench.py --profile update``.

Observability
-------------

:mod:`repro.obs` makes the whole stack inspectable without changing what it
computes:

* **Metrics** — a process-global, lock-striped
  :class:`~repro.obs.MetricsRegistry` of labelled counters, gauges and
  histograms.  Disabled by default (the null registry makes every
  instrumentation site a single attribute check); switch it on with
  :func:`repro.obs.enable_metrics`.  While enabled, UDF row/bulk/memo
  traffic, group-index builds and extensions, cache hits/misses/refreshes,
  solver calls, executor runs, table appends, engine fallbacks and every
  serving counter mirror into one registry, exported via
  :func:`repro.obs.prometheus_text` or ``QueryService.stats().registry``.
  The work counters the benchmarks gate are *bitwise identical* with
  metrics on or off — the registry observes, it never participates.
* **Tracing** — per-query :class:`~repro.obs.Trace` trees.  Install a sink
  with ``QueryService.set_trace_sink(...)`` and every ``submit`` produces a
  span tree (plan-lookup → sampling → solve → execute → per-shard
  ``shard:<i>`` spans under :class:`ParallelBatchExecutor`) annotated with
  wall time and exact work deltas: the per-span ``udf_evals`` sum equals
  the query ledger's ``evaluated_count``, even across worker threads
  (propagation uses ``contextvars``).  Sinks:
  :class:`~repro.obs.CollectingTraceSink` (in memory),
  :class:`~repro.obs.JsonLinesTraceSink` (file/stream) and
  :class:`~repro.obs.SlowQueryLog` (threshold-filtered, slowest-first).
* **Latency** — ``QueryService`` always records per-path latency
  histograms (cheap fixed buckets; ``hit``/``miss``/``refresh``/``exact``/
  ``error``) with exact p50/p95/p99 over the recorded samples, surfaced by
  ``QueryService.stats().latency_ms`` and — as informational
  ``latency_p50_ms``/``latency_p99_ms`` keys, never gated — in
  ``benchmarks/BENCH_serving.json``.  ``examples/serving_workload.py
  --metrics`` prints the registry snapshot and the slowest trace tree after
  a run; ``benchmarks/test_obs_overhead.py`` pins the enabled-path overhead
  on the warm serving path.

Resilience & degradation
------------------------

:mod:`repro.resilience` bounds every request in time and keeps the service
answering — degraded, never wedged — when the process pool misbehaves:

* **Deadlines** — ``ServiceConfig(default_timeout_s=...)`` (or a per-call
  ``submit(..., timeout_s=...)`` override) arms a per-request
  :class:`~repro.resilience.Deadline`, propagated through ``contextvars``
  to every executor thread and checked cooperatively at span, batch and
  solver boundaries.  Expiry raises a typed
  :class:`~repro.resilience.DeadlineExceeded` carrying the budget and the
  stage that tripped — and charges *nothing* past the expiry point: the
  deadline audit in ``benchmarks/test_traffic.py`` gates the
  raised-versus-counted delta at exactly zero.  Coalesced followers
  inherit the leader's typed error; a follower parked behind a slow
  leader honours its *own* deadline while waiting.  Standalone use:
  ``with deadline_scope(Deadline.after(0.5)): ...``.
* **Circuit breaker & retry** — a transient pool fault (worker crash,
  corrupt span payload, lost shared-memory segment) retries the span
  against a respawned pool, replaying charges exactly (the fold happens
  once, in serial order, so a retried span double-charges nothing —
  ``stats().resilience["retried_spans"]`` counts them).  Repeated faults
  trip a :class:`~repro.resilience.CircuitBreaker`
  (``breaker_threshold``/``breaker_recovery_s``): while OPEN the service
  degrades to the thread executor — identical answers, only slower —
  marking results with ``metadata["degraded"]`` and counting
  ``stats().serving["degraded"]``; after the recovery window a bounded
  number of HALF_OPEN probes decides re-close versus re-open, with every
  transition on ``repro_breaker_transitions_total``.
* **Deterministic fault injection** — :class:`~repro.resilience.FaultPlan`
  fires crash/hang/garbage/error/sleep faults at named sites
  (``worker``, ``shm_export``, ``shm_attach``, ``udf_eval``) addressed by
  counter-based SplitMix64 coins, so a failing chaos run replays
  bitwise from its seed.  ``tests/resilience`` (the CI ``chaos`` step)
  drives every scenario differentially against the serial baseline: each
  yields the bitwise-serial answer or a typed error inside the deadline,
  with exact ledger/counter parity and zero leaked shared-memory
  segments.
* **Graceful shutdown** — :meth:`QueryService.close` (also
  ``with QueryService(...) as service:``) stops intake with a typed
  :class:`~repro.serving.ServiceClosed`, drains in-flight requests
  (bounded by ``close(timeout=...)``), then tears down executors and
  releases every shared-memory export; ``close`` is idempotent and
  ``stats().resilience["service_closed"]`` records it.

Durability & recovery
---------------------

:mod:`repro.db.storage` makes a catalog survive a crash and makes the
restart *warm*:

* **Checksummed columnar segments** — sealed and tail shards persist one
  column per segment file (magic + JSON header + raw fixed-width payload)
  with a per-block CRC32 table; reopening validates every block and maps
  fixed-width columns back as read-only ``np.memmap`` arrays, so opening a
  1M-row table touches headers and checksums, not python lists.
* **Atomic manifest commit** — every write is temp-file → fsync → rename,
  and the versioned, CRC-enveloped ``MANIFEST.json`` (schema, layout,
  ``data_generation``, per-segment checksums) is written *last*: the
  manifest on disk always names a complete generation, so a crash
  mid-checkpoint leaves the previous generation fully intact.
* **Tail-append journal** — between checkpoints,
  :meth:`~repro.db.TableStore.append` journals each delta (length-prefixed,
  CRC'd, fsynced, stamped with the generation it produces) *before*
  applying it; :meth:`~repro.db.TableStore.open` replays the valid record
  prefix past the manifest generation through the ordinary append path,
  reproducing tail growth and sealing bitwise.
* **Typed quarantine & rebuild** — torn ``.tmp`` files are swept; corrupt
  artifacts raise :class:`~repro.db.CorruptSegmentError` /
  :class:`~repro.db.ManifestVersionError`, are moved to ``quarantine/``
  (never deleted) and degrade gracefully to a rebuild-from-source callable
  when one is supplied — every outcome counted in
  :func:`repro.db.storage.storage_counters` and surfaced via
  ``QueryService.stats().storage``.
* **Warm restart** — ``ServiceConfig(storage_dir=...)`` persists serving
  warmth next to the data: plan-cache entries, statistics reservoirs,
  group-index codes and UDF memo caches, each stamped with the owning
  table's ``shard_signature()`` and restored only on an exact match.  A
  restarted service answers its first repeated query as a warm hit with
  **zero** UDF evaluations, reporting ``plan_cache: "restored"`` once.
  The four storage fault sites (``manifest_write``, ``segment_write``,
  ``journal_append``, ``segment_read``) extend the chaos suite: every
  injected torn write and bit flip either reopens bitwise-identical to the
  last durable generation or fails typed and rebuilds — never silently
  corrupt.  ``benchmarks/test_restart.py`` commits the cold-versus-warm
  restart counters to ``BENCH_restart.json``, gated via
  ``compare_bench.py --profile restart``.

Bounded-memory serving
----------------------

A durable catalog can be *larger than memory*.  Passing
``CatalogStore.open(residency=ResidencyManager(budget_bytes=N))`` (and
``ServiceConfig(memory_budget_bytes=N)`` on the service) opens every table
**lazily** and serves it out-of-core:

* **Budget model** — :class:`~repro.db.residency.ResidencyManager` tracks
  every mapped column segment at its actual ``nbytes`` against one byte
  budget.  :meth:`TableStore.open` validates only segment *headers* (magic
  + header CRC) up front; a segment's payload is mapped — and its block
  CRCs verified, once — on first touch.  When residency exceeds the
  budget, clean mappings are evicted least-recently-used.  Eviction drops
  the *manager's* reference only: arrays a caller already holds stay
  valid, and gathers copy out of the map, so eviction order is
  **bitwise-invisible** to results — the out-of-core benchmark gates work
  counters and row ids against the unbounded run at exactly ±0.
* **Pin/evict semantics** — in-flight spans pin the segments they read;
  pinned segments are never evicted, so peak residency is bounded by
  ``budget + one pinned shard's columns``.  Execution is shard-at-a-time:
  spans release their pins (and the evictor reclaims) between shards, and
  cold sampling visits shards in *residency order* — resident shards
  first, then faulting absent ones in one at a time.
* **Watermark degradation** — crossing ``watermark * budget`` fires
  pressure callbacks in a fixed order: first the service sheds its
  plan/statistics **caches**; if pins hold residency over budget
  (``critical``), new async admissions are **shed** with the typed
  :class:`~repro.serving.Overloaded` (``pressure_shed`` counter); and a
  table whose segment maps *keep failing* trips a per-table circuit
  **breaker** that degrades it to rebuilt-in-memory — answering queries
  always outranks staying lazy.  ``stats().storage["residency"]`` and the
  ``repro_residency_*`` registry metrics (resident-bytes gauge,
  eviction/fault counters, map-latency histogram) expose all of it.
* **Direct attach** — the process executor ships durable segments to
  workers by ``(path, offset, dtype)`` and each worker ``np.memmap``-s the
  segment file itself (committed segment files are immutable at a path),
  skipping the ``shared_memory`` re-export copy entirely; the shm path
  remains for non-durable in-memory tables.  The ``segment_map`` /
  ``segment_evict`` fault sites extend the chaos suite: every injected
  map/evict fault either recovers bitwise or fails typed
  (:class:`~repro.db.SegmentMapError`) with zero leaked mappings, and
  ``tests/leakcheck.py`` asserts zero resident bytes after every
  ``close()``.

``examples/serving_workload.py --memory-budget BYTES`` demonstrates a
table ~4x the budget answering bitwise-identically to the unbounded run;
``benchmarks/test_outofcore.py`` commits the parity and eviction counters
to ``BENCH_outofcore.json``, gated via ``compare_bench.py --profile
outofcore``.

See DESIGN.md for the module map and EXPERIMENTS.md for the paper-versus-
measured comparison of every table and figure.
"""

from repro.baselines import LearningBaseline, MultipleImputationBaseline, NaiveBaseline
from repro.core import (
    AdaptiveIntelSample,
    CostModel,
    ExecutionPlan,
    ExecutorAware,
    GroupDecision,
    GroupStatistics,
    IntelSample,
    OptimalOracle,
    ParallelBatchExecutor,
    PlanExecutor,
    ProcessPoolBatchExecutor,
    QueryConstraints,
    SelectivityModel,
    solve_bigreedy,
    solve_estimated_selectivity,
    solve_perfect_information,
    solve_perfect_selectivity_lp,
    solve_with_samples,
)
from repro.datasets import DatasetBundle, generate_dataset, load_all_datasets, load_dataset
from repro.db import (
    Catalog,
    CatalogStore,
    CorruptSegmentError,
    CostLedger,
    Engine,
    GroupIndex,
    ManifestVersionError,
    MergedGroupIndex,
    QueryResult,
    RecoveryReport,
    SelectQuery,
    ShardedTable,
    StorageError,
    Table,
    TableStore,
    UdfPredicate,
    UserDefinedFunction,
    metadata_schema,
)
from repro.obs import (
    CollectingTraceSink,
    JsonLinesTraceSink,
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    disable_metrics,
    enable_metrics,
    prometheus_text,
)
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedFault,
    deadline_scope,
    fault_scope,
)
from repro.sampling import ConstantScheme, FixedFractionScheme, TwoThirdPowerScheme
from repro.serving import (
    AdmissionError,
    BatchExecutor,
    Overloaded,
    PlanCache,
    QueryService,
    ServiceClosed,
    ServiceConfig,
    ServiceStats,
    SessionManager,
    StatisticsCache,
)

__version__ = "1.7.0"

__all__ = [
    "__version__",
    # core
    "QueryConstraints",
    "CostModel",
    "GroupStatistics",
    "SelectivityModel",
    "ExecutionPlan",
    "GroupDecision",
    "PlanExecutor",
    "ParallelBatchExecutor",
    "ProcessPoolBatchExecutor",
    "ExecutorAware",
    "IntelSample",
    "AdaptiveIntelSample",
    "OptimalOracle",
    "solve_bigreedy",
    "solve_perfect_selectivity_lp",
    "solve_perfect_information",
    "solve_estimated_selectivity",
    "solve_with_samples",
    # db
    "Catalog",
    "Engine",
    "Table",
    "ShardedTable",
    "TableStore",
    "CatalogStore",
    "RecoveryReport",
    "StorageError",
    "CorruptSegmentError",
    "ManifestVersionError",
    "GroupIndex",
    "MergedGroupIndex",
    "SelectQuery",
    "QueryResult",
    "metadata_schema",
    "UserDefinedFunction",
    "UdfPredicate",
    "CostLedger",
    # datasets
    "DatasetBundle",
    "generate_dataset",
    "load_dataset",
    "load_all_datasets",
    # sampling schemes
    "ConstantScheme",
    "TwoThirdPowerScheme",
    "FixedFractionScheme",
    # baselines
    "NaiveBaseline",
    "LearningBaseline",
    "MultipleImputationBaseline",
    # serving
    "QueryService",
    "ServiceConfig",
    "ServiceStats",
    "BatchExecutor",
    "PlanCache",
    "StatisticsCache",
    "SessionManager",
    "AdmissionError",
    "Overloaded",
    "ServiceClosed",
    # resilience
    "Deadline",
    "DeadlineExceeded",
    "deadline_scope",
    "CircuitBreaker",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "fault_scope",
    # observability
    "MetricsRegistry",
    "enable_metrics",
    "disable_metrics",
    "prometheus_text",
    "Trace",
    "CollectingTraceSink",
    "JsonLinesTraceSink",
    "SlowQueryLog",
]
