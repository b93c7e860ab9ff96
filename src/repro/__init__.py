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

Repeated traffic against a shared catalog goes through a thread-safe
:class:`~repro.serving.QueryService`, which caches the statistics and the
solved plan so a repeated query only executes::

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

Where the detail lives
----------------------

Each subsystem is documented once, in the docstring of the module that owns
it; this is the index.

* **The paper's pipeline** — :mod:`repro.core.pipeline` (``IntelSample``,
  ``OptimalOracle``); column choice in :mod:`repro.core.column_selection`,
  sampling in :mod:`repro.sampling`, Convex Program 4.1 in
  :mod:`repro.core.sampling_program` over :mod:`repro.solvers.convex`, the
  solver-free warm start in :mod:`repro.core.bigreedy`.
* **Plan execution** — :mod:`repro.core.executor` (one kernel, the candidate
  frame, the one coin discipline, the reference ``PlanExecutor``);
  :mod:`repro.core.parallel` (spans, run inline);
  :mod:`repro.core.procpool` (the same spans in worker processes, span
  retry, the breaker).
* **Tables, indexes, UDFs** — :mod:`repro.db.table`, :mod:`repro.db.index`
  (``GroupIndex`` and its delta extension), :mod:`repro.db.udf` (cost ledger,
  the dense memo), :mod:`repro.db.sharding` (shard layout, the appendable
  tail), :mod:`repro.db.shm` (the segment files pool workers map).
* **Serving** — :mod:`repro.serving.service` (plan and statistics caches, the
  single-flight table, the asyncio front-end, the refresh path after an
  append, budgets); :mod:`repro.serving.config` (``ServiceConfig``, the
  executor names, ``SERVICE_STATS_SCHEMA`` for :meth:`QueryService.stats`);
  :mod:`repro.serving.session`; :mod:`repro.serving.persistence` (warm
  restart).  Result metadata keys: :func:`repro.db.metadata_schema`.
* **Observability** — :mod:`repro.obs` (per-query trace trees and their
  sinks, the latency histogram, Prometheus text rendered from
  ``QueryService.stats().flat()`` and the other snapshots).
* **Resilience** — :mod:`repro.resilience` (:mod:`~repro.resilience.deadline`,
  :mod:`~repro.resilience.breaker`, deterministic fault injection in
  :mod:`~repro.resilience.faults`); shutdown is :meth:`QueryService.close`.
* **Durability** — :mod:`repro.db.storage` (checksummed segments, atomic
  manifest, write-ahead journal, quarantine and rebuild).
* **Bounded memory** — :mod:`repro.db.residency` (lazy open under a byte
  budget, pin/evict, watermark degradation, direct worker attach).
* **Measuring** — ``bench/run.py`` (the layered benchmark every speed claim
  goes through: five serving workloads timed end to end and per layer, each
  op's answers hashed into a digest); ``benchmarks/`` regenerates the
  paper's figures and tables; the serving layer's work-counter and parity
  gates are tier-1 tests under ``tests/``; ``examples/`` holds runnable
  tours of the pipeline and the serving layer.

Removed names
-------------

Removed in 1.7 (the pre-1.3 shims): the loose ``QueryService`` keywords
``plan_cache_size``, ``stats_cache_size``, ``ttl``, ``executor``,
``default_budget``, ``free_memoized`` and ``max_workers`` (now a
``TypeError``; pass ``config=ServiceConfig(...)``), the legacy executor names
``"batch"`` / ``"parallel"`` / old ``"serial"`` (spell them ``"serial"`` /
``"thread"`` / ``"reference"``; ``repro.serving.config.LEGACY_EXECUTORS`` is
gone with them), and the stats aliases ``metrics()`` / ``metrics_snapshot()``
/ ``latency_snapshot()`` (read ``stats().serving`` / ``.plan_cache`` /
``.stats_cache`` / ``.latency_ms``).  Removed in 1.8,
because nothing ever set them: ``ServiceConfig.coalesce`` (coalescing is
always on; ``stats().frontend["coalesce"]`` went with it) and
``ServiceConfig.breaker_probes`` (one half-open probe at a time, the
:class:`~repro.resilience.CircuitBreaker` default).  Removed in 1.9, with
the mirror writes they served (every counter now has one home, see
:mod:`repro.obs`): ``LRUCache(name=)``, ``repro.db.residency.residency_counters``
/ ``reset_residency_counters`` (read ``ResidencyManager.snapshot()``, which
gained ``tables_materialised`` / ``tables_degraded``),
``repro.obs.metrics.BoundCounterCache``, the registry's ``enabled`` flags,
and the registry counters
``repro_{serving,cache,udf,storage,residency,index,engine}_*_total`` (read
``QueryService.stats()``).
Removed in 1.10, with the per-row containers they were (paid-for evidence is
one read-only ``(row_ids, flags)`` array pair in draw order,
:class:`repro.sampling.sampler.Evidence`): ``GroupSample`` and
``SampleOutcome.samples`` (per-group counts are
``index.label_counts(outcome.row_ids, outcome.flags)``, per-group rows
``outcome.by_group(index)``, group sizes the index's), ``SampleOutcome
.sampled_row_ids()`` / ``.positive_row_ids()`` / ``.posterior(key)`` (read
``.row_ids`` / ``.positives`` / ``SelectivityModel.from_sample_outcome``),
``SampleOutcome.merge_shards(key_order=)`` (group order is the index's),
``LabeledSample.outcomes`` and ``.as_arrays()`` (read ``.row_ids`` and
``.flags``; build one with ``LabeledSample(row_ids, flags)``), and
``sampled_members`` / ``drop_members`` in ``repro.core.executor``
(``drop_members`` lives in ``repro.sampling.sampler``; a group's slice of
``outcome.by_group(index)`` already is what ``sampled_members`` computed).
Removed in 1.11, with the per-shard group indexes they built, held or
stood beside (a sharded table has one group index per column, over global
row ids; no shard keeps its own): ``ShardedTable(max_workers=)`` and the
same keyword of ``from_table`` / ``from_columns`` / ``from_rows`` /
``with_column`` / ``Catalog.shard_table`` and the ``.max_workers`` attribute
(``ServiceConfig.max_workers`` still sizes the executor; a manifest that
carries the key opens), ``MergedGroupIndex.num_shards`` and the list of
per-shard indexes beside it (read ``span_boundaries()`` or
``table.num_shards``; the constructor is ``MergedGroupIndex(table, column,
allow_hidden)`` and ``resharded`` takes the offsets only), and the
per-shard statistics entry points nothing called,
``SelectivityModel.merge_shards`` and ``solve_with_shard_outcomes`` (merge
the evidence with ``SampleOutcome.merge_shards``, then
``solve_with_samples``).
Removed in 1.12, with the thread placement of the span executor (it was
faster than running spans inline on no workload measured; spans now run
inline or in worker processes): the ``"thread"`` executor backend
(``ServiceConfig(executor="thread")`` raises ``ValueError``; use
``"serial"``, or ``"process"`` for multi-core), ``repro.core.shared_pool``
/ ``repro.core.parallel.shared_pool``, and ``ParallelBatchExecutor(max_workers=)``
(the constructor is ``ParallelBatchExecutor(random_state)``;
``ProcessPoolBatchExecutor(max_workers=)`` and ``ServiceConfig.max_workers``
size the process pool, and ``default_max_workers`` lives in
:mod:`repro.core.procpool`).
Removed in 1.13, with the solve path it served (SLSQP is driven directly,
bit for bit, by :func:`repro.solvers.convex.slsqp`, which needs scipy ≥ 1.16):
``repro.solvers.convex.minimize`` (interpose on ``repro.solvers.convex.slsqp``,
which returns ``(x, converged)``).  Inverted bounds now raise
:class:`ValueError` when the :class:`~repro.solvers.convex.ConvexProblem` is
built, not when it is solved, and its ``bounds`` must be ``n`` ``(low,
high)`` pairs (a flat sequence of ``2n`` numbers is no longer reshaped).
Removed in 1.16, with the process executor's second fan-out (bulk UDF
evaluation now runs through the span path's submit, harvest, retry and
give-up): ``ServiceConfig.retry_spans`` and
``ProcessPoolBatchExecutor(retry_spans=)`` (a transiently failed span is
always retried once), ``ParallelBatchExecutor.bulk_evaluator`` (call
``executor.evaluate_rows(table, udf, row_ids)``), and the ``"reference"``
executor backend (``ServiceConfig(executor="reference")`` raises
``ValueError``; no service ran it, and
:class:`~repro.core.executor.PlanExecutor` stays in :mod:`repro.core` as
the differential reference).
Removed in 1.17, with the second worker transport (workers memory-map a
segment file for every column they read): the shared-memory export path,
the segment-name field of :class:`~repro.db.shm.ColumnBlock`, the
residency module's all-or-nothing durable export helper
(:func:`repro.db.shm.export_table_spans` chooses per shard), the two
shared-memory fault sites and reasons (``segment_write`` and
``segment_map`` fire instead) and ``repro_executor_direct_attach_total``.
A UDF's own ``OSError`` in a worker now reaches the caller, unretried.
Removed in 1.19, with the second durable format (warm state is segments
under one JSON record per table, see :mod:`repro.serving.persistence`):
the pickled warm blob with its magic number and file-name constants, the
``Evidence`` and ``GroupDecision`` pickle hooks that only it used
(both pickle as plain dataclasses), and the ``mmap=`` option of
``TableStore.open`` / ``CatalogStore.open`` (an eager open maps; read a
segment into memory with ``read_segment(..., mmap=False)``).  Warm state
written before 1.19 (``warm/state.blob``, of any version) is not read: that
table starts cold once, and the next save removes the blob.  A plan whose
signature does not survive a JSON round trip is not saved.
Removed in 1.20, with the python cell lists every table kept beside its
column arrays (a column is one read-only array; ``row``, ``value`` and
``column_values`` read it through ``ndarray.item`` / ``tolist``, so an
in-memory table hands out exactly what its durable reopen and a pool
worker do — ``str`` for string cells, one group per NaN cell): the
``GroupIndex`` / ``MergedGroupIndex`` ``extended_by`` cell-supplier
argument (``extended_by(delta_array)``), ``GroupIndex.row_id_array`` (call
``row_ids``), ``SelectivityModel.from_label_array``,
``repro.experiments.harness.run_many`` and ``Column.with_metadata``, which
nothing called.  UDF memos are written once per save, in one warm record
beside ``CATALOG.json`` (``<storage_dir>/warm/``); the ``memos`` entry of a
1.19 per-table warm record is not read.
Removed in 1.24, with the second coin discipline (the span executors flip
the serial backend's coins in the parent, so a seed returns the same answer
from every backend, and pool workers only evaluate row ids): counter-coin
plan execution (the per-execution root key and per-group stream keys),
``repro.core.parallel.span_coin_pass``, and the coin fields of
``repro.core.parallel._GroupSegment`` (its probabilities,
``position_offset``, ``retrieve_key`` and ``evaluate_key``; a segment is now
a group's retrieved rows in one span and their evaluation mask).
``repro.stats.random.counter_uniforms`` and ``stream_key`` stay: the
reservoir top-up and :class:`~repro.resilience.FaultPlan` use them.
Removed in 1.25, with the deferred frame derivation (a draw makes its own
frame: ``GroupSampler.sample(..., already_sampled=prior)`` returns the merged
evidence, ``prior`` itself when it draws nothing, with its candidate frame
filed on the index): ``repro.sampling.sampler.merge_drawn`` (use what
``sample`` returns) and ``GroupIndex.derive_later``.  Removed in 1.25,
because nothing but a test set it: ``UserDefinedFunction(memoize=)`` and the
``memoize`` attribute (a UDF always memoises its paid-for values).
Removed in 1.26, with the accounting passed beside the ledger (a request's
ledger carries it, :attr:`CostLedger.free_memoized`, and the service sets it
on hit and refresh ledgers): the ``free_memoized=`` keyword of
``BatchExecutor``, ``ParallelBatchExecutor``, ``ProcessPoolBatchExecutor``,
``UserDefinedFunction.evaluate_rows`` and ``.merge_remote_evaluations``
(pass ``CostLedger(free_memoized=True)``), and the ``ExecutorAware``
protocol (the service no longer rewires a strategy's ``executor_factory``
on refresh, so a strategy factory is accepted on every backend and a
pipeline run executes on the strategy's own factory).
Removed in 1.27, with the second counter store (every event is read from
the object that sees it, and :func:`repro.obs.prometheus_text` renders named
snapshots: ``prometheus_text({"repro_service": service.stats().flat(),
"repro_storage": storage_counters()})``): ``repro.obs.metrics``'s
``MetricsRegistry``, ``NullRegistry`` / ``NULL_REGISTRY``, ``Counter``,
``Gauge``, ``REGISTRY_OWNED``, ``PROCESS_COLLECTORS``, ``get_registry`` /
``set_registry`` / ``enable_metrics`` / ``disable_metrics`` and the
``counter`` / ``gauge`` / ``histogram`` helpers (``Histogram`` stays, as
``Histogram(buckets)``), ``ServiceStats.registry``, and
``repro.db.residency.MAP_LATENCY_HISTOGRAM``.  Each registry instrument has
a home: executor runs are ``stats().serving`` plan hits + misses +
refreshes plus named-strategy runs; solver calls ``serving["solver_calls"]``; retried spans
``resilience["retried_spans"]``; table appends ``Table.num_rows`` /
``data_generation``; breaker transitions ``resilience["state"]`` /
``["opened_count"]``; map latency ``ResidencyManager.snapshot()["maps"]`` /
``["map_seconds_total"]``.  A process executor's fallback reason is told to
its ``on_degraded`` callback, so every in-process fallback of a service
request (not only ``breaker_open``) shows as ``metadata["degraded"]`` and
``stats().serving["degraded"]``.
"""

from repro.baselines import LearningBaseline, MultipleImputationBaseline, NaiveBaseline
from repro.core import (
    AdaptiveIntelSample,
    CostModel,
    ExecutionPlan,
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
    SlowQueryLog,
    Trace,
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

__version__ = "1.27.0"

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
    "prometheus_text",
    "Trace",
    "CollectingTraceSink",
    "JsonLinesTraceSink",
    "SlowQueryLog",
]
