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
* **Plan execution** — :mod:`repro.core.executor` (placements, one kernel,
  the candidate frame, the one coin discipline, the reference
  ``PlanExecutor``);
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

Names removed from the API are recorded, change by change, in the
repository's ``CHANGES.md``.
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

__version__ = "1.28.0"

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
