"""repro.serving — concurrent query serving with statistics/plan caching.

The one-shot pipeline in :mod:`repro.core` recomputes selectivity estimates,
the correlated column and the solved plan on every call.  This package adds
the serving layer a repeated workload needs:

* :class:`QueryService` — thread-safe front-end over a shared catalog,
  with an asyncio front-end (:meth:`~QueryService.submit_async`:
  admission control with typed :class:`Overloaded` shedding, bounded
  concurrency, cold-miss coalescing);
* :class:`ServiceConfig` / :class:`ServiceStats` — one configuration value
  and one typed observability snapshot (:meth:`QueryService.stats`);
* :class:`StatisticsCache` — memoised labelled samples and per-column
  sample outcomes (TTL + LRU, hit/miss accounted);
* :class:`PlanCache` / :class:`CachedPlan` — solved plans keyed by
  canonical query signature;
* :class:`SessionManager` / :class:`ClientSession` / :class:`AdmissionError`
  — per-client UDF-cost budgets and admission control;
* resilience — per-request deadlines (``submit(..., timeout_s=...)`` /
  ``ServiceConfig.default_timeout_s``), circuit-broken degradation of the
  process pool, graceful shutdown (:meth:`QueryService.close`, also a
  context manager) with the typed :class:`ServiceClosed`;
* :class:`BatchExecutor` — vectorised plan execution backend;
* :func:`plan_signature` / :func:`canonical_predicate` — signature
  canonicalisation.

See the "Serving repeated workloads" section of the top-level package
docstring and ``examples/serving_workload.py`` for a full tour.
"""

from repro.core.executor import BatchExecutor
from repro.serving.cache import CacheStats, LRUCache
from repro.serving.config import ServiceConfig, ServiceStats
from repro.serving.plan_cache import CachedPlan, PlanCache
from repro.serving.service import QueryService
from repro.serving.session import (
    AdmissionError,
    ClientSession,
    Overloaded,
    ServiceClosed,
    SessionManager,
)
from repro.serving.signature import (
    canonical_predicate,
    plan_signature,
    statistics_key,
    strategy_fingerprint,
)
from repro.serving.stats_cache import StatisticsCache

__all__ = [
    "AdmissionError",
    "BatchExecutor",
    "CachedPlan",
    "CacheStats",
    "ClientSession",
    "LRUCache",
    "Overloaded",
    "PlanCache",
    "QueryService",
    "ServiceConfig",
    "ServiceStats",
    "ServiceClosed",
    "SessionManager",
    "StatisticsCache",
    "canonical_predicate",
    "plan_signature",
    "statistics_key",
    "strategy_fingerprint",
]
