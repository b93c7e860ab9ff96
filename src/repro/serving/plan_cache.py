"""Plan cache: solved execution plans keyed by canonical query signature.

A plan-cache hit means a repeated query skips column selection, labelling,
sampling *and* the convex-program solve: the service re-executes the cached
probabilistic plan (with fresh per-request randomness) against the cached
group index and sample outcome.  Entries are keyed by
:func:`repro.serving.signature.plan_signature`, so syntactic reorderings of
the same query share one entry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.groups import SelectivityModel
from repro.core.plan import ExecutionPlan
from repro.db.table import Table
from repro.sampling.sampler import SampleOutcome
from repro.serving.cache import LRUCache

#: Version of the plan-producing solver stack.  Folded into every plan
#: signature and stamped on every :class:`CachedPlan`, so plans solved by an
#: older solver can never be replayed after an upgrade (neither within a
#: process nor through any externalised signature).  History: 1 — PR 1's
#: original serving layer; 2 — PR 2's joint phase-2 repair in
#: :func:`repro.core.bigreedy.solve_bigreedy`, which changes the optimal
#: plans (and their expected costs) for loose-recall queries.
PLAN_CACHE_VERSION = 2


@dataclass(frozen=True)
class CachedPlan:
    """Everything needed to re-execute a solved query without re-planning.

    Attributes
    ----------
    column:
        The correlated column the plan groups by.
    plan:
        The solved per-group retrieve/evaluate probabilities.
    model:
        The selectivity model the plan was solved against (used for
        budget-degraded re-solves and expected-cost admission checks).
    sample_outcome:
        Sampled rows whose UDF value is already paid for, as one
        ``(row_ids, flags)`` array pair; their positives are returned for
        free and they are excluded from the probabilistic pass.
    working_table:
        The table the plan executes over — the base table, or the augmented
        copy carrying a virtual correlated column.
    base_table:
        The catalog table the plan was computed from; a cache hit is only
        valid while the catalog still serves this exact object (re-registered
        tables invalidate the entry by identity).
    expected_execution_cost:
        Expected cost of executing the plan (sampling excluded); used by the
        admission layer to pre-check client budgets.
    used_virtual_column:
        Whether ``column`` is a derived virtual column.
    used_fallback:
        Whether the solver fell back to evaluate-everything.
    solver_version:
        The :data:`PLAN_CACHE_VERSION` of the solver stack that produced the
        plan; the service refuses to replay entries from any other version.
    data_generation / table_rows:
        The base table's :attr:`~repro.db.table.Table.data_generation` and
        row count when the plan was solved.  Tables mutate in place under
        incremental ingest, so identity alone no longer proves freshness: a
        generation mismatch marks the entry *refreshable* — its statistics
        are exact for the first ``table_rows`` rows and the service updates
        them through the delta path instead of a cold re-plan.
    restored:
        Whether the entry was loaded from durable storage
        (:mod:`repro.db.storage`) rather than solved in this process.  The
        first hit reports ``plan_cache: "restored"`` in result metadata and
        then clears the flag, so warm-restart wins are observable without
        perturbing steady-state accounting.
    """

    column: str
    plan: ExecutionPlan
    model: SelectivityModel
    sample_outcome: Optional[SampleOutcome]
    working_table: Table
    base_table: Table
    expected_execution_cost: float
    used_virtual_column: bool = False
    used_fallback: bool = False
    solver_version: int = PLAN_CACHE_VERSION
    data_generation: int = 0
    table_rows: int = 0
    restored: bool = False


class PlanCache:
    """A TTL/size-bounded LRU cache of :class:`CachedPlan` entries."""

    def __init__(
        self,
        max_size: Optional[int] = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._cache = LRUCache(max_size=max_size, ttl=ttl, clock=clock)

    @property
    def enabled(self) -> bool:
        """Whether plan caching is on at all."""
        return self._cache.enabled

    @property
    def stats(self):
        """Hit/miss statistics of the underlying cache."""
        return self._cache.stats

    def get(self, signature: Tuple, record: bool = True) -> Optional[CachedPlan]:
        """The cached plan for a canonical signature, if any."""
        return self._cache.get(signature, record=record)

    def note_hit(self) -> None:
        """Record a hit observed outside :meth:`get` (single-flight waiters)."""
        self._cache.note_hit()

    def note_miss(self) -> None:
        """Record a miss observed outside :meth:`get` (dead entries)."""
        self._cache.note_miss()

    def put(self, signature: Tuple, entry: CachedPlan) -> None:
        """Store a solved plan under its canonical signature."""
        self._cache.put(signature, entry)

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict statistics snapshot (atomic: one lock acquisition)."""
        return self._cache.snapshot()

    def clear(self) -> None:
        """Drop every cached plan."""
        self._cache.clear()

    def __contains__(self, signature: object) -> bool:
        return signature in self._cache

    def __len__(self) -> int:
        return len(self._cache)
