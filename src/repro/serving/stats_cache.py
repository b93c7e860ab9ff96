"""Statistics cache: memoised selectivity evidence shared across queries.

The expensive part of answering a query is statistical: labelling a uniform
sample for column selection, and stratified per-group sampling to estimate
selectivities.  Both depend only on ``(table, predicate)`` — not on the
constraints — so two queries with different ``alpha``/``beta`` against the
same table and UDF can share them.  :class:`StatisticsCache` memoises

* the labelled sample per ``(table, predicate)``,
* the merged :class:`~repro.sampling.sampler.SampleOutcome` (and the
  selectivity model derived from it) per ``(table, column, predicate)``,

each behind its own TTL/size-bounded :class:`~repro.serving.cache.LRUCache`
with hit/miss accounting.  Both payloads are immutable
:class:`~repro.sampling.sampler.Evidence` — a read-only ``(row_ids, flags)``
array pair that stores nothing per group — so the cache hands out the stored
object itself, and an entry that outlives an append needs no repair: group
sizes and counts are read from the grown table's index when it is used.
Entries remember the table's shard signature and row count at store time, so
after an append the ``stale_*`` getters can hand the (still exact, merely
incomplete) evidence to the delta-refresh path instead of treating the grown
table as cold.  Group indexes are no
longer cached here: since
the db layer grew a per-column index cache
(:meth:`~repro.db.table.Table.group_index`), the serving layer shares the
*same* index objects as the engine and the cold pipeline — :meth:`get_index`
delegates to the table and only keeps hit/miss accounting so dashboards
still see index reuse.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.core.column_selection import LabeledSample
from repro.db.index import GroupIndex
from repro.db.predicate import Predicate
from repro.db.table import Table
from repro.sampling.sampler import SampleOutcome
from repro.serving.cache import CacheStats, LRUCache
from repro.serving.signature import model_key, statistics_key


class StatisticsCache:
    """Memoises labelled samples, sample outcomes and group indexes."""

    def __init__(
        self,
        max_size: Optional[int] = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.labeled_samples = LRUCache(max_size=max_size, ttl=ttl, clock=clock)
        self.sample_outcomes = LRUCache(max_size=max_size, ttl=ttl, clock=clock)
        # Group indexes live on the tables themselves (Table.group_index);
        # this only counts how often serving found one already built.
        self.index_stats = CacheStats()

    @property
    def enabled(self) -> bool:
        """Whether statistics caching is on at all."""
        return self.labeled_samples.enabled

    # Entries are keyed by table *identity* and store the table reference,
    # its shard signature (layout + data generation) and its row count at
    # store time alongside the payload.  Identity protects against a table
    # re-registered under the same name (row ids would not line up) and
    # against id() reuse combined with signatures; the stored signature
    # separates layout/data generations.  A signature mismatch at matching
    # identity is *not* discarded: row ids are append-only stable, so the
    # payload is still exact evidence for the first ``rows`` rows and the
    # ``stale_*`` getters hand it to the delta-refresh path instead of
    # treating the grown table as cold.
    @staticmethod
    def _labeled_key(table: Table, predicate: Predicate) -> Hashable:
        return (id(table), statistics_key(table.name, predicate))

    @staticmethod
    def _outcome_key(table: Table, predicate: Predicate, column: str) -> Hashable:
        return (id(table), model_key(table.name, predicate, column))

    def _validated(self, cache: LRUCache, key: Hashable, table: Table):
        """The entry's payload when it matches the table's *current* state."""
        entry = cache.get(key, record=False)
        if entry is None:
            cache.note_miss()
            return None
        stored_table, signature, _rows, payload = entry
        if stored_table is not table or signature != table.shard_signature():
            cache.note_miss()
            return None
        cache.note_hit()
        return payload

    def _validated_stale(
        self, cache: LRUCache, key: Hashable, table: Table
    ) -> Optional[Tuple[Any, int]]:
        """``(payload, rows_at_store_time)`` for a same-table entry of any
        generation whose rows are a prefix of the current table.

        Accounting mirrors :meth:`_validated`: an unusable entry (evicted,
        re-registered table, rows beyond the current table) counts as the
        miss it behaves as; a usable stale one counts as a ``refresh``.
        """
        entry = cache.get(key, record=False)
        if entry is None:
            cache.note_miss()
            return None
        stored_table, signature, rows, payload = entry
        if stored_table is not table or rows > table.num_rows:
            cache.note_miss()
            return None
        if signature == table.shard_signature():
            cache.note_hit()
        else:
            cache.note_refresh()
        return payload, rows

    # -- labelled samples ---------------------------------------------------------
    def get_labeled(self, table: Table, predicate: Predicate) -> Optional[LabeledSample]:
        """The cached labelled sample for ``(table, predicate)``, if any."""
        return self._validated(
            self.labeled_samples, self._labeled_key(table, predicate), table
        )

    def stale_labeled(
        self, table: Table, predicate: Predicate
    ) -> Optional[Tuple[LabeledSample, int]]:
        """A possibly-stale labelled sample plus the row count it covered.

        Used by the refresh path after appends: the sample is exact over the
        first ``rows`` rows and only needs a reservoir top-up over the delta.
        """
        return self._validated_stale(
            self.labeled_samples, self._labeled_key(table, predicate), table
        )

    def put_labeled(
        self, table: Table, predicate: Predicate, labeled: LabeledSample
    ) -> None:
        """Store a labelled sample (no-op for empty samples)."""
        if labeled is not None and labeled.size:
            self.labeled_samples.put(
                self._labeled_key(table, predicate),
                (table, table.shard_signature(), table.num_rows, labeled),
            )

    # -- per-column sample outcomes ----------------------------------------------
    def get_outcome(
        self, table: Table, predicate: Predicate, column: str
    ) -> Optional[SampleOutcome]:
        """The cached (merged) sample outcome for one correlated column."""
        return self._validated(
            self.sample_outcomes, self._outcome_key(table, predicate, column), table
        )

    def stale_outcome(
        self, table: Table, predicate: Predicate, column: str
    ) -> Optional[Tuple[SampleOutcome, int]]:
        """A possibly-stale sample outcome plus the row count it covered."""
        return self._validated_stale(
            self.sample_outcomes, self._outcome_key(table, predicate, column), table
        )

    def outcomes_for(
        self, table: Table, predicate: Predicate, columns: Tuple[str, ...]
    ) -> Dict[str, SampleOutcome]:
        """Cached outcomes for each of ``columns`` (absent columns omitted)."""
        found: Dict[str, SampleOutcome] = {}
        for column in columns:
            outcome = self.get_outcome(table, predicate, column)
            if outcome is not None:
                found[column] = outcome
        return found

    def put_outcome(
        self,
        table: Table,
        predicate: Predicate,
        column: str,
        outcome: SampleOutcome,
    ) -> None:
        """Store (replacing) the merged sample outcome for a column."""
        if outcome is not None:
            self.sample_outcomes.put(
                self._outcome_key(table, predicate, column),
                (table, table.shard_signature(), table.num_rows, outcome),
            )

    # -- group indexes -------------------------------------------------------------
    def get_index(self, table: Table, column: str) -> GroupIndex:
        """The shared :class:`GroupIndex`, built at most once per (table, column).

        Delegates to :meth:`Table.group_index` — the same object the engine
        and the cold pipeline use, so a plan-cache hit never rebuilds an
        index the cold run already paid for.  Identity is inherent: the
        index lives on the table instance itself, so a re-registered table
        (or a derived virtual-column table) brings its own fresh cache.
        """
        if table.has_group_index(column):
            self.index_stats.hits += 1
        else:
            self.index_stats.misses += 1
            self.index_stats.puts += 1
        return table.group_index(column)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Hit/miss statistics of every underlying cache (atomic per cache)."""
        return {
            "labeled_samples": self.labeled_samples.snapshot(),
            "sample_outcomes": self.sample_outcomes.snapshot(),
            "indexes": self.index_stats.snapshot(),
        }

    def clear(self) -> None:
        """Drop cached statistics (shared table-resident indexes are kept)."""
        self.labeled_samples.clear()
        self.sample_outcomes.clear()
