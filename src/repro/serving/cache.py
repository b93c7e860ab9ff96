"""Thread-safe LRU cache with TTL expiry and hit/miss accounting.

Every cache in the serving layer (statistics, plans, group indexes) is an
instance of :class:`LRUCache`.  The cache is deliberately simple: a lock, an
ordered dict in recency order, an optional per-entry time-to-live, and a
size bound enforced by least-recently-used eviction.  ``max_size=0`` turns
the cache off entirely (every ``get`` misses, every ``put`` is dropped),
which is how benchmarks model a cold, no-amortisation serving path.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple


@dataclass
class CacheStats:
    """Counters describing how effective a cache has been."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    expirations: int = 0
    #: Entries reclaimed by an opportunistic :meth:`LRUCache.purge_expired`
    #: sweep (also counted in :attr:`expirations`).
    purged: int = 0
    #: Stale lookups that were answered for delta-refresh instead of being
    #: treated as cold misses (serving statistics caches only).
    refreshes: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict snapshot for reports and benchmark output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "purged": self.purged,
            "refreshes": self.refreshes,
            "hit_rate": self.hit_rate,
        }


@dataclass
class _Entry:
    value: Any
    stored_at: float
    last_used_at: float = field(default=0.0)


class LRUCache:
    """A bounded, optionally-expiring, thread-safe key/value cache.

    Parameters
    ----------
    max_size:
        Maximum number of entries; the least recently used entry is evicted
        when a ``put`` would exceed it.  ``0`` disables the cache; ``None``
        means unbounded.
    ttl:
        Optional time-to-live in seconds.  Entries older than ``ttl`` at
        lookup time count as misses (and are dropped).
    clock:
        Injectable time source (seconds); defaults to ``time.monotonic`` and
        is overridden in tests to exercise expiry deterministically.
    """

    def __init__(
        self,
        max_size: Optional[int] = 128,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_size is not None and max_size < 0:
            raise ValueError(f"max_size must be non-negative, got {max_size}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        self.max_size = max_size
        self.ttl = ttl
        self._clock = clock
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()
        self._puts_since_purge = 0

    #: Puts between opportunistic expiry sweeps.  Lookup-time expiry only
    #: reclaims keys that are touched again, so never-retouched entries
    #: would pin memory until LRU pressure evicts them; sweeping every
    #: N puts bounds that leak at amortised O(size / N) work per put.
    PURGE_EVERY_PUTS = 64

    @property
    def enabled(self) -> bool:
        """Whether the cache can hold anything at all."""
        return self.max_size is None or self.max_size > 0

    def get(self, key: Hashable, default: Any = None, record: bool = True) -> Any:
        """Look up ``key``, refreshing its recency; ``default`` on miss.

        ``record=False`` leaves the hit/miss statistics untouched — used for
        re-checks whose outcome was already accounted for (or is accounted
        for separately via :meth:`note_hit`).
        """
        # Clock reads happen before taking the lock: an injected clock may be
        # arbitrarily slow (or itself synchronised), and a slow call under the
        # cache lock would stall every other cache user.
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if record:
                    self.stats.misses += 1
                return default
            if self.ttl is not None and now - entry.stored_at > self.ttl:
                del self._entries[key]
                self.stats.expirations += 1
                if record:
                    self.stats.misses += 1
                return default
            entry.last_used_at = now
            self._entries.move_to_end(key)
            if record:
                self.stats.hits += 1
            return entry.value

    def note_hit(self) -> None:
        """Count a hit that was observed through an unrecorded lookup."""
        with self._lock:
            self.stats.hits += 1

    def note_miss(self) -> None:
        """Count a miss for an unrecorded lookup — e.g. an entry that was
        found but failed a caller-side liveness check (stale solver version,
        re-registered table) and will not be used."""
        with self._lock:
            self.stats.misses += 1

    def note_refresh(self) -> None:
        """Count a stale entry handed to the delta-refresh path.

        Locked like every other stats mutation so concurrent refreshes over
        one appended table never lose an increment."""
        with self._lock:
            self.stats.refreshes += 1

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting the LRU entry if needed.

        Every :data:`PURGE_EVERY_PUTS`-th put also runs an opportunistic
        :meth:`purge_expired` sweep, so TTL-expired entries whose keys are
        never looked up again are still reclaimed (amortised, without a
        background thread).
        """
        if not self.enabled:
            return
        now = self._clock()  # hoisted: never call the clock under the lock
        with self._lock:
            if key in self._entries:
                self._entries[key] = _Entry(value=value, stored_at=now, last_used_at=now)
                self._entries.move_to_end(key)
            else:
                self._entries[key] = _Entry(value=value, stored_at=now, last_used_at=now)
                if self.max_size is not None and len(self._entries) > self.max_size:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            self.stats.puts += 1
            if self.ttl is not None:
                self._puts_since_purge += 1
                if self._puts_since_purge >= self.PURGE_EVERY_PUTS:
                    self._purge_expired_locked(now)

    def purge_expired(self) -> int:
        """Drop every TTL-expired entry now; returns how many were reclaimed.

        Expired entries normally die lazily when their key is looked up
        again; this sweep reclaims the ones nobody will ever retouch.  Safe
        (and a no-op) without a TTL.
        """
        if self.ttl is None:
            return 0
        now = self._clock()  # hoisted: never call the clock under the lock
        with self._lock:
            return self._purge_expired_locked(now)

    def _purge_expired_locked(self, now: float) -> int:
        """Sweep expired entries under the already-held lock."""
        self._puts_since_purge = 0
        if self.ttl is None:
            return 0
        expired = [
            key
            for key, entry in self._entries.items()
            if now - entry.stored_at > self.ttl
        ]
        for key in expired:
            del self._entries[key]
        self.stats.expirations += len(expired)
        self.stats.purged += len(expired)
        return len(expired)

    def keys(self) -> List[Hashable]:
        """Current keys in recency order (oldest first)."""
        with self._lock:
            return list(self._entries.keys())

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Current ``(key, value)`` pairs in recency order (oldest first)."""
        with self._lock:
            return [(key, entry.value) for key, entry in self._entries.items()]

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> Dict[str, float]:
        """All counters plus the current size, read atomically.

        One lock acquisition for the whole snapshot: per-field reads on
        :attr:`stats` can interleave with concurrent updates (hits observed
        after misses were read, and so on), which makes polled metrics drift
        under load.  Metric pollers should use this instead of reading
        ``stats`` field by field.
        """
        with self._lock:
            return {
                **self.stats.snapshot(),
                "size": len(self._entries),
            }

    def __contains__(self, key: object) -> bool:
        now = self._clock()  # hoisted: never call the clock under the lock
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if self.ttl is not None and now - entry.stored_at > self.ttl:
                return False
            return True

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(size={len(self)}, max_size={self.max_size}, "
            f"ttl={self.ttl}, hit_rate={self.stats.hit_rate:.2f})"
        )
