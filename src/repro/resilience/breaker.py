"""A circuit breaker over the process-pool execution path.

Transient pool faults — a worker killed mid-span, a segment file a worker
cannot map, a worker hung past the request deadline — are retried once at
span granularity by :class:`~repro.core.procpool.ProcessPoolBatchExecutor`.
When faults keep coming the right move is to stop paying the pool tax
altogether: the breaker **opens** after ``failure_threshold`` consecutive
failures, and while open the process executor runs its spans inline on the
calling thread instead (bitwise-identical answers, just not multi-core), the
service counting each degraded query.  After ``recovery_time_s`` the breaker
**half-opens** and lets up to ``probe_quota`` concurrent probe queries try
the pool again: one success closes it, one failure re-opens it.

The clock is injectable so tests drive the open → half-open transition
deterministically, and every state transition is observable in
:meth:`snapshot` (surfaced through ``QueryService.stats().resilience``):
``state`` and ``opened_count``.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure breaker with timed half-open probing.

    Thread safe; one instance guards one resource (the service's process
    pool).  ``allow()`` is the admission question ("may this call use the
    pool?"), asked by the executor right where it is about to use it —
    never at construction, since an executor that is built but not run
    would keep the slot; the same executor reports back through
    ``record_success`` / ``record_failure``, or ``cancel_probe`` when it
    never actually exercised the pool (fell back before any remote work) so
    half-open probe slots are not leaked.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_time_s: float = 30.0,
        probe_quota: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        if recovery_time_s <= 0:
            raise ValueError(
                f"recovery_time_s must be positive, got {recovery_time_s}"
            )
        if probe_quota < 1:
            raise ValueError(f"probe_quota must be positive, got {probe_quota}")
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self.probe_quota = probe_quota
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._probes_in_flight = 0
        self._failures_total = 0
        self._successes_total = 0
        self._retries_total = 0
        self._opened_count = 0
        self._last_failure_reason: Optional[str] = None

    # -- state machine ---------------------------------------------------------
    def _transition(self, to: str) -> None:
        """Move to ``to`` (caller holds the lock) and count the transition."""
        if self._state == to:
            return
        self._state = to
        if to == OPEN:
            self._opened_count += 1
            self._opened_at = self._clock()
        elif to == CLOSED:
            self._opened_at = None
            self._consecutive_failures = 0
        if to != HALF_OPEN:
            self._probes_in_flight = 0

    def allow(self) -> bool:
        """May a query use the guarded resource right now?

        Closed: always.  Open: no, until ``recovery_time_s`` has passed, at
        which point the breaker half-opens.  Half-open: yes for up to
        ``probe_quota`` concurrent probes, no for everyone else.
        """
        with self._lock:
            if self._state == OPEN:
                assert self._opened_at is not None
                if self._clock() - self._opened_at < self.recovery_time_s:
                    return False
                self._transition(HALF_OPEN)
            if self._state == HALF_OPEN:
                if self._probes_in_flight >= self.probe_quota:
                    return False
                self._probes_in_flight += 1
                return True
            return True

    def record_success(self) -> None:
        """The guarded resource worked: close from half-open, reset the streak."""
        with self._lock:
            self._successes_total += 1
            self._consecutive_failures = 0
            if self._state == HALF_OPEN:
                self._transition(CLOSED)

    def record_failure(self, reason: str = "fault") -> None:
        """A transient fault: advance the streak; trip or re-open as needed."""
        with self._lock:
            self._failures_total += 1
            self._last_failure_reason = reason
            if self._state == HALF_OPEN:
                self._transition(OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._transition(OPEN)

    def cancel_probe(self) -> None:
        """Release a half-open probe slot that never exercised the resource."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    def record_retry(self, count: int = 1) -> None:
        """Count spans that were retried against a respawned pool."""
        with self._lock:
            self._retries_total += count

    # -- observation -----------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing open → half-open when the wait elapsed."""
        with self._lock:
            if (
                self._state == OPEN
                and self._opened_at is not None
                and self._clock() - self._opened_at >= self.recovery_time_s
            ):
                self._transition(HALF_OPEN)
            return self._state

    @property
    def retries_total(self) -> int:
        with self._lock:
            return self._retries_total

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view for ``stats()`` / dashboards."""
        state = self.state  # advances open -> half_open when due
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "failures_total": self._failures_total,
                "successes_total": self._successes_total,
                "retried_spans": self._retries_total,
                "opened_count": self._opened_count,
                "probes_in_flight": self._probes_in_flight,
                "failure_threshold": self.failure_threshold,
                "recovery_time_s": self.recovery_time_s,
                "last_failure_reason": self._last_failure_reason,
            }
