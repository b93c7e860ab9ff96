"""Per-request deadlines with cooperative cancellation.

A :class:`Deadline` is a wall-clock bound carried by one request.  The
serving layer activates it with :func:`deadline_scope` — a
:class:`~contextvars.ContextVar`, so it reaches every library layer below
without threading a parameter through the call graph.  Compute loops then
call :func:`check_deadline` at their natural charge boundaries — per group
in the serial executors, per span in the span executors, before the
sampler's bulk charge, between pipeline steps and at solver entry — and an
expired deadline raises the typed :class:`DeadlineExceeded`.

Cancellation is **cooperative**: a check sits *before* each ledger charge,
so an expired request never pays for further UDF work (the accounting
invariant the resilience tests pin), but a UDF call already in flight runs
to completion — the one thing python cannot interrupt.  The process-pool
executor covers that gap differently: the parent bounds its harvest waits
by the remaining time, so even a worker hung inside a UDF surfaces as
``DeadlineExceeded`` within the deadline plus scheduling grace.

Checks are cheap when no deadline is active (one ``ContextVar`` read) and
one monotonic-clock read when one is, so they are safe at per-group
granularity.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.db.errors import DatabaseError


class DeadlineExceeded(DatabaseError):
    """A request ran past its deadline and was cooperatively cancelled.

    Typed (a :class:`~repro.db.errors.DatabaseError`) so callers can
    distinguish "too slow" from a wrong answer; the service counts every
    raise on its ``deadline_exceeded`` metric, and coalesced followers of a
    timed-out leader receive this same error rather than re-running.
    """

    def __init__(self, timeout_s: float, where: Optional[str] = None):
        self.timeout_s = timeout_s
        self.where = where
        at = f" at {where}" if where else ""
        super().__init__(
            f"deadline of {timeout_s:g}s exceeded{at}; the request was "
            "cancelled cooperatively (no further UDF work was charged)"
        )


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock.

    ``clock`` is injectable so tests can drive expiry deterministically;
    it never participates in equality (two deadlines with the same expiry
    are the same deadline).
    """

    expires_at: float
    timeout_s: float
    clock: Callable[[], float] = field(
        default=time.monotonic, compare=False, repr=False
    )

    @classmethod
    def after(
        cls, timeout_s: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """The deadline ``timeout_s`` seconds from now."""
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        return cls(expires_at=clock() + timeout_s, timeout_s=timeout_s, clock=clock)

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self.expires_at - self.clock()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, where: Optional[str] = None) -> None:
        """Raise :class:`DeadlineExceeded` if this deadline has passed."""
        if self.expired():
            raise DeadlineExceeded(self.timeout_s, where)


#: The active request's deadline (``None`` almost everywhere: deadlines are
#: opt-in per request).
_DEADLINE: ContextVar[Optional[Deadline]] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Optional[Deadline]:
    """The deadline of the current request, or ``None``."""
    return _DEADLINE.get()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Activate ``deadline`` for the dynamic extent of the ``with`` body.

    ``None`` is accepted and is a no-op, so callers can write one
    unconditional ``with deadline_scope(maybe_deadline):``.
    """
    if deadline is None:
        yield None
        return
    token = _DEADLINE.set(deadline)
    try:
        yield deadline
    finally:
        _DEADLINE.reset(token)


def check_deadline(where: Optional[str] = None) -> None:
    """Cooperative cancellation point: raise if the active deadline passed."""
    deadline = _DEADLINE.get()
    if deadline is not None:
        deadline.check(where)
