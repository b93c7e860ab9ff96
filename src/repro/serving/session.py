"""Client sessions and admission control for the query service.

Each client of a :class:`~repro.serving.service.QueryService` may carry a
UDF-cost budget: the cumulative retrieval + evaluation cost its queries are
allowed to charge.  The machinery reuses the substrate's cost accounting —
each request runs against a :class:`~repro.db.udf.CostLedger` whose hard
budget is set to the session's remaining allowance, so a query that would
overrun is stopped mid-flight by :class:`~repro.db.errors.BudgetExhaustedError`
exactly as `extensions/budget.py` queries are — and the admission layer adds
two cheaper gates in front:

* a client whose budget is already spent is rejected outright, and
* when a cached plan predicts a cost above the remaining allowance, the
  service re-solves with :func:`repro.core.extensions.budget.solve_budgeted_recall`
  to fit the answer into what the client can still afford (degraded mode)
  instead of failing mid-execution.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.db.errors import DatabaseError


class AdmissionError(DatabaseError):
    """A request was refused before execution (client budget exhausted)."""

    def __init__(self, client_id: str, budget: float, spent: float):
        self.client_id = client_id
        self.budget = budget
        self.spent = spent
        super().__init__(
            f"client {client_id!r} rejected: budget={budget}, already spent={spent}"
        )


class ServiceClosed(DatabaseError):
    """A request arrived after :meth:`QueryService.close` began.

    Typed so clients can tell an orderly shutdown from overload or failure:
    in-flight requests at close time drain to completion, but every later
    ``submit``/``submit_async`` raises this immediately.
    """

    def __init__(self) -> None:
        super().__init__(
            "service is closed: new requests are rejected; re-create the "
            "QueryService to resume serving"
        )


class Overloaded(DatabaseError):
    """A request was shed by the async front-end's admission control.

    Raised (never silently dropped) when the per-class pending-request limit
    is full; counted on the service's ``shed`` metric
    (``stats().serving["shed"]``).  Clients should back off and retry.
    """

    def __init__(self, query_class: str, pending: int, limit: int):
        self.query_class = query_class
        self.pending = pending
        self.limit = limit
        super().__init__(
            f"service overloaded: {pending} pending {query_class!r} requests "
            f"at limit {limit}; retry later"
        )


@dataclass
class ClientSession:
    """Per-client accounting: budget, spend, reservations and counters."""

    client_id: str
    budget: Optional[float] = None
    spent: float = 0.0
    reserved: float = 0.0
    admitted: int = 0
    rejected: int = 0
    degraded: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: Held for the duration of each budgeted request: a client's requests
    #: execute one at a time, so budget checks always see settled state and
    #: concurrent arrivals queue instead of being spuriously rejected.
    execution_lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def remaining(self) -> float:
        """Remaining allowance (infinite when the session has no budget)."""
        if self.budget is None:
            return float("inf")
        return max(0.0, self.budget - self.spent)

    def reserve(self) -> Optional[float]:
        """Claim the currently unreserved allowance for one request.

        Concurrent requests from one client each get a disjoint slice of the
        budget (the whole free remainder; later arrivals get what is left),
        so N in-flight requests can never jointly overspend.  Returns the
        granted allowance, or ``None`` for unbudgeted sessions.
        """
        with self._lock:
            if self.budget is None:
                return None
            available = max(0.0, self.budget - self.spent - self.reserved)
            self.reserved += available
            return available

    def settle(self, cost: float, reservation: Optional[float] = None) -> None:
        """Record the actual charged cost and release the request's reservation."""
        with self._lock:
            self.spent += cost
            if reservation is not None:
                self.reserved = max(0.0, self.reserved - reservation)

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict view for result metadata."""
        return {
            "client_id": self.client_id,
            "budget": self.budget,
            "spent": self.spent,
            "reserved": self.reserved,
            "remaining": None if self.budget is None else self.remaining,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "degraded": self.degraded,
        }


_UNSET = object()


class SessionManager:
    """Creates, tracks and admits client sessions.

    Parameters
    ----------
    default_budget:
        Budget assigned to sessions created implicitly on first use;
        ``None`` means unlimited.
    """

    def __init__(self, default_budget: Optional[float] = None):
        if default_budget is not None and default_budget < 0:
            raise ValueError(f"default_budget must be non-negative, got {default_budget}")
        self.default_budget = default_budget
        self._sessions: Dict[str, ClientSession] = {}
        self._lock = threading.Lock()

    def session(self, client_id: str, budget: object = _UNSET) -> ClientSession:
        """The session for ``client_id``, created on first use.

        ``budget`` overrides the default only at creation time; an existing
        session keeps its original allowance.
        """
        with self._lock:
            existing = self._sessions.get(client_id)
            if existing is not None:
                return existing
            allowance = self.default_budget if budget is _UNSET else budget
            created = ClientSession(client_id=client_id, budget=allowance)
            self._sessions[client_id] = created
            return created

    def admit(self, client_id: str) -> ClientSession:
        """Admit a request for ``client_id`` or raise :class:`AdmissionError`.

        Admission only refuses clients with nothing left to spend; budgeted
        clients with a positive remainder are admitted and constrained by
        their ledger's hard budget during execution.
        """
        session = self.session(client_id)
        with session._lock:
            if session.budget is not None and (
                session.budget - session.spent - session.reserved <= 0.0
            ):
                session.rejected += 1
                raise AdmissionError(client_id, session.budget, session.spent)
            session.admitted += 1
        return session

    def sessions(self) -> Dict[str, ClientSession]:
        """All sessions keyed by client id (a shallow copy)."""
        with self._lock:
            return dict(self._sessions)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-client accounting snapshots."""
        return {client_id: s.snapshot() for client_id, s in self.sessions().items()}
