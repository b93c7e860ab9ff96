"""Structured per-query tracing: span trees with work-counter deltas.

A :class:`Trace` is one query's timeline: a tree of :class:`Span` records
(plan-lookup → column-selection → sampling → solve → execute → per-shard
spans → refresh) each carrying wall time and *work counters* — the paper's
cost-model quantities (``udf_evals``, ``retrievals``) attributed to the
span in which they were incurred.

Propagation uses :mod:`contextvars`: :meth:`Trace.activate` binds the
trace's root span into :data:`_CURRENT_SPAN`, and every
:func:`span` entered after that parents itself under the context's current
span.  The span executors open their per-shard spans on the calling
thread — the process executor while it settles each worker's span — so
they land under the query's ``execute`` span and a 1M-row sharded query
still yields one coherent tree.  Because the binding
is per-context, concurrent queries through the same service — even ones
waiting on one another's flight — never see each other's spans.

Work-counter exactness comes from two disciplines:

* **Serial spans** pass their :class:`~repro.db.udf.CostLedger` to
  :func:`span`; the span snapshots ``retrieved/evaluated`` on entry and
  records the delta on exit.  Within one request these sections run on one
  thread, so the delta is exactly the work done inside the span.
* **Shard spans** never diff the ledger.  Instead the executor calls
  :meth:`Span.add` with the exact per-shard amounts it charges, so the
  leaf spans sum to the query total by construction.

Like the metrics registry, tracing is opt-in-cheap: with no active trace
:func:`span` returns a shared no-op context manager and touches neither
locks nor the clock.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar, Token
from typing import Any, Dict, List, Optional

#: The span new child spans attach under, bound per execution context.
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar("repro_obs_span", default=None)


class Span:
    """One named section of a trace: wall time plus work-counter deltas.

    Spans form a tree through ``parent_id``; ``work`` maps counter names
    (``udf_evals``, ``retrievals``, shard row counts, ...) to the amount
    incurred inside the span.  Instances are created through
    :meth:`Trace.span` / the module-level :func:`span` helper, not
    directly.
    """

    __slots__ = (
        "trace", "span_id", "parent_id", "name", "started_at", "duration_s",
        "_work", "_ledger", "_ledger_before", "_token",
    )

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        ledger: Any = None,
    ):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.started_at = time.perf_counter()
        self.duration_s: Optional[float] = None
        # Lazily allocated on first add/annotate: most spans carry no work
        # counters, and skipping two allocations per span keeps tracing's
        # GC pressure down on the serving hot path.
        self._work: Optional[Dict[str, float]] = None
        self._ledger = ledger
        self._ledger_before = (
            (ledger.retrieved_count, ledger.evaluated_count) if ledger is not None else None
        )
        self._token: Optional[Token] = None

    def __enter__(self) -> "Span":
        """Bind this span as the context's current span for a ``with`` body.

        The span doubles as its own context manager — one object and one
        call layer fewer per span than a wrapper section, which matters at
        a handful of spans per served query.
        """
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self._close()

    @property
    def work(self) -> Dict[str, float]:
        """Work counters attributed to this span (empty when none)."""
        work = self._work
        return work if work is not None else {}

    def add(self, key: str, amount: float) -> None:
        """Attribute ``amount`` of work counter ``key`` to this span."""
        if not amount:
            return
        with self.trace._lock:
            work = self._work
            if work is None:
                work = self._work = {}
            work[key] = work.get(key, 0) + amount

    def annotate(self, key: str, value: Any) -> None:
        """Record a non-additive fact (a count, a label) on the span."""
        with self.trace._lock:
            work = self._work
            if work is None:
                work = self._work = {}
            work[key] = value

    def _close(self) -> None:
        self.duration_s = time.perf_counter() - self.started_at
        if self._ledger is not None:
            before_retrieved, before_evaluated = self._ledger_before
            self.add("retrievals", self._ledger.retrieved_count - before_retrieved)
            self.add("udf_evals", self._ledger.evaluated_count - before_evaluated)
            self._ledger = None

    def to_dict(self) -> Dict[str, Any]:
        """The span as a plain dict (used by sinks and ``Trace.to_dict``)."""
        with self.trace._lock:
            work = dict(self._work) if self._work is not None else {}
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "duration_ms": None if self.duration_s is None else self.duration_s * 1000.0,
            "work": work,
        }


class _NullSpan:
    """Shared stand-in yielded when no trace is active."""

    __slots__ = ()

    def add(self, key: str, amount: float) -> None:
        pass

    def annotate(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class Trace:
    """One query's span tree.

    Create, :meth:`activate` inside the handling context, wrap sections in
    :func:`span`, then :meth:`finish`.  Span creation is thread-safe; activation
    tokens are context-local.
    """

    def __init__(self, name: str, query_id: Any = None):
        self.name = name
        self.query_id = query_id
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self.root = self._new_span(name, parent=None, ledger=None)
        self._token: Optional[Token] = None

    def _new_span(self, name: str, parent: Optional[Span], ledger: Any) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            created = Span(
                self,
                span_id,
                parent.span_id if parent is not None else None,
                name,
                ledger=ledger,
            )
            self.spans.append(created)
            return created

    def activate(self) -> None:
        """Bind this trace's root span as the context's current span."""
        self._token = _CURRENT_SPAN.set(self.root)

    def deactivate(self) -> None:
        """Undo :meth:`activate` (restores the previous binding, if any)."""
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None

    def finish(self) -> "Trace":
        """Close the root span (and any spans left open) and deactivate."""
        for open_span in self.spans:
            if open_span.duration_s is None:
                open_span._close()
        self.deactivate()
        return self

    def span(
        self, name: str, parent: Optional[Span] = None, ledger: Any = None
    ) -> Span:
        """Open a child span under ``parent`` (default: context's current).

        The returned span is its own context manager: while the ``with``
        body runs it is the context's current span, so nested :func:`span`
        calls — including ones on threads that inherited this context —
        attach beneath it.
        """
        if parent is None:
            parent = _CURRENT_SPAN.get() or self.root
        return self._new_span(name, parent=parent, ledger=ledger)

    @property
    def duration_ms(self) -> Optional[float]:
        """Root span wall time in milliseconds (``None`` until finished)."""
        return None if self.root.duration_s is None else self.root.duration_s * 1000.0

    def work_total(self, key: str) -> float:
        """Sum of work counter ``key`` across every span in the tree."""
        with self._lock:
            spans = list(self.spans)
        total = 0.0
        for recorded in spans:
            value = recorded.work.get(key, 0)
            if isinstance(value, (int, float)):
                total += value
        return total

    def to_dict(self) -> Dict[str, Any]:
        """The whole trace as one JSON-serialisable dict."""
        with self._lock:
            spans = list(self.spans)
        return {
            "trace": self.name,
            "query_id": self.query_id,
            "duration_ms": self.duration_ms,
            "spans": [recorded.to_dict() for recorded in spans],
        }

    def format_tree(self) -> str:
        """Human-readable indented rendering of the span tree.

        Children print in span-creation order, which is deterministic for
        serial sections; shard spans are ordered by their deterministic
        ``shard:<i>`` names so parallel scheduling never changes the
        rendering.
        """
        with self._lock:
            spans = list(self.spans)
        children: Dict[Optional[int], List[Span]] = {}
        for recorded in spans:
            children.setdefault(recorded.parent_id, []).append(recorded)
        for siblings in children.values():
            siblings.sort(key=lambda entry: (entry.name.split(":")[0], entry.name, entry.span_id))
        lines: List[str] = []

        def render(node: Span, depth: int) -> None:
            duration = (
                "..." if node.duration_s is None else f"{node.duration_s * 1000.0:.2f}ms"
            )
            work = ""
            if node.work:
                inner = ", ".join(
                    f"{key}={value:g}" if isinstance(value, float) else f"{key}={value}"
                    for key, value in sorted(node.work.items())
                )
                work = f"  [{inner}]"
            lines.append(f"{'  ' * depth}{node.name}  {duration}{work}")
            for child in children.get(node.span_id, []):
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)


class _NullSection:
    """Shared, stateless no-op section for instrumented code with no trace."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SECTION = _NullSection()


def current_span() -> Optional[Span]:
    """The context's current span, or ``None`` when tracing is inactive."""
    return _CURRENT_SPAN.get()


def current_trace() -> Optional[Trace]:
    """The context's active trace, or ``None`` when tracing is inactive."""
    active = _CURRENT_SPAN.get()
    return active.trace if active is not None else None


def span(name: str, ledger: Any = None):
    """Open a child span under the context's current span, if any.

    The instrumentation entry point: inside an active trace this returns a
    new child span (its own context manager); with no trace active it
    yields a shared no-op span without touching the clock, so instrumented
    code pays ~one ``ContextVar.get`` when tracing is off.
    """
    active = _CURRENT_SPAN.get()
    if active is None:
        return _NULL_SECTION
    return active.trace._new_span(name, parent=active, ledger=ledger)
