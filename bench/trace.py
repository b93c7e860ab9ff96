"""Benchmark-side span tracing: timing wrappers interposed from outside.

The program under test is not edited.  :class:`Tracer` replaces the public
callables named in :mod:`bench.layers` with timing wrappers for the length
of one traced pass and puts the originals back afterwards.  Every wrapped
call records one span — name, start, end, the span that caused it and the
id of the benchmark operation it belongs to.  Spans stay in memory until
the pass is over; :func:`write_spans` writes them out.

The "current span" lives in a :class:`contextvars.ContextVar`, which is
per thread for threads and per task for asyncio, so interleaved coroutines
on one event-loop thread keep separate parents.  A span opened on a thread
that cannot see the caller's context (``run_in_executor`` does not copy it)
finds its operation through the target's ``op_arg`` — the benchmark passes
the operation id as the request seed — and :func:`link_roots` gives it the
span that was awaiting it as its parent afterwards.

Self time is a span's duration minus the part of it covered by its
children, so the self times of one operation's spans add up to the
operation's latency by construction.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: ``(span_id, op_id)`` of the innermost open span in this thread or task.
_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, Optional[int]]]]" = (
    contextvars.ContextVar("bench_current_span", default=None)
)

#: Name of the root span :meth:`Tracer.op` opens around one operation.
OP_SPAN = "bench.op"


@dataclass(frozen=True)
class Target:
    """One public callable to time: ``<module>.<qualname>``.

    ``layer`` is the module path below ``repro`` the time is booked to and
    ``call`` the short name of the call inside it; a span is named
    ``<layer>.<call>``.  ``op_arg`` names the argument that carries the
    operation id, for calls that may run where the caller's context is not
    visible.
    """

    layer: str
    call: str
    module: str
    qualname: str
    op_arg: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.call}"


class Span(NamedTuple):
    id: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: int  # perf_counter_ns
    end: int
    thread: int


class NullTracer:
    """The untraced pass: same interface, records nothing."""

    spans: Tuple[Span, ...] = ()
    missing: Tuple[str, ...] = ()
    _nothing = contextlib.nullcontext()

    def op(self, op_id: int):
        return self._nothing


class Tracer:
    """Interposes timing wrappers on :class:`Target` callables."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Names of targets that could not be resolved (reported, not fatal).
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._restore: List[Tuple[object, str, object]] = []

    # -- the benchmark's own root span --------------------------------------
    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        span_id = next(self._ids)
        token = _CURRENT.set((span_id, op_id))
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            self.spans.append(
                Span(span_id, OP_SPAN, None, op_id, start, end, threading.get_ident())
            )

    # -- interposition -------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        targets = list(targets)
        # Import every module first: patching scans the loaded modules for
        # copies of a binding, and must see all of them.
        for target in targets:
            try:
                importlib.import_module(target.module)
            except ImportError:
                pass  # reported below, per target
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError) as exc:
                self.missing.append(target.name)
                warnings.warn(
                    f"bench trace target {target.module}.{target.qualname} "
                    f"not found ({exc}); metrics of {target.name} read null",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _install_one(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise AttributeError(f"{owner_name} does not define {attr}")
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patch(owner, attr, raw, wrapped)
            return
        raw = getattr(module, attr)
        wrapped = self._wrap(raw, target)
        # ``from module import attr`` copied the binding into the importing
        # module; a caller there would keep calling the original.
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if name.startswith("repro") and other.__dict__.get(attr) is raw:
                self._patch(other, attr, raw, wrapped)

    def _patch(self, owner: object, attr: str, raw: object, wrapped: object) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _wrap(self, func: Callable[..., Any], target: Target) -> Callable[..., Any]:
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns
        thread_id = threading.get_ident
        name = target.name
        op_arg = target.op_arg
        op_index = (
            list(inspect.signature(func).parameters).index(op_arg)
            if op_arg is not None
            else -1
        )

        def open_span(args, kwargs):
            parent = _CURRENT.get()
            if parent is not None:
                parent_id, op = parent
            else:
                parent_id = None
                op = None
                if op_arg is not None:
                    found = kwargs.get(op_arg)
                    if found is None and len(args) > op_index:
                        found = args[op_index]
                    if isinstance(found, int):
                        op = found
            span_id = next(ids)
            return span_id, parent_id, op, _CURRENT.set((span_id, op))

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def traced_async(*args, **kwargs):
                span_id, parent_id, op, token = open_span(args, kwargs)
                start = clock()
                try:
                    return await func(*args, **kwargs)
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    spans.append(
                        Span(span_id, name, parent_id, op, start, end, thread_id())
                    )

            return traced_async

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id, parent_id, op, token = open_span(args, kwargs)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                _CURRENT.reset(token)
                spans.append(
                    Span(span_id, name, parent_id, op, start, end, thread_id())
                )

        return traced


# -- analysis ----------------------------------------------------------------
def link_roots(spans: Iterable[Span]) -> List[Span]:
    """Give spans that lost their caller's context a parent.

    A span opened on a pool thread has no parent but knows its operation
    (``op_arg``).  Its cause is the innermost span of that operation on
    another thread that was open the whole time it ran — ``submit_async``
    awaiting the pool, or failing that the operation's root span.
    """
    spans = list(spans)
    by_op: Dict[int, List[Span]] = {}
    for span in spans:
        if span.op is not None:
            by_op.setdefault(span.op, []).append(span)
    linked = []
    for span in spans:
        if span.parent is None and span.name != OP_SPAN and span.op is not None:
            around = [
                other
                for other in by_op[span.op]
                if other.thread != span.thread
                and other.start <= span.start
                and other.end >= span.end
            ]
            if around:
                span = span._replace(parent=min(around, key=lambda o: o.end - o.start).id)
        linked.append(span)
    return linked


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> self time in ns (duration minus what children cover)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: Dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def write_spans(path: str, spans: Iterable[Span], selfs: Dict[int, int]) -> None:
    """One JSON object per span; times in ns relative to the first span."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0)
    with open(path, "w", encoding="utf-8") as handle:
        for s in spans:
            handle.write(
                json.dumps(
                    {
                        "id": s.id,
                        "name": s.name,
                        "parent": s.parent,
                        "op": s.op,
                        "start_ns": s.start - origin,
                        "end_ns": s.end - origin,
                        "self_ns": selfs[s.id],
                        "thread": s.thread,
                    },
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
