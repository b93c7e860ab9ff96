"""``repro.obs`` — snapshots, tracing and exporters for the query stack.

Two layers, both read from the objects that do the work:

* **Snapshots, pulled.**  Every counter has one home: the object that sees
  the event counts it (``udf.counter_snapshot()``, ``LRUCache.snapshot()``,
  ``ResidencyManager.snapshot()``, ``CircuitBreaker.snapshot()``,
  ``storage_counters()``, ...), and ``QueryService.stats()`` pulls
  everything one service owns into one typed snapshot.  The only
  instrument kept here is :class:`~repro.obs.metrics.Histogram`, the
  service's per-path latency distribution.
* **Traces.**  :mod:`repro.obs.trace` — per-query :class:`Trace`/:class:`Span`
  trees with wall time and exact work-counter deltas, bound to the handling
  context via :mod:`contextvars`; active only while a sink is installed.

:mod:`repro.obs.export` renders both: :func:`prometheus_text` over named
snapshots (``{"repro_service": service.stats().flat()}``), a JSON-lines
trace sink and :class:`SlowQueryLog` (threshold-triggered trace retention).
``QueryService.stats()`` and ``QueryService.set_trace_sink(...)`` are the
public surface most users need.
"""

from repro.obs.export import (
    CollectingTraceSink,
    JsonLinesTraceSink,
    SlowQueryLog,
    metrics_json,
    prometheus_text,
    write_prometheus_snapshot,
)
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.obs.trace import (
    Span,
    Trace,
    current_span,
    current_trace,
    span,
)

__all__ = [
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "Trace",
    "Span",
    "span",
    "current_span",
    "current_trace",
    "prometheus_text",
    "write_prometheus_snapshot",
    "metrics_json",
    "JsonLinesTraceSink",
    "CollectingTraceSink",
    "SlowQueryLog",
]
