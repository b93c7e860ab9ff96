"""``repro.obs`` — metrics, tracing and exporters for the query stack.

One rule says which store holds a number: an object's own snapshot is the
home of what it counts; ``QueryService.stats()`` pulls everything one service
owns; the registry holds only what no object owns (the names in
:data:`repro.obs.metrics.REGISTRY_OWNED`), plus collectors that read by pull.

Three layers, all opt-in-cheap:

* :mod:`repro.obs.metrics` — a process-global, lock-striped
  :class:`MetricsRegistry` of labelled ``Counter``/``Gauge``/``Histogram``
  instruments.  Disabled by default (every site writes to a shared no-op);
  :func:`enable_metrics` turns it on and
  :meth:`MetricsRegistry.snapshot` reads everything at once.
* :mod:`repro.obs.trace` — per-query :class:`Trace`/:class:`Span` trees
  with wall time and exact work-counter deltas, bound to the handling
  context via :mod:`contextvars`.
* :mod:`repro.obs.export` — Prometheus text, JSON-lines trace sink,
  :class:`SlowQueryLog` (threshold-triggered trace retention).

The serving layer wires these together:
``QueryService.stats()`` and ``QueryService.set_trace_sink(...)``
are the public surface most users need.
"""

from repro.obs.export import (
    CollectingTraceSink,
    JsonLinesTraceSink,
    SlowQueryLog,
    metrics_json,
    prometheus_text,
    write_prometheus_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    counter,
    disable_metrics,
    enable_metrics,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from repro.obs.trace import (
    Span,
    Trace,
    current_span,
    current_trace,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "get_registry",
    "set_registry",
    "enable_metrics",
    "disable_metrics",
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
