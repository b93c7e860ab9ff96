"""Exporters: Prometheus text, JSON-lines trace sink, slow-query log.

Everything here consumes plain-dict surfaces — the snapshots the owning
objects expose (``QueryService.stats().flat()``, ``storage_counters()``)
and :class:`~repro.obs.trace.Trace` — no scraping library, no agent, just
text you can write to a file, ship as a CI artifact, or point a Prometheus
file-based collector at.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Dict, List, Mapping, Optional, TextIO, Union

from repro.obs.trace import Trace

#: Named pull sources: ``{prefix: {metric: value}}``, e.g.
#: ``{"repro_service": service.stats().flat(), "repro_storage": storage_counters()}``.
Sources = Mapping[str, Mapping[str, Any]]


def _sanitize(name: str) -> str:
    """Make ``name`` a legal Prometheus metric name."""
    return "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def prometheus_text(sources: Sources) -> str:
    """Render the numeric values of ``sources`` in Prometheus text format.

    Each ``(prefix, metric)`` with a numeric value becomes one gauge
    sample named ``<prefix>_<metric>`` (sanitised), in sorted order
    (a boolean reads 1 or 0); non-numeric values are skipped.
    """
    lines: List[str] = []
    for prefix, values in sorted(sources.items()):
        for metric, value in sorted(values.items()):
            if not isinstance(value, (int, float)):
                continue
            name = _sanitize(f"{prefix}_{metric}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(float(value))}")
    return "\n".join(lines) + "\n"


class JsonLinesTraceSink:
    """A trace sink writing one JSON object per finished trace.

    Usable as ``QueryService.set_trace_sink(JsonLinesTraceSink(path))`` or
    with an open stream.  Thread-safe; traces from concurrent queries
    interleave as whole lines, never partially.
    """

    def __init__(self, target: Union[str, TextIO]):
        self._lock = threading.Lock()
        if isinstance(target, str):
            self._stream: TextIO = open(target, "a", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False

    def __call__(self, trace: Trace) -> None:
        line = json.dumps(trace.to_dict(), sort_keys=True, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        """Close the underlying stream if this sink opened it."""
        with self._lock:
            if self._owns_stream:
                self._stream.close()


class CollectingTraceSink:
    """An in-memory sink keeping the last ``capacity`` finished traces."""

    def __init__(self, capacity: int = 128):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: List[Trace] = []

    def __call__(self, trace: Trace) -> None:
        with self._lock:
            self._traces.append(trace)
            if len(self._traces) > self.capacity:
                del self._traces[: len(self._traces) - self.capacity]

    @property
    def traces(self) -> List[Trace]:
        """The retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def slowest(self) -> Optional[Trace]:
        """The retained trace with the longest wall time."""
        with self._lock:
            finished = [t for t in self._traces if t.duration_ms is not None]
            if not finished:
                return None
            return max(finished, key=lambda t: t.duration_ms)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()


class SlowQueryLog:
    """A trace sink keeping (and optionally appending to disk) slow traces.

    Traces whose wall time exceeds ``threshold_ms`` are retained, slowest
    first, up to ``capacity``; with ``path`` set each slow trace is also
    appended to the file as a JSON line at arrival time.  Chain another
    sink to receive *every* trace via composition: this class is itself a
    sink, so ``service.set_trace_sink(slow_log)`` is all the wiring needed.
    """

    def __init__(
        self,
        threshold_ms: float = 100.0,
        capacity: int = 32,
        path: Optional[str] = None,
    ):
        self.threshold_ms = threshold_ms
        self.capacity = capacity
        self.path = path
        self._lock = threading.Lock()
        self._entries: List[Trace] = []

    def __call__(self, trace: Trace) -> None:
        duration = trace.duration_ms
        if duration is None or duration < self.threshold_ms:
            return
        with self._lock:
            self._entries.append(trace)
            self._entries.sort(
                key=lambda t: t.duration_ms if t.duration_ms is not None else 0.0,
                reverse=True,
            )
            del self._entries[self.capacity:]
        if self.path is not None:
            line = json.dumps(trace.to_dict(), sort_keys=True, default=str)
            with self._lock:
                with open(self.path, "a", encoding="utf-8") as stream:
                    stream.write(line + "\n")

    @property
    def entries(self) -> List[Trace]:
        """Retained slow traces, slowest first."""
        with self._lock:
            return list(self._entries)

    def dump(self) -> str:
        """Every retained slow trace rendered as an indented tree."""
        blocks = []
        for trace in self.entries:
            blocks.append(
                f"-- {trace.name} query_id={trace.query_id} "
                f"{trace.duration_ms:.2f}ms\n{trace.format_tree()}"
            )
        return "\n\n".join(blocks)

    def to_json_lines(self) -> str:
        """Every retained slow trace as JSON lines (for artifacts)."""
        return "\n".join(
            json.dumps(trace.to_dict(), sort_keys=True, default=str)
            for trace in self.entries
        ) + ("\n" if self._entries else "")


def write_prometheus_snapshot(sources: Sources, path: str) -> None:
    """Write :func:`prometheus_text` for ``sources`` to ``path``."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(prometheus_text(sources))


def metrics_json(snapshot: Dict[str, Any]) -> str:
    """A stats snapshot (``ServiceStats.to_dict()``) as stable, indented JSON."""
    return json.dumps(snapshot, indent=2, sort_keys=True, default=str)
