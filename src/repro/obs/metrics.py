"""Labelled metrics registry: counters, gauges and latency histograms.

Every counter has one home, written once per event:

* an object's own snapshot is the home of what it counts
  (``udf.counter_snapshot()``, ``LRUCache.snapshot()``,
  ``ResidencyManager.snapshot()``, ``CircuitBreaker.snapshot()``, ...);
* :meth:`repro.serving.QueryService.stats` pulls everything one service owns;
* the registry holds only what no object owns — the instruments named in
  :data:`REGISTRY_OWNED` — plus *collectors*, which read a home by pull at
  snapshot time (:data:`PROCESS_COLLECTORS` for the process-wide stores;
  ``register_collector("repro_service", lambda: service.stats().flat())``
  for one service).

Cost discipline
---------------

Metrics are **opt-in**: the process-global registry defaults to
:data:`NULL_REGISTRY`, whose instruments are a shared singleton with no-op
methods — an instrumentation site costs two attribute-free calls and
touches no locks, so the tier-1 work counters and benchmark counters are
bitwise identical whether or not the obs layer is imported.  Call
:func:`enable_metrics` to install a live registry (and
:func:`disable_metrics` to restore the null one).  Live instruments are
created on first use under one of :data:`_STRIPES` stripe locks (keyed by
instrument identity, so unrelated metrics never contend) and each
instrument carries its own lock, keeping concurrent increments exact —
requests served on several threads update the same counters.

Histograms are fixed-bucket with exact summary statistics (count, sum,
min, max).  :meth:`Histogram.quantile` locates the target rank's bucket
and interpolates linearly inside it, clamping to the observed ``[min,
max]`` range — so an empty histogram reports ``None``, a single-sample
histogram reports exactly that sample, and every estimate is within one
bucket width of the true order statistic.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: A frozen, sorted label set — the hashable part of an instrument's identity.
LabelSet = Tuple[Tuple[str, str], ...]

#: Number of stripe locks guarding instrument creation in a live registry.
_STRIPES = 16

#: Every instrument name the library itself writes — events with no owning
#: object to count them (``tests/obs/test_single_home.py`` holds the registry
#: to this list).
REGISTRY_OWNED: Tuple[str, ...] = (
    "repro_executor_runs_total",  # {backend}
    "repro_executor_fallbacks_total",  # {backend, reason}
    "repro_executor_direct_attach_total",  # {backend}
    "repro_executor_retried_spans_total",  # {backend}; also on an attached breaker
    "repro_solver_calls_total",  # {strategy}
    "repro_breaker_transitions_total",  # {to}
    "repro_table_appends_total",  # {table}
    "repro_table_rows_appended_total",  # {table}
    "repro_table_rows",  # {table}, gauge
    "repro_table_data_generation",  # {table}, gauge
    "repro_residency_map_latency_seconds",  # histogram
)

#: Pull sources for the process-wide stores (storage event counters,
#: ``GroupIndex`` class totals, residency totals), filled at import by the
#: module that owns each store and attached to every registry
#: :func:`set_registry` installs.  A never-installed registry has none.
PROCESS_COLLECTORS: Dict[str, Callable[[], Mapping[str, Any]]] = {}

#: Default latency buckets (seconds): ~100 µs to 10 s, roughly geometric.
#: The serving path spans ~0.5 ms (warm hit) to seconds (cold 1M-row plans),
#: so quantile interpolation stays within a small relative error across it.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_set(labels: Mapping[str, Any]) -> LabelSet:
    """Canonicalise a label mapping (sorted, stringified values)."""
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


#: The exposition format's label-value escapes: label values are
#: caller-supplied (table names are arbitrary strings).
_LABEL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n"})


def label_suffix(labels: LabelSet) -> str:
    """Render a label set as the ``{k="v",...}`` suffix used in snapshots."""
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value.translate(_LABEL_ESCAPES)}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing counter (thread-safe)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only increase; got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (thread-safe)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: Union[int, float]) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (may be negative) to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max and quantiles.

    ``buckets`` are ascending upper bounds (Prometheus ``le`` semantics: an
    observation lands in the first bucket whose bound is >= the value); an
    implicit ``+inf`` bucket catches the overflow.  Usable standalone (the
    serving layer keeps per-path latency histograms without any registry)
    or through :meth:`MetricsRegistry.histogram`.
    """

    __slots__ = (
        "name", "labels", "buckets", "_lock",
        "_counts", "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        name: str = "",
        buckets: Optional[Sequence[float]] = None,
        labels: LabelSet = (),
    ):
        chosen = DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
        bounds = tuple(float(b) for b in chosen)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be non-empty and ascending, got {bounds}")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # trailing +inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        value = float(value)
        position = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[position] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> Optional[float]:
        """Mean observation (``None`` when empty)."""
        with self._lock:
            return self._sum / self._count if self._count else None

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (``0 < q <= 1``), or ``None`` when empty.

        The target rank ``ceil(q * count)`` is located to its bucket, then
        linearly interpolated between the bucket's effective bounds and
        clamped to the observed ``[min, max]`` — exact for empty and
        single-sample histograms and never off by more than a bucket width.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if not self._count:
                return None
            target = max(1, math.ceil(q * self._count))
            cumulative = 0
            for position, bucket_count in enumerate(self._counts):
                if not bucket_count:
                    continue
                if cumulative + bucket_count >= target:
                    lower = self.buckets[position - 1] if position else -math.inf
                    upper = (
                        self.buckets[position]
                        if position < len(self.buckets)
                        else math.inf
                    )
                    # Tighten the interpolation interval with the exact
                    # range: the first/last buckets (and ±inf bounds) would
                    # otherwise stretch the estimate past any observation.
                    lower = max(lower, self._min)
                    upper = min(upper, self._max)
                    fraction = (target - cumulative) / bucket_count
                    return lower + fraction * (upper - lower)
                cumulative += bucket_count
            return self._max  # unreachable: target <= count  # pragma: no cover

    def percentiles(self, *points: float) -> Dict[str, Optional[float]]:
        """``{"p50": ..., "p99": ...}`` for percentile ``points`` (0-100)."""
        return {f"p{point:g}": self.quantile(point / 100.0) for point in points}

    def snapshot(self) -> Dict[str, Any]:
        """Counts per bucket plus summary statistics, read atomically."""
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
            minimum = self._min if self._count else None
            maximum = self._max if self._count else None
        snap: Dict[str, Any] = {
            "count": count,
            "sum": total,
            "min": minimum,
            "max": maximum,
            "buckets": {
                ("+inf" if position == len(self.buckets) else repr(self.buckets[position])): c
                for position, c in enumerate(counts)
            },
        }
        for point in (50, 95, 99):
            snap[f"p{point}"] = self.quantile(point / 100.0)
        return snap


class _NullInstrument:
    """Shared no-op instrument handed out by the null registry."""

    __slots__ = ()

    def inc(self, amount: Union[int, float] = 1) -> None:
        pass

    def dec(self, amount: Union[int, float] = 1) -> None:
        pass

    def set(self, value: Union[int, float]) -> None:
        pass

    def observe(self, value: Union[int, float]) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The near-zero-cost default: every instrument is a shared no-op."""

    def counter(self, name: str, **labels: Any) -> Any:
        return NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> Any:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Any:
        return NULL_INSTRUMENT

    def register_collector(
        self, name: str, collect: Callable[[], Mapping[str, Any]]
    ) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {}

    instrument_snapshot = snapshot


NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Thread-safe, lock-striped registry of labelled instruments.

    Instruments are created lazily on first use and live for the registry's
    lifetime.  Creation takes one of :data:`_STRIPES` stripe locks keyed by
    the instrument's ``(kind, name, labels)`` identity, so two threads
    instrumenting unrelated metrics never serialise on a global lock; the
    common path (instrument already exists) is a plain dict read.

    ``register_collector`` attaches a pull-style source: a callable
    returning a flat ``{metric: value}`` mapping evaluated at snapshot
    time.  Collectors are how the registry reads a counter whose home is
    elsewhere (a service's ``stats()``, the process-wide stores in
    :data:`PROCESS_COLLECTORS`) without a second write on its hot path.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str, LabelSet], Any] = {}
        self._stripe_locks = tuple(threading.Lock() for _ in range(_STRIPES))
        self._collectors: Dict[str, Callable[[], Mapping[str, Any]]] = {}
        self._collectors_lock = threading.Lock()

    def _create(self, key: Tuple[str, str, LabelSet], factory: Callable[[], Any]) -> Any:
        """Slow path: create (or race-lose and fetch) the instrument for ``key``."""
        stripe = self._stripe_locks[hash(key) % _STRIPES]
        with stripe:
            found = self._instruments.get(key)
            if found is None:
                found = factory()
                self._instruments[key] = found
            return found

    def counter(self, name: str, **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        # Hot path: one tuple build and one dict read, no closure allocation
        # and no label canonicalisation for the common unlabelled call.
        label_set = _label_set(labels) if labels else ()
        key = ("counter", name, label_set)
        found = self._instruments.get(key)
        if found is not None:
            return found
        return self._create(key, lambda: Counter(name, label_set))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        label_set = _label_set(labels) if labels else ()
        key = ("gauge", name, label_set)
        found = self._instruments.get(key)
        if found is not None:
            return found
        return self._create(key, lambda: Gauge(name, label_set))

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use.

        ``buckets`` applies only at creation; later callers get the
        existing instrument regardless of the buckets they pass.
        """
        label_set = _label_set(labels) if labels else ()
        key = ("histogram", name, label_set)
        found = self._instruments.get(key)
        if found is not None:
            return found
        return self._create(
            key, lambda: Histogram(name, buckets=buckets, labels=label_set)
        )

    def register_collector(
        self, name: str, collect: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Attach (or replace) a pull-style metric source named ``name``."""
        with self._collectors_lock:
            self._collectors[name] = collect

    def instruments(self) -> List[Any]:
        """Every live instrument (counters, gauges, histograms)."""
        return list(self._instruments.values())

    def instrument_snapshot(self) -> Dict[str, Any]:
        """What the registry itself owns: ``counters``/``gauges`` map
        ``name{labels}`` to values, ``histograms`` to per-histogram summary
        dicts.  Evaluates no collector, so a collector may call it (through
        ``QueryService.stats()``) without recursing."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for (kind, name, labels), instrument in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            flat = f"{name}{label_suffix(labels)}"
            if kind == "counter":
                counters[flat] = instrument.value
            elif kind == "gauge":
                gauges[flat] = instrument.value
            else:
                histograms[flat] = instrument.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def snapshot(self) -> Dict[str, Any]:
        """Everything the registry knows, as one nested plain dict:
        :meth:`instrument_snapshot` plus ``collected``, each collector's
        mapping (evaluated now)."""
        with self._collectors_lock:
            collectors = dict(self._collectors)
        snap = self.instrument_snapshot()
        snap["collected"] = {name: dict(collect()) for name, collect in collectors.items()}
        return snap


#: The process-global registry instrumentation sites write to.  Swapped as a
#: whole object (never mutated in place), so a site reading it mid-swap sees
#: either the old or the new registry, both safe.
_registry: Union[MetricsRegistry, NullRegistry] = NULL_REGISTRY


def get_registry() -> Union[MetricsRegistry, NullRegistry]:
    """The currently installed process-global registry."""
    return _registry


def set_registry(registry: Union[MetricsRegistry, NullRegistry]) -> None:
    """Install ``registry`` as the process-global registry (and attach the
    :data:`PROCESS_COLLECTORS` to it)."""
    global _registry
    for name, collect in PROCESS_COLLECTORS.items():
        registry.register_collector(name, collect)
    _registry = registry


def enable_metrics(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Install (and return) a live global registry.

    Pass an existing :class:`MetricsRegistry` to re-install it; otherwise a
    fresh one is created.  Until this is called every instrumentation site
    in the library is a no-op.
    """
    live = registry if registry is not None else MetricsRegistry()
    set_registry(live)
    return live


def disable_metrics() -> None:
    """Restore the no-op default registry."""
    set_registry(NULL_REGISTRY)


def counter(name: str, **labels: Any):
    """The global registry's counter for ``(name, labels)`` (no-op by default)."""
    return _registry.counter(name, **labels)


def gauge(name: str, **labels: Any):
    """The global registry's gauge for ``(name, labels)`` (no-op by default)."""
    return _registry.gauge(name, **labels)


def histogram(name: str, buckets: Optional[Sequence[float]] = None, **labels: Any):
    """The global registry's histogram for ``(name, labels)`` (no-op by default)."""
    return _registry.histogram(name, buckets=buckets, **labels)
