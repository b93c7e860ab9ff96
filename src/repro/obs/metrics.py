"""The service's latency instrument: a fixed-bucket histogram.

Every counter has one home, written once per event: the object that sees
the event counts it and exposes a snapshot (``udf.counter_snapshot()``,
``LRUCache.snapshot()``, ``ResidencyManager.snapshot()``,
``CircuitBreaker.snapshot()``, ``storage_counters()``, ...), and
:meth:`repro.serving.QueryService.stats` pulls everything one service owns.
There is no second, process-global store: :func:`repro.obs.export.prometheus_text`
renders those snapshots directly.

The one distribution a snapshot cannot hold as a plain number is request
latency, so :class:`Histogram` lives here: fixed buckets with exact summary
statistics (count, sum, min, max).  :meth:`Histogram.quantile` locates the
target rank's bucket and interpolates linearly inside it, clamping to the
observed ``[min, max]`` range — so an empty histogram reports ``None``, a
single-sample histogram reports exactly that sample, and every estimate is
within one bucket width of the true order statistic.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple, Union

#: Default latency buckets (seconds): ~100 µs to 10 s, roughly geometric.
#: The serving path spans ~0.5 ms (warm hit) to seconds (cold 1M-row plans),
#: so quantile interpolation stays within a small relative error across it.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max and quantiles.

    ``buckets`` are ascending upper bounds (Prometheus ``le`` semantics: an
    observation lands in the first bucket whose bound is >= the value); an
    implicit ``+inf`` bucket catches the overflow.  The serving layer
    keeps one per request path (``QueryService.stats().latency_ms``).
    Thread safe.
    """

    __slots__ = ("buckets", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, buckets: Optional[Sequence[float]] = None):
        chosen = DEFAULT_LATENCY_BUCKETS if buckets is None else buckets
        bounds = tuple(float(b) for b in chosen)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be non-empty and ascending, got {bounds}")
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
