"""Tests for the labelled metrics registry and its exporters."""

from __future__ import annotations

import json
import math
import re
import threading

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_registry,
    metrics_json,
    prometheus_text,
)
from repro.obs.metrics import Counter, Gauge, Histogram, counter as global_counter


@pytest.fixture(autouse=True)
def _restore_null_registry():
    yield
    disable_metrics()


class TestCounterAndGauge:
    def test_counter_increments(self):
        c = Counter("c_total")
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_counter_rejects_negative(self):
        c = Counter("c_total")
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0.0

    def test_gauge_set_inc_dec(self):
        g = Gauge("g")
        g.set(10)
        g.inc(2.5)
        g.dec()
        assert g.value == 11.5

    def test_counter_thread_safety(self):
        c = Counter("c_total")

        def hammer():
            for _ in range(5000):
                c.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.mean is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_sample_is_exact_at_every_quantile(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        h.observe(3.3)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.3)
        assert h.mean == pytest.approx(3.3)

    def test_bucket_boundary_observations_are_exact(self):
        """Values landing exactly on bucket bounds use ``le`` semantics."""
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (1.0, 2.0, 5.0):
            h.observe(value)
        assert h.quantile(1 / 3) == pytest.approx(1.0)
        assert h.quantile(2 / 3) == pytest.approx(2.0)
        assert h.quantile(1.0) == pytest.approx(5.0)
        # snapshot buckets: one observation each, nothing in +inf
        snap = h.snapshot()
        assert snap["buckets"] == {"1.0": 1, "2.0": 1, "5.0": 1, "+inf": 0}

    def test_overflow_bucket_clamps_to_observed_max(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(50.0)
        assert h.snapshot()["buckets"]["+inf"] == 1

    def test_quantile_within_one_bucket_width(self):
        h = Histogram("h", buckets=tuple(float(b) for b in range(1, 11)))
        values = [0.5 + i * 0.093 for i in range(100)]
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99):
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            assert abs(h.quantile(q) - exact) <= 1.0  # one bucket width

    def test_percentiles_helper(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.5)
        assert set(h.percentiles(50, 99)) == {"p50", "p99"}

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))  # duplicated bound
        # omitted buckets fall back to the default latency bounds; an empty
        # sequence is a caller error, not "absent"
        from repro.obs import DEFAULT_LATENCY_BUCKETS

        assert Histogram("h").buckets == DEFAULT_LATENCY_BUCKETS
        assert Histogram("h", buckets=None).buckets == DEFAULT_LATENCY_BUCKETS
        with pytest.raises(ValueError, match="non-empty"):
            Histogram("h", buckets=())
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_same_identity_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", udf="f", table="t")
        b = registry.counter("x_total", table="t", udf="f")  # kwargs reordered
        assert a is b
        assert registry.counter("x_total", udf="g") is not a

    def test_label_values_are_stringified(self):
        registry = MetricsRegistry()
        registry.counter("x_total", shard=3).inc()
        assert registry.snapshot()["counters"] == {'x_total{shard="3"}': 1.0}

    def test_snapshot_sections(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.register_collector("caches", lambda: {"hits": 3, "misses": 1})
        snap = registry.snapshot()
        assert snap["counters"] == {"c_total": 2.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["collected"] == {"caches": {"hits": 3, "misses": 1}}

    def test_histogram_buckets_apply_only_at_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=(1.0, 2.0))
        again = registry.histogram("h", buckets=(9.0,))
        assert again is first
        assert first.buckets == (1.0, 2.0)

    def test_concurrent_creation_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("racy_total", k="v"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestGlobalRegistry:
    def test_disabled_by_default(self):
        assert get_registry() is NULL_REGISTRY
        # no-op instruments: incrementing must not create state anywhere
        global_counter("ghost_total", a="b").inc(100)
        assert get_registry().snapshot() == {}

    def test_enable_disable_roundtrip(self):
        live = enable_metrics()
        assert get_registry() is live
        global_counter("real_total").inc()
        assert live.snapshot()["counters"] == {"real_total": 1.0}
        disable_metrics()
        assert get_registry() is NULL_REGISTRY

    def test_enable_with_existing_registry(self):
        mine = MetricsRegistry()
        assert enable_metrics(mine) is mine
        assert get_registry() is mine


class TestExporters:
    def test_prometheus_text_null_registry(self):
        assert "metrics disabled" in prometheus_text(NULL_REGISTRY)

    def test_prometheus_text_layout(self):
        registry = MetricsRegistry()
        registry.counter("req_total", path="warm").inc(3)
        registry.gauge("rows", table="t").set(10)
        registry.histogram("lat_seconds", buckets=(1.0, 2.0)).observe(1.5)
        text = prometheus_text(registry)
        assert "# TYPE req_total counter" in text
        assert 'req_total{path="warm"} 3' in text
        assert 'rows{table="t"} 10' in text
        # cumulative buckets + the implicit +Inf bound, then sum/count
        assert 'lat_seconds_bucket{le="1.0"} 0' in text
        assert 'lat_seconds_bucket{le="2.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 1.5" in text
        assert "lat_seconds_count 1" in text

    def test_prometheus_text_collected_metrics(self):
        registry = MetricsRegistry()
        registry.register_collector("plans", lambda: {"hits": 4, "note": "text"})
        text = prometheus_text(registry)
        assert "plans_hits 4" in text
        assert "note" not in text  # non-numeric collector values are skipped

    def test_prometheus_text_escapes_label_values(self):
        # Label values are caller-supplied (table names are arbitrary
        # strings): one sample must stay one well-formed line.
        name = 'orders "2024"\nx\\y'
        registry = MetricsRegistry()
        registry.counter("repro_table_appends_total", table=name).inc()
        lines = [
            line
            for line in prometheus_text(registry).splitlines()
            if not line.startswith("#")
        ]
        sample = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$")
        assert all(sample.match(line) for line in lines)
        (line,) = lines
        escaped = re.fullmatch(
            r'repro_table_appends_total\{table="(.*)"\} 1', line
        ).group(1)
        unescaped = re.sub(
            r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), escaped
        )
        assert unescaped == name
        # snapshot keys use the same rendering as the text
        assert list(registry.snapshot()["counters"]) == [line.rsplit(" ", 1)[0]]

    def test_metrics_json_is_stable_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        payload = json.loads(metrics_json(registry.snapshot()))
        assert payload["counters"] == {"c_total": 1.0}
