"""Tests for the latency histogram, the exporters and the removed registry."""

from __future__ import annotations

import importlib
import json
import math

import pytest

import repro
import repro.obs
from repro.obs import Histogram, metrics_json, prometheus_text
from repro.serving.config import ServiceStats


class TestHistogram:
    def test_empty_histogram(self):
        h = Histogram((1.0, 2.0, 5.0))
        assert h.count == 0
        assert h.quantile(0.5) is None
        assert h.mean is None
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None and snap["max"] is None
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_sample_is_exact_at_every_quantile(self):
        h = Histogram((1.0, 2.0, 5.0))
        h.observe(3.3)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(3.3)
        assert h.mean == pytest.approx(3.3)

    def test_bucket_boundary_observations_are_exact(self):
        """Values landing exactly on bucket bounds use ``le`` semantics."""
        h = Histogram((1.0, 2.0, 5.0))
        for value in (1.0, 2.0, 5.0):
            h.observe(value)
        assert h.quantile(1 / 3) == pytest.approx(1.0)
        assert h.quantile(2 / 3) == pytest.approx(2.0)
        assert h.quantile(1.0) == pytest.approx(5.0)
        # snapshot buckets: one observation each, nothing in +inf
        snap = h.snapshot()
        assert snap["buckets"] == {"1.0": 1, "2.0": 1, "5.0": 1, "+inf": 0}

    def test_overflow_bucket_clamps_to_observed_max(self):
        h = Histogram((1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.99) == pytest.approx(50.0)
        assert h.snapshot()["buckets"]["+inf"] == 1

    def test_quantile_within_one_bucket_width(self):
        h = Histogram(tuple(float(b) for b in range(1, 11)))
        values = [0.5 + i * 0.093 for i in range(100)]
        for v in values:
            h.observe(v)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99):
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            assert abs(h.quantile(q) - exact) <= 1.0  # one bucket width

    def test_percentiles_helper(self):
        h = Histogram((1.0, 2.0))
        h.observe(1.5)
        assert set(h.percentiles(50, 99)) == {"p50", "p99"}

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))  # duplicated bound
        # omitted buckets fall back to the default latency bounds; an empty
        # sequence is a caller error, not "absent"
        from repro.obs import DEFAULT_LATENCY_BUCKETS

        assert Histogram().buckets == DEFAULT_LATENCY_BUCKETS
        assert Histogram(None).buckets == DEFAULT_LATENCY_BUCKETS
        with pytest.raises(ValueError, match="non-empty"):
            Histogram(())
        h = Histogram((1.0,))
        with pytest.raises(ValueError):
            h.quantile(0.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestExporters:
    def test_prometheus_text_of_no_sources_is_empty(self):
        assert prometheus_text({}) == "\n"

    def test_prometheus_text_layout(self):
        text = prometheus_text(
            {"plans": {"hits": 4, "hit_rate": 0.5, "note": "text"}, "rows": {"t": 10.0}}
        )
        assert text.splitlines() == [
            "# TYPE plans_hit_rate gauge",
            "plans_hit_rate 0.5",
            "# TYPE plans_hits gauge",
            "plans_hits 4",
            "# TYPE rows_t gauge",
            "rows_t 10",
        ]  # sorted; non-numeric values skipped; integral floats print as ints

    def test_prometheus_names_are_sanitised(self):
        text = prometheus_text({"repro_service": {'udfs_orders "2024"\nx': 1}})
        assert text.splitlines()[-1] == "repro_service_udfs_orders__2024__x 1"

    def test_metrics_json_is_stable_json(self):
        payload = json.loads(metrics_json({"serving": {"queries": 1}}))
        assert payload == {"serving": {"queries": 1}}


class TestRemovedRegistry:
    """Removed in 1.27: the opt-in registry and everything that wrote to it."""

    @pytest.mark.parametrize(
        "name",
        [
            "MetricsRegistry", "NullRegistry", "NULL_REGISTRY", "Counter", "Gauge",
            "REGISTRY_OWNED", "PROCESS_COLLECTORS", "get_registry", "set_registry",
            "enable_metrics", "disable_metrics", "counter", "gauge", "histogram",
        ],
    )
    def test_registry_names_are_gone(self, name):
        metrics = importlib.import_module("repro.obs.metrics")
        for owner in (metrics, repro.obs, repro):
            with pytest.raises(AttributeError):
                getattr(owner, name)

    def test_importing_a_removed_name_fails(self):
        with pytest.raises(ImportError):
            from repro.obs import enable_metrics  # noqa: F401
        with pytest.raises(ImportError):
            from repro.obs.metrics import MetricsRegistry  # noqa: F401

    def test_no_registry_field_or_map_latency_name(self):
        assert "registry" not in ServiceStats.__dataclass_fields__
        residency = importlib.import_module("repro.db.residency")
        with pytest.raises(AttributeError):
            getattr(residency, "MAP_LATENCY_HISTOGRAM")
