"""Typed metrics: instrument semantics, registries, exposition."""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (DEFAULT_BUCKET_BOUNDS, Counter, Gauge,
                               Histogram, Registry, render_prometheus)


class TestCounter:
    def test_monotonic_increments(self):
        counter = Counter("requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_moves_both_ways(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 2.0


class TestHistogram:
    def test_bucket_assignment_and_overflow(self):
        hist = Histogram("lat", bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["counts"] == [1, 1, 1, 1]  # last = overflow bucket
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.0555)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(0.1, 0.1))
        with pytest.raises(ValueError):
            Histogram("bad", bounds=())

    def test_default_bounds_are_exact_powers_of_two(self):
        # Exactly representable bounds give every histogram the same
        # bucket layout with no float drift.
        assert DEFAULT_BUCKET_BOUNDS[0] == 2.0 ** -17
        assert DEFAULT_BUCKET_BOUNDS[-1] == 2.0 ** 6
        for left, right in zip(DEFAULT_BUCKET_BOUNDS,
                               DEFAULT_BUCKET_BOUNDS[1:]):
            assert right == left * 2.0

    def test_quantile_upper_bound_estimate(self):
        hist = Histogram("lat", bounds=(0.001, 0.01, 0.1))
        assert hist.quantile(0.5) == 0.0
        for _ in range(9):
            hist.observe(0.005)
        hist.observe(0.05)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(1.0) == 0.1
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestRegistry:
    def test_get_or_create_is_idempotent_and_typed(self):
        registry = Registry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_snapshot_is_jsonable(self):
        registry = Registry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(2.5)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(registry.snapshot()))
        assert snap["counters"] == {"hits": 3}
        assert snap["gauges"] == {"depth": 2.5}
        assert snap["histograms"]["lat"]["count"] == 1


class TestPrometheusRendering:
    def test_counter_gauge_histogram_exposition(self):
        registry = Registry()
        registry.counter("served").inc(3)
        registry.gauge("depth").set(1.5)
        hist = registry.histogram("lat", bounds=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(10.0)
        text = render_prometheus([("reveil_test", registry)])
        lines = text.splitlines()
        assert "# TYPE reveil_test_served_total counter" in lines
        assert "reveil_test_served_total 3" in lines
        assert "# TYPE reveil_test_depth gauge" in lines
        assert "reveil_test_depth 1.5" in lines
        assert "# TYPE reveil_test_lat histogram" in lines
        assert 'reveil_test_lat_bucket{le="1.0"} 1' in lines
        assert 'reveil_test_lat_bucket{le="+Inf"} 2' in lines
        assert "reveil_test_lat_count 2" in lines
        assert text.endswith("\n")

    def test_scalar_mapping_renders_as_gauges(self):
        text = render_prometheus([
            ("reveil_recorder",
             {"spans_started": 4, "label": "skip-me", "live": True}),
        ])
        lines = text.splitlines()
        assert "# TYPE reveil_recorder_spans_started gauge" in lines
        assert "reveil_recorder_spans_started 4.0" in lines
        assert "reveil_recorder_live 1.0" in lines
        # Non-numeric values are skipped, not rendered invalidly.
        assert not any("label" in line for line in lines)

    def test_names_are_sanitized(self):
        registry = Registry()
        registry.counter("per-host[0]").inc()
        text = render_prometheus([("reveil", registry)])
        assert "reveil_per_host_0__total 1" in text
