"""Unit tests for the metrics registry and its metric kinds."""

import pytest

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        c = Counter("work")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("work").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("size")
        assert g.value is None
        g.set(3)
        g.set(7)
        assert g.value == 7


class TestHistogram:
    def test_empty_summary(self):
        assert Histogram("h").summary()["count"] == 0

    def test_summary_statistics(self):
        h = Histogram("h")
        for value in [5, 1, 3, 2, 4]:
            h.observe(value)
        s = h.summary()
        assert s["count"] == 5
        assert s["sum"] == 15
        assert (s["min"], s["max"]) == (1, 5)
        assert s["mean"] == 3.0
        assert s["p50"] == 3
        assert s["p95"] == 5

    def test_single_value(self):
        h = Histogram("h")
        h.observe(42)
        s = h.summary()
        assert s["p50"] == s["p95"] == s["min"] == s["max"] == 42


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1
        assert "a" in reg

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("a")

    def test_as_dict_is_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("z.count").inc(2)
        reg.gauge("a.size").set(9)
        reg.histogram("m.dist").observe(1)
        snap = reg.as_dict()
        assert snap["counters"] == {"z.count": 2}
        assert snap["gauges"] == {"a.size": 9}
        assert snap["histograms"]["m.dist"]["count"] == 1
        json.dumps(snap)  # must serialize without custom encoders

    def test_as_dict_snapshots_are_equal_across_insertion_orders(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        a.counter("y").inc()
        b.counter("y").inc()
        b.counter("x").inc()
        assert a.as_dict() == b.as_dict()
