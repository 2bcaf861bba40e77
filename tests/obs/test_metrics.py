"""Unit tests for the metric primitives and the registry."""

import threading

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("steps")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("steps").inc(-1)

    def test_snapshot(self):
        c = Counter("steps", {"phase": "train"})
        c.inc(4)
        assert c.snapshot() == {"value": 4.0}
        assert c.labels == {"phase": "train"}


class TestGauge:
    def test_set_and_shift(self):
        g = Gauge("depth")
        g.set(10)
        g.inc(-3)
        assert g.value == 7.0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_child(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", phase="x") is reg.counter("a", phase="x")

    def test_label_sets_are_distinct_children(self):
        reg = MetricsRegistry()
        reg.counter("a", phase="x").inc()
        reg.counter("a", phase="y").inc(2)
        assert reg.counter("a", phase="x").value == 1
        assert reg.counter("a", phase="y").value == 2
        assert len(reg) == 2

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a")

    def test_get_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.get("missing") is None
        reg.gauge("present", kind="g").set(1)
        assert reg.get("present", kind="g").value == 1
        assert reg.get("present") is None  # different (empty) label set
        assert len(reg) == 1

    def test_snapshot_shape_and_order(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(2)
        reg.counter("a", phase="x").inc()
        snap = reg.snapshot()
        assert [e["name"] for e in snap] == ["a", "b"]  # name-sorted
        assert snap[0] == {"type": "metric", "kind": "counter", "name": "a",
                           "labels": {"phase": "x"}, "value": 1.0}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert len(reg) == 0
        assert reg.get("a") is None


class TestThreadSafety:
    def test_concurrent_updates_lose_nothing(self):
        # Loadgen worker threads hammer the same children: the
        # get-or-create race must hand every thread the same child, and
        # no counter increment / P² marker update may
        # be lost to an unsynchronised read-modify-write.
        reg = MetricsRegistry()
        n_threads, n_iter = 8, 400
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(n_iter):
                reg.counter("ts.count").inc()
                reg.quantile("ts.lat").observe(0.01)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = n_threads * n_iter
        assert len(reg) == 2  # one child per (name, labels), not two
        assert reg.counter("ts.count").value == total
        quantile = reg.quantile("ts.lat")
        assert quantile.count == total
        assert quantile.estimate(0.5) == pytest.approx(0.01)
