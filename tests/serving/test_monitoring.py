"""Tests for the metrics primitives."""

from __future__ import annotations

import threading

import pytest

from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeService
from repro.serving.monitoring import Counter, Histogram, MetricsRegistry
from repro.serving.ring import HashRing
from repro.serving.server import RecommendationRequest


class TestCounter:
    def test_increment_and_read(self):
        counter = Counter("requests_total")
        counter.increment()
        counter.increment(2.0)
        assert counter.value() == 3.0

    def test_labels_are_independent(self):
        counter = Counter("requests_total")
        counter.increment(status="ok")
        counter.increment(status="error")
        counter.increment(status="ok")
        assert counter.value(status="ok") == 2.0
        assert counter.value(status="error") == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").increment(-1)

    def test_render_format(self):
        counter = Counter("hits", "number of hits")
        counter.increment(status="ok")
        text = "\n".join(counter.render())
        assert "# TYPE hits counter" in text
        assert 'hits{status="ok"} 1' in text

    def test_render_empty(self):
        assert "hits 0" in "\n".join(Counter("hits").render())

    def test_thread_safety(self):
        counter = Counter("parallel")

        def worker():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000.0


class TestHistogram:
    def test_counts_and_sum(self):
        histogram = Histogram("latency", buckets=[0.01, 0.1, 1.0])
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5.555)

    def test_quantile_upper_bound_semantics(self):
        histogram = Histogram("latency", buckets=[0.01, 0.1, 1.0])
        for _ in range(90):
            histogram.observe(0.005)  # -> bucket 0.01
        for _ in range(10):
            histogram.observe(0.5)  # -> bucket 1.0
        assert histogram.quantile(0.5) == 0.01
        assert histogram.quantile(0.95) == 1.0

    def test_quantile_above_all_buckets_is_inf(self):
        histogram = Histogram("latency", buckets=[0.01])
        histogram.observe(99.0)
        assert histogram.quantile(0.9) == float("inf")

    def test_quantile_validation(self):
        histogram = Histogram("latency", buckets=[1.0])
        with pytest.raises(ValueError):
            histogram.quantile(0.5)  # empty
        histogram.observe(0.5)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_render_is_cumulative(self):
        histogram = Histogram("latency", buckets=[0.1, 1.0])
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = "\n".join(histogram.render())
        assert 'latency_bucket{le="0.1"} 1' in text
        assert 'latency_bucket{le="1"} 2' in text
        assert 'latency_bucket{le="+Inf"} 2' in text
        assert "latency_count 2" in text

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=[])


class TestRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("a")
        second = registry.counter("a")
        assert first is second

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.histogram("a")

    def test_render_all(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.histogram("h", buckets=[1.0]).observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE c counter" in text
        assert "# TYPE h histogram" in text
        assert text.endswith("\n")


class TestRingSeriesOnADefaultCluster:
    """Every server exports the ring series now, not just ``--replication``
    ones, so they must move on a default cluster and stay cheap to scrape."""

    def test_failover_counter_and_leader_gauges_move(self, toy_index):
        cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        service = SerenadeService(cluster)
        key = next(k for k in (f"u{i}" for i in range(100)) if cluster.router.primary(k) == "pod-1")
        cluster.handle(RecommendationRequest(key, 1))
        lines = service.render_metrics().splitlines()
        assert "serenade_ring_failovers_total 0" in lines
        assert 'serenade_ring_leader_sessions{pod="pod-0"} 0' in lines
        assert 'serenade_ring_leader_sessions{pod="pod-1"} 1' in lines

        cluster.kill_pod("pod-1")
        cluster.handle(RecommendationRequest(key, 2))
        lines = service.render_metrics().splitlines()
        assert "serenade_ring_failovers_total 1" in lines
        assert 'serenade_ring_leader_sessions{pod="pod-0"} 1' in lines
        assert 'serenade_ring_follower_sessions{pod="pod-0"} 0' in lines

    def test_scrape_does_not_hash_every_live_session(self, toy_index, monkeypatch):
        cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        service = SerenadeService(cluster)
        for i in range(5000):
            cluster.handle(RecommendationRequest(f"live-{i}", 1 + i % 5))
        lookups = []
        original = HashRing.preference_list

        def counting(self, session_key, n):
            lookups.append(session_key)
            return original(self, session_key, n)

        monkeypatch.setattr(HashRing, "preference_list", counting)
        text = service.render_metrics()
        service.health()
        leaders = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("serenade_ring_leader_sessions{")
        ]
        assert sum(leaders) == 5000
        assert len(lookups) <= len(cluster.pods)
