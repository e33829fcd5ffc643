"""Tests for the metrics primitives."""

from __future__ import annotations

import itertools
import threading
from pathlib import Path

import pytest

from repro.core.index import SessionIndex
from repro.data.synthetic import generate_clickstream
from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeService
from repro.serving.monitoring import (
    Counter,
    Gauge,
    Histogram,
    LabelledSeries,
    MetricsRegistry,
)
from repro.serving.resilience import ResiliencePolicy
from repro.serving.ring import HashRing
from repro.serving.server import RecommendationRequest


#: What the registry below rendered when Counter and Gauge each had their
#: own storage and ``render``; one LabelledSeries must write it unchanged.
REGISTRY_TEXT = '# HELP serenade_requests_total Recommendation requests by status\n# TYPE serenade_requests_total counter\nserenade_requests_total{status="ok"} 4\nserenade_requests_total{status="shed"} 1\n# HELP serenade_empty_total A counter nobody moved\n# TYPE serenade_empty_total counter\nserenade_empty_total 0\n# HELP serenade_plain_total No labels\n# TYPE serenade_plain_total counter\nserenade_plain_total 1e+07\n# HELP serenade_breaker_state Breaker state per pod/stage\n# TYPE serenade_breaker_state gauge\nserenade_breaker_state{pod="pod-0",stage="fallback"} 1\nserenade_breaker_state{pod="pod-0",stage="primary"} 0\nserenade_breaker_state{pod="pod-1",stage="primary"} 2\n# HELP serenade_empty_gauge A gauge nobody set\n# TYPE serenade_empty_gauge gauge\nserenade_empty_gauge 0\n# HELP serenade_lag Lag\n# TYPE serenade_lag gauge\nserenade_lag 1.23457e+08\n# HELP serenade_latency_seconds Latency\n# TYPE serenade_latency_seconds histogram\nserenade_latency_seconds_bucket{le="0.0001"} 1\nserenade_latency_seconds_bucket{le="0.00025"} 1\nserenade_latency_seconds_bucket{le="0.0005"} 2\nserenade_latency_seconds_bucket{le="0.001"} 2\nserenade_latency_seconds_bucket{le="0.0025"} 2\nserenade_latency_seconds_bucket{le="0.005"} 3\nserenade_latency_seconds_bucket{le="0.0075"} 3\nserenade_latency_seconds_bucket{le="0.01"} 3\nserenade_latency_seconds_bucket{le="0.025"} 3\nserenade_latency_seconds_bucket{le="0.05"} 3\nserenade_latency_seconds_bucket{le="0.1"} 3\nserenade_latency_seconds_bucket{le="0.25"} 3\nserenade_latency_seconds_bucket{le="0.5"} 3\nserenade_latency_seconds_bucket{le="1"} 3\nserenade_latency_seconds_bucket{le="+Inf"} 4\nserenade_latency_seconds_sum 2.00435\nserenade_latency_seconds_count 4\n'

#: ``/metrics`` of the service scenario below, as written before the
#: request path and the metric classes were reworked.
SERVICE_TEXT = Path(__file__).with_name("metrics_golden.txt")


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    requests = registry.counter("serenade_requests_total", "Recommendation requests by status")
    requests.increment(status="ok")
    requests.increment(3, status="ok")
    requests.increment(status="shed")
    registry.counter("serenade_empty_total", "A counter nobody moved")
    plain = registry.counter("serenade_plain_total", "No labels")
    plain.increment(0.5)
    plain.increment(1e7)
    breaker = registry.gauge("serenade_breaker_state", "Breaker state per pod/stage")
    breaker.set(2.0, stage="primary", pod="pod-1")
    breaker.set(0.0, pod="pod-0", stage="primary")
    breaker.set(1.0, pod="pod-0", stage="fallback")
    registry.gauge("serenade_empty_gauge", "A gauge nobody set")
    lag = registry.gauge("serenade_lag", "Lag")
    lag.set(-3.25)
    lag.set(123456789.0)
    hist = registry.histogram("serenade_latency_seconds", "Latency")
    for value in (0.00005, 0.0003, 0.004, 2.0):
        hist.observe(value)
    return registry


class TestExpositionText:
    def test_counters_and_gauges_are_one_labelled_series(self):
        assert issubclass(Counter, LabelledSeries)
        assert issubclass(Gauge, LabelledSeries)
        assert "render" not in vars(Counter) and "render" not in vars(Gauge)

    def test_registry_text_is_byte_identical(self):
        assert build_registry().render_prometheus() == REGISTRY_TEXT

    def test_service_metrics_text_is_byte_identical(self):
        log = generate_clickstream(num_sessions=300, num_items=60, days=3, seed=99)
        index = SessionIndex.from_clicks(log, max_sessions_per_item=50)
        cluster = ServingCluster.with_index(
            index,
            num_pods=2,
            m=50,
            k=20,
            cache_size=64,
            resilience=ResiliencePolicy(),
            index_version="v000003",
        )
        ticks = itertools.count()
        service = SerenadeService(cluster, perf_clock=lambda: next(ticks) * 0.0005)
        for n in range(40):
            service.recommend(
                {
                    "session_id": f"s{n % 7}",
                    "item_id": 1 + n % 13,
                    "consent": n % 3 != 0,
                    "variant": "serenade-hist",
                    "count": 5,
                }
            )
        service.recommend_batch({"sessions": [[1, 2], [3]], "count": 4})
        service.record_connections(2, accepted=True)
        service.record_bad_request()
        assert service.render_metrics() == SERVICE_TEXT.read_text()


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
