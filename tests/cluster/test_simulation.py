"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import pytest

from repro.cluster.loadgen import TimedRequest, TrafficGenerator, constant_rate
from repro.cluster.simulation import ClusterSimulator, format_timeline
from repro.core.index import SessionIndex
from repro.serving.app import ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import RecommendationRequest
from repro.testing.clock import VirtualClock


@pytest.fixture(scope="module")
def sim_cluster(medium_log):
    index = SessionIndex.from_clicks(medium_log, max_sessions_per_item=100)
    return ServingCluster.with_index(index, num_pods=2, m=100, k=50)


class TestSimulation:
    def test_low_load_means_no_queueing(self, sim_cluster, medium_log):
        generator = TrafficGenerator(medium_log, seed=11)
        simulator = ClusterSimulator(sim_cluster, cores_per_pod=3)
        result = simulator.run(
            generator.generate(constant_rate(20), duration=10),
            bucket_seconds=5.0,
        )
        assert result.total_requests > 0
        # At 20 rps across 6 cores, waiting time is negligible: response
        # latency should be close to pure service time (well under SLA).
        assert result.sla_attainment > 0.99
        assert result.latency.percentile(90) < 0.050

    def test_timeline_produced(self, sim_cluster, medium_log):
        generator = TrafficGenerator(medium_log, seed=12)
        simulator = ClusterSimulator(sim_cluster, cores_per_pod=3)
        result = simulator.run(
            generator.generate(constant_rate(50), duration=10),
            bucket_seconds=5.0,
        )
        assert len(result.timeline) >= 1
        for bucket in result.timeline:
            assert bucket.requests_per_second > 0
            assert bucket.latency_p75_ms <= bucket.latency_p995_ms

    def test_queueing_grows_under_overload(self, sim_cluster):
        """A single slow core fed faster than it can serve must queue."""
        clock = VirtualClock()

        class SlowRecommender:
            def recommend(self, session_items, how_many=21):
                clock.advance(0.004)  # 4 ms of virtual compute, no sleep
                return []

        slow_cluster = ServingCluster(
            lambda: SlowRecommender(), num_pods=1, clock=clock
        )
        simulator = ClusterSimulator(slow_cluster, cores_per_pod=1)
        arrivals = [
            TimedRequest(i * 0.001, RecommendationRequest(f"u{i}", 1))
            for i in range(100)
        ]
        result = simulator.run(arrivals, bucket_seconds=1.0)
        # Service takes 4 ms but arrivals come every 1 ms: the tail of the
        # queue waits for ~100 * 3 ms of backlog.
        assert result.latency.percentile(99) > result.latency.percentile(10) * 5

    def test_requests_cross_the_clusters_front_door(self, medium_log):
        """The simulator used to call ``pod.handle`` directly and so never
        crossed admission, the ring or the guardrails."""
        index = SessionIndex.from_clicks(medium_log, max_sessions_per_item=100)
        cluster = ServingCluster.with_index(
            index, num_pods=2, m=100, k=50, resilience=ResiliencePolicy()
        )
        generator = TrafficGenerator(medium_log, seed=14)
        result = ClusterSimulator(cluster).run(
            generator.generate(constant_rate(30), duration=5)
        )
        assert result.total_requests > 0
        assert cluster.resilience_info()["requests"] == result.total_requests
        assert cluster.admission.admitted_count == result.total_requests

    def test_format_timeline_renders(self, sim_cluster, medium_log):
        generator = TrafficGenerator(medium_log, seed=13)
        simulator = ClusterSimulator(sim_cluster)
        result = simulator.run(generator.generate(constant_rate(30), 5))
        rendered = format_timeline(result.timeline)
        assert "rps" in rendered and "p99.5ms" in rendered

    def test_rejects_bad_cores(self, sim_cluster):
        with pytest.raises(ValueError):
            ClusterSimulator(sim_cluster, cores_per_pod=0)
