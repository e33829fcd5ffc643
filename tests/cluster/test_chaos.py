"""Tests for fault injection — the §4.2 fault-tolerance trade-off."""

from __future__ import annotations

import pytest

from repro.cluster.chaos import ChaosInjector, PodKill
from repro.cluster.loadgen import TimedRequest, TrafficGenerator, constant_rate
from repro.core.index import SessionIndex
from repro.serving.app import ServingCluster
from repro.serving.server import RecommendationRequest

pytestmark = pytest.mark.chaos


def make_cluster(log, num_pods=3):
    index = SessionIndex.from_clicks(log, max_sessions_per_item=100)
    return ServingCluster.with_index(index, num_pods=num_pods, m=100, k=50)


class TestPodKill:
    def test_restart_must_follow_kill(self):
        with pytest.raises(ValueError):
            PodKill(at_time=5.0, pod_id="pod-0", restart_at=4.0).validate()

    def test_unknown_pod_rejected(self, small_log):
        cluster = make_cluster(small_log)
        injector = ChaosInjector(cluster, [PodKill(0.0, "pod-99")])
        arrivals = [TimedRequest(1.0, RecommendationRequest("u", 1))]
        with pytest.raises(ValueError, match="unknown pod"):
            injector.run(arrivals)


class TestKillWithoutRestart:
    def test_cluster_stays_available(self, small_log):
        cluster = make_cluster(small_log, num_pods=3)
        generator = TrafficGenerator(small_log, seed=1)
        injector = ChaosInjector(cluster, [PodKill(at_time=5.0, pod_id="pod-1")])
        report = injector.run(generator.generate(constant_rate(60), duration=15))
        assert report.availability == 1.0
        assert report.total_requests > 200
        assert [e.pod_id for e in report.events] == ["pod-1"]
        assert "pod-1" not in cluster.router.pods

    def test_lost_sessions_counted(self, small_log):
        cluster = make_cluster(small_log, num_pods=2)
        # Seed state onto both pods before the kill.
        for i in range(40):
            cluster.handle(RecommendationRequest(f"seed-{i}", 1))
        victim_sessions = len(cluster.pods["pod-0"].sessions)
        generator = TrafficGenerator(small_log, seed=2)
        injector = ChaosInjector(cluster, [PodKill(at_time=0.0, pod_id="pod-0")])
        report = injector.run(generator.generate(constant_rate(20), duration=2))
        assert report.events[0].sessions_lost == victim_sessions

    def test_degraded_sessions_recover_with_new_clicks(self, small_log):
        """The paper's argument: lost sessions quickly rebuild context."""
        cluster = make_cluster(small_log, num_pods=2)
        generator = TrafficGenerator(small_log, seed=3)
        injector = ChaosInjector(cluster, [PodKill(at_time=6.0, pod_id="pod-0")])
        report = injector.run(generator.generate(constant_rate(80), duration=20))
        # Some requests see shorter-than-true history (state was lost)...
        assert report.degraded_requests > 0
        # ...but a decent share already re-accumulated >= 2 items.
        assert report.recovered_requests > 0


class TestKillWithRestart:
    def test_pod_comes_back_empty(self, small_log):
        cluster = make_cluster(small_log, num_pods=2)
        for i in range(20):
            cluster.handle(RecommendationRequest(f"warm-{i}", 1))
        generator = TrafficGenerator(small_log, seed=4)
        injector = ChaosInjector(
            cluster, [PodKill(at_time=3.0, pod_id="pod-1", restart_at=8.0)]
        )
        injector.run(generator.generate(constant_rate(50), duration=15))
        assert "pod-1" in cluster.router.pods
        # Only sessions created after the restart live on the new pod-1.
        assert len(cluster.pods["pod-1"].sessions) >= 0

    def test_routing_restored_after_restart(self, small_log):
        cluster = make_cluster(small_log, num_pods=3)
        before = {f"k{i}": cluster.router.primary(f"k{i}") for i in range(50)}
        generator = TrafficGenerator(small_log, seed=5)
        injector = ChaosInjector(
            cluster, [PodKill(at_time=2.0, pod_id="pod-2", restart_at=4.0)]
        )
        injector.run(generator.generate(constant_rate(40), duration=10))
        after = {key: cluster.router.primary(key) for key in before}
        # Rendezvous hashing: with the pod back, the mapping is restored.
        assert after == before

    def test_moved_sessions_routed_to_survivors(self, small_log):
        cluster = make_cluster(small_log, num_pods=2)
        generator = TrafficGenerator(small_log, seed=6)
        injector = ChaosInjector(cluster, [PodKill(at_time=5.0, pod_id="pod-0")])
        report = injector.run(generator.generate(constant_rate(80), duration=15))
        assert all(pod == "pod-1" for pod in report.session_moves.values())
