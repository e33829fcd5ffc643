"""Tests for the autoscaling policy and the simulator that runs it."""

from __future__ import annotations

import pytest

from repro.cluster.autoscaler import AutoscalePolicy
from repro.cluster.loadgen import TimedRequest
from repro.cluster.simulation import ClusterSimulator
from repro.serving.app import ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import RecommendationRequest


class TestPolicy:
    def test_decide_scale_up(self):
        policy = AutoscalePolicy(scale_up_at=0.6, scale_down_at=0.1)
        assert policy.decide(0.7, current_pods=3) == 4

    def test_decide_scale_down(self):
        policy = AutoscalePolicy(scale_up_at=0.6, scale_down_at=0.1, min_pods=2)
        assert policy.decide(0.05, current_pods=3) == 2

    def test_hysteresis_band_holds(self):
        policy = AutoscalePolicy(scale_up_at=0.6, scale_down_at=0.1)
        assert policy.decide(0.3, current_pods=3) == 3

    def test_bounds_respected(self):
        policy = AutoscalePolicy(min_pods=2, max_pods=4)
        assert policy.decide(0.99, current_pods=4) == 4
        assert policy.decide(0.0, current_pods=2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_up_at=0.1, scale_down_at=0.6).validate()
        with pytest.raises(ValueError):
            AutoscalePolicy(min_pods=5, max_pods=2).validate()
        with pytest.raises(ValueError):
            AutoscalePolicy(cooldown_seconds=-1).validate()


class BusyRecommender:
    """Burns a fixed amount of CPU per request (deterministic-ish load)."""

    def __init__(self, loops: int = 20_000) -> None:
        self.loops = loops

    def recommend(self, session_items, how_many=21):
        total = 0
        for i in range(self.loops):
            total += i
        return []


def make_cluster(num_pods=2, loops=20_000):
    return ServingCluster(lambda: BusyRecommender(loops), num_pods=num_pods)


def arrivals(rate_per_second: float, duration: float):
    count = int(rate_per_second * duration)
    step = duration / max(count, 1)
    return [
        TimedRequest(i * step, RecommendationRequest(f"u{i % 50}", i % 100))
        for i in range(count)
    ]


class TestSimulator:
    def test_scales_up_under_load(self):
        cluster = make_cluster(num_pods=2)
        policy = AutoscalePolicy(
            scale_up_at=0.005,
            scale_down_at=0.0001,
            min_pods=2,
            max_pods=5,
            cooldown_seconds=2.0,
            evaluation_interval=2.0,
        )
        simulator = ClusterSimulator(cluster, cores_per_pod=1, policy=policy)
        result = simulator.run(arrivals(60, 20.0))
        assert result.total_requests == 1200
        up_actions = [a for a in result.actions if a.to_pods > a.from_pods]
        assert up_actions, "policy should have scaled up"
        assert result.max_pods_used > 2
        assert len(cluster.pods) == result.pods_over_time[-1][1]

    def test_scales_down_when_idle(self):
        cluster = make_cluster(num_pods=3, loops=100)
        policy = AutoscalePolicy(
            scale_up_at=0.9,
            scale_down_at=0.5,
            min_pods=1,
            max_pods=4,
            cooldown_seconds=0.0,
            evaluation_interval=1.0,
        )
        simulator = ClusterSimulator(cluster, cores_per_pod=2, policy=policy)
        result = simulator.run(arrivals(5, 10.0))
        down_actions = [a for a in result.actions if a.to_pods < a.from_pods]
        assert down_actions, "idle cluster should shrink"
        assert len(cluster.pods) >= policy.min_pods

    def test_cooldown_limits_action_rate(self):
        cluster = make_cluster(num_pods=2)
        policy = AutoscalePolicy(
            scale_up_at=0.001,
            scale_down_at=0.0001,
            min_pods=2,
            max_pods=10,
            cooldown_seconds=5.0,
            evaluation_interval=1.0,
        )
        simulator = ClusterSimulator(cluster, cores_per_pod=1, policy=policy)
        result = simulator.run(arrivals(60, 10.0))
        # With a 5 s cooldown over 10 s there can be at most ~2-3 actions.
        assert len(result.actions) <= 3

    def test_respects_max_pods(self):
        cluster = make_cluster(num_pods=2)
        policy = AutoscalePolicy(
            scale_up_at=0.0001,
            scale_down_at=0.00001,
            min_pods=2,
            max_pods=3,
            cooldown_seconds=0.0,
            evaluation_interval=1.0,
        )
        simulator = ClusterSimulator(cluster, cores_per_pod=1, policy=policy)
        result = simulator.run(arrivals(50, 10.0))
        assert result.max_pods_used <= 3

    def test_requests_cross_the_clusters_front_door(self, toy_index):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=2, m=5, k=5, resilience=ResiliencePolicy()
        )
        simulator = ClusterSimulator(cluster, policy=AutoscalePolicy(min_pods=2))
        result = simulator.run(arrivals(20, 5.0))
        assert result.total_requests == 100
        assert cluster.resilience_info()["requests"] == 100

    def test_parameter_validation(self, toy_index):
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=5, k=5)
        with pytest.raises(ValueError):
            ClusterSimulator(cluster, cores_per_pod=0, policy=AutoscalePolicy())
        with pytest.raises(ValueError):
            ClusterSimulator(cluster, policy=AutoscalePolicy(evaluation_interval=0))
