"""Tests for the discrete-event cluster simulator."""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.cluster.autoscaler import AutoscalePolicy, ScalingAction
from repro.cluster.chaos import ChaosInjector, ChaosSchedule, PodKill, PodSlowdown
from repro.cluster.loadgen import TimedRequest, TrafficGenerator, constant_rate
from repro.cluster.simulation import ClusterSimulator, format_timeline
from repro.core.index import SessionIndex
from repro.core.types import ScoredItem
from repro.serving.app import ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.serving.ring import ReplicationPolicy
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


class ClockedRecommender:
    """Service time is a pure function of the session: 1-4 ms plus 0-1 ms,
    spent on the cluster's virtual clock."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock

    def recommend(self, session_items, how_many=21):
        self.clock.advance(
            0.001 * (1 + len(session_items) % 4) + 0.0005 * (session_items[-1] % 3)
        )
        return [
            ScoredItem(item, 1.0 / (rank + 1))
            for rank, item in enumerate(reversed(session_items))
        ]


def clocked_cluster(num_pods=2, **kwargs) -> ServingCluster:
    clock = VirtualClock()
    return ServingCluster(
        lambda: ClockedRecommender(clock), num_pods=num_pods, clock=clock, **kwargs
    )


def burst_then_calm() -> list[TimedRequest]:
    """3 s at 400 rps, then 8 s at 50 rps, over 23 visitors."""
    arrivals = []
    t = 0.0
    for i in range(1600):
        t += 0.0025 if i < 1200 else 0.02
        arrivals.append(TimedRequest(t, RecommendationRequest(f"u{i % 23}", i % 17)))
    return arrivals


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestOutcomesDoNotMove:
    """Recorded before ``AutoscalingSimulator`` folded into
    ``ClusterSimulator`` and ``ChaosInjector`` took over the clock pacing
    of the deleted ``SimulatedCluster``: every outcome is exact on the
    virtual clock, so one queueing loop must reproduce it to the bit."""

    def test_fixed_fleet_load_test(self):
        result = ClusterSimulator(
            clocked_cluster(), cores_per_pod=1, sla_millis=4.0
        ).run(burst_then_calm(), bucket_seconds=1.0)
        assert result.total_requests == 1600
        assert result.sla_violations == 621
        assert digest(result.latency.samples) == "3429c5c33bbd81a1"
        timeline = [dataclasses.astuple(bucket) for bucket in result.timeline]
        assert digest(timeline) == "a5f2389e441c6c4c"
        assert result.actions == []
        assert result.pods_over_time == [(0.0, 2)]

    def test_autoscaled_load_test(self):
        """Up to the pod bound one cooldown apart, then down to the floor."""
        policy = AutoscalePolicy(
            scale_up_at=0.3,
            scale_down_at=0.1,
            min_pods=2,
            max_pods=5,
            cooldown_seconds=1.0,
            evaluation_interval=0.5,
        )
        result = ClusterSimulator(
            clocked_cluster(), cores_per_pod=1, policy=policy
        ).run(burst_then_calm())
        assert result.total_requests == 1600
        assert result.actions == [
            ScalingAction(0.5, 2, 3, 0.6679999999999996),
            ScalingAction(1.5, 3, 4, 0.462333333333331),
            ScalingAction(2.5, 4, 5, 0.3472499999999983),
            ScalingAction(3.5, 5, 4, 0.03459999999999859),
            ScalingAction(4.5, 4, 3, 0.043249999999998234),
            ScalingAction(5.5, 3, 2, 0.05799999999999746),
        ]
        assert result.pods_over_time == [
            (0.0, 2), (0.5, 3), (1.5, 4), (2.5, 5), (3.5, 4), (4.5, 3), (5.5, 2), (11.0, 2)
        ]
        assert result.max_pods_used == 5
        assert digest(result.latency.samples) == "ac407ef26b0c6984"

    def test_chaos_report(self):
        cluster = clocked_cluster(
            num_pods=3, replication=ReplicationPolicy(replication_factor=2)
        )
        schedule = ChaosSchedule(
            [PodKill(at_time=1.0, pod_id="pod-1", restart_at=2.5)],
            slowdowns=[
                PodSlowdown(at_time=0.5, pod_id="pod-2", delay_seconds=0.03, until=3.5)
            ],
        )
        report = ChaosInjector(cluster, schedule).run(burst_then_calm())
        fields = {
            field.name: digest(getattr(report, field.name))
            for field in dataclasses.fields(report)
        }
        assert fields == {
            "total_requests": "b458944d9ec4322f",
            "failed_requests": "5feceb66ffc86f38",
            "events": "dea69bce538d577d",
            "latency": "0f691d2caa45e344",
            "degraded_requests": "5feceb66ffc86f38",
            "recovered_requests": "5feceb66ffc86f38",
            "shed_requests": "5feceb66ffc86f38",
            "recovered_sessions": "5feceb66ffc86f38",
            "session_moves": "b061798fb9fc1f75",
            "recovery_horizon": "a372a576fdfa7a53",
            "consumer_crashes": "5feceb66ffc86f38",
            "consumer_restarts": "5feceb66ffc86f38",
            "slowdowns_applied": "6b86b273ff34fce1",
            "partitions_applied": "5feceb66ffc86f38",
            "partitions_healed": "5feceb66ffc86f38",
            "ring": "84c2fa675a39d468",
            "lag_trajectory": "4f53cda18c2baa0c",
            "streaming": "44136fa355b3678a",
        }
