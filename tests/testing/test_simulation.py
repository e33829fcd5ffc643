"""Deterministic-simulation tests: chaos, stalls and rollouts on virtual time.

Each scenario builds a :class:`ServingCluster` on a :class:`VirtualClock`
and drives it with the real driver: the chaos injector paces the clock to
every arrival, and the rollout controller sleeps on it.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.chaos import ChaosInjector, ChaosReport, PodKill
from repro.cluster.loadgen import TimedRequest
from repro.core.index import SessionIndex
from repro.core.types import ScoredItem
from repro.core.vmis import VMISKNN
from repro.index.lifecycle.rollout import RolloutController
from repro.serving.app import ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import RecommendationRequest
from repro.testing.clock import VirtualClock
from repro.testing.generators import WorkloadGenerator


@pytest.fixture(scope="module")
def generator() -> WorkloadGenerator:
    return WorkloadGenerator(seed=5, num_sessions=40)


@pytest.fixture(scope="module")
def index(generator) -> SessionIndex:
    return SessionIndex.from_clicks(
        generator.clicks(), max_sessions_per_item=100
    )


def virtual_cluster(index, **kwargs) -> tuple[ServingCluster, VirtualClock]:
    """A cluster around ``index`` whose every time read is the clock's."""
    clock = VirtualClock()
    return ServingCluster.with_index(index, clock=clock, **kwargs), clock


def make_arrivals(generator, duration=60.0, rate=3.0, users=7):
    queries = generator.query_sessions(50)
    arrivals = []
    for i, t in enumerate(generator.arrival_times(duration, rate)):
        query = queries[i % len(queries)]
        arrivals.append(
            TimedRequest(
                t,
                RecommendationRequest(
                    session_key=f"u{i % users}", item_id=query[0]
                ),
            )
        )
    return arrivals


def report_key(report: ChaosReport) -> tuple:
    """Everything observable about a chaos run, as a comparable value."""
    return (
        report.total_requests,
        report.failed_requests,
        report.shed_requests,
        report.degraded_requests,
        report.recovered_requests,
        report.recovered_sessions,
        tuple(
            (e.pod_id, e.at_time, e.sessions_lost, e.sessions_recovered)
            for e in report.events
        ),
        tuple(sorted(report.session_moves.items())),
        tuple(sorted(report.recovery_horizon.items())),
        len(report.latency.samples),
    )


@pytest.mark.chaos
class TestChaosDeterminism:
    def test_same_seed_produces_identical_reports(self, generator, index):
        kills = [PodKill(at_time=20.0, pod_id="pod-1", restart_at=35.0)]
        keys = []
        for _ in range(2):
            cluster, _ = virtual_cluster(
                index, num_pods=3, resilience=ResiliencePolicy()
            )
            report = ChaosInjector(cluster, kills).run(make_arrivals(generator))
            keys.append(report_key(report))
        assert keys[0] == keys[1]

    def test_kills_and_restarts_apply_at_virtual_times(self, generator, index):
        cluster, clock = virtual_cluster(index, num_pods=3)
        kills = [PodKill(at_time=20.0, pod_id="pod-1", restart_at=35.0)]
        report = ChaosInjector(cluster, kills).run(make_arrivals(generator))

        assert len(report.events) == 1
        event = report.events[0]
        assert event.pod_id == "pod-1"
        assert event.at_time == 20.0
        assert event.sessions_lost > 0  # traffic had reached the pod by t=20
        assert event.restarted_at == 35.0
        assert "pod-1" in cluster.pods  # the restart happened
        # The clock followed the arrival timeline; no wall time elapsed.
        assert 0.0 < clock.now < 60.0
        assert report.failed_requests == 0

    def test_report_runs_in_virtual_time_only(self, generator, index):
        """An hour of traffic replays instantly — the whole point."""
        import time

        cluster, clock = virtual_cluster(index, num_pods=2)
        arrivals = make_arrivals(generator, duration=3600.0, rate=0.05)
        started = time.monotonic()
        ChaosInjector(cluster, []).run(arrivals)
        assert time.monotonic() - started < 5.0
        assert clock.now > 3000.0


class StallingRecommender:
    """Models a slow model server: burns virtual budget on every call."""

    def __init__(self, clock: VirtualClock, stall_seconds: float) -> None:
        self.clock = clock
        self.stall_seconds = stall_seconds
        self.calls = 0

    def recommend(self, session_items, how_many=21):
        self.calls += 1
        self.clock.advance(self.stall_seconds)
        return [ScoredItem(1, 1.0)]


@pytest.mark.chaos
class TestVirtualStalls:
    def test_stalls_trip_the_deadline_through_the_full_cluster(self):
        clock = VirtualClock()
        primary = StallingRecommender(clock, stall_seconds=0.2)
        policy = ResiliencePolicy(
            budget_ms=50.0,
            breaker_min_calls=10_000,  # keep the breaker out of the way
        )
        cluster = ServingCluster(
            lambda: primary,
            num_pods=1,
            resilience=policy,
            clock=clock,
            static_items=(ScoredItem(9, 1.0), ScoredItem(8, 0.5)),
        )
        arrivals = [
            TimedRequest(
                float(i), RecommendationRequest(session_key="u0", item_id=1)
            )
            for i in range(1, 6)
        ]
        report = ChaosInjector(cluster, []).run(arrivals)

        # Every request stalls past its 50 ms budget and is served by the
        # terminal static list instead of failing.
        assert report.failed_requests == 0
        assert primary.calls == 5
        pod = cluster.pods["pod-0"]
        chain = pod.recommender.chain
        assert chain.stages[0].timeouts == 5
        served = pod.recommender.counters.served_by_stage
        assert served.get("static-rules") == 5
        # Service time is the virtual stall, measured by the perf clock.
        assert report.latency.samples == pytest.approx([0.2] * 5)


def virtual_rollout(cluster, clock, seed=0) -> RolloutController:
    """Backoffs sleep on the virtual clock; the jitter RNG is seeded, so
    a rollout, failures and retries included, replays per seed."""
    return RolloutController(cluster, rng=random.Random(seed), sleep=clock.sleep)


class TestRolloutOnVirtualTime:
    def test_rollout_completes_without_wall_sleeps(self, index):
        cluster, clock = virtual_cluster(index, num_pods=4)
        report = virtual_rollout(cluster, clock).run(
            lambda: VMISKNN(index, m=50, k=10), version="v2"
        )
        assert report.succeeded
        assert len(report.swapped_pods) == 4
        assert cluster.index_version == "v2"

    def test_load_retries_advance_the_clock(self, index):
        cluster, clock = virtual_cluster(index, num_pods=2)
        attempts = {"n": 0}

        def flaky_factory():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("replica load failed")
            return VMISKNN(index, m=50, k=10)

        before = clock.now
        report = virtual_rollout(cluster, clock, seed=11).run(
            flaky_factory, version="v3"
        )
        assert report.succeeded
        assert report.load_retries >= 1
        # The retry backoff slept on the virtual clock.
        assert clock.now > before

    def test_same_seed_same_rollout(self, index):
        reports = []
        for _ in range(2):
            cluster, clock = virtual_cluster(index, num_pods=3)
            report = virtual_rollout(cluster, clock, seed=7).run(
                lambda: VMISKNN(index, m=50, k=10), version="v2"
            )
            reports.append(
                (
                    report.state,
                    tuple(report.canary_pods),
                    tuple(report.swapped_pods),
                    report.load_retries,
                )
            )
        assert reports[0] == reports[1]
