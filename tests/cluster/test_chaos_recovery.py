"""Crash recovery under fault injection: re-routing and WAL replay.

These tests drive a killed-and-restarted pod through the chaos harness
and verify the two recovery paths: requests for a dead pod re-route over
the surviving ring (never error), and a pod restarted on a WAL volume
recovers its pre-kill sessions. "Recovered" means replayed from the WAL;
what the ring moves back onto a returning pod from the survivors is
counted apart (``ring["rebalanced_sessions"]``) and is never older state
than the survivors were serving.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster.chaos import ChaosInjector, ChaosSchedule, PodKill
from repro.cluster.loadgen import TrafficGenerator, constant_rate
from repro.core.index import SessionIndex
from repro.serving.app import ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.serving.ring import ReplicationPolicy
from repro.serving.server import RecommendationRequest

pytestmark = pytest.mark.chaos


def make_cluster(log, num_pods=2, **kwargs):
    index = SessionIndex.from_clicks(log, max_sessions_per_item=100)
    return ServingCluster.with_index(index, num_pods=num_pods, m=100, k=50, **kwargs)


def request_concurrently(cluster, keys, item_id):
    """One request per key, all released together; who served each."""
    barrier = threading.Barrier(len(keys))
    served: dict[str, str] = {}
    errors: list[Exception] = []

    def call(key: str) -> None:
        try:
            barrier.wait(timeout=10)
            response = cluster.handle(RecommendationRequest(key, item_id))
            served[key] = response.served_by
        except Exception as error:
            errors.append(error)

    threads = [threading.Thread(target=call, args=(key,)) for key in keys]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, repr(errors[0])
    assert set(served) == set(keys)
    return served


class TestSchedule:
    def test_kills_sorted_by_time(self):
        schedule = ChaosSchedule(
            [PodKill(9.0, "pod-1"), PodKill(2.0, "pod-0")]
        )
        assert [kill.at_time for kill in schedule] == [2.0, 9.0]
        assert len(schedule) == 2

    def test_invalid_restart_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ChaosSchedule([PodKill(5.0, "pod-0", restart_at=1.0)])


class TestDeadPodRerouting:
    def test_requests_for_killed_pod_reroute_instead_of_erroring(self, small_log):
        """Regression: a stale ring entry must heal, not raise KeyError."""
        cluster = make_cluster(small_log, num_pods=3)
        # Find sessions owned by pod-1 and seed state there.
        victims = [f"v{i}" for i in range(200) if cluster.router.primary(f"v{i}") == "pod-1"]
        assert victims
        for key in victims:
            cluster.handle(RecommendationRequest(key, 1))
        cluster.kill_pod("pod-1")
        assert "pod-1" in cluster.router.pods  # died without deregistering
        for key in victims:
            response = cluster.handle(RecommendationRequest(key, 2))
            assert response.served_by in ("pod-0", "pod-2")
            assert response.items
        assert "pod-1" not in cluster.router.pods  # healed lazily
        assert cluster.rerouted_requests >= 1

    @pytest.mark.parametrize(
        "policy", [None, ReplicationPolicy(replication_factor=2)], ids=["default", "r2"]
    )
    def test_concurrent_discovery_of_one_dead_pod_heals_once(self, small_log, policy):
        """Regression: requests that found the same dead pod raced to take
        it off the ring, and every loser raised ``ValueError("pod 'pod-1'
        is not registered")`` out of ``handle`` — a 500 through the
        threaded front door."""
        cluster = make_cluster(small_log, num_pods=3, replication=policy)
        keys = [f"c{i}" for i in range(400) if cluster.router.primary(f"c{i}") == "pod-1"][:8]
        assert len(keys) == 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(50):
                cluster.kill_pod("pod-1")
                served = request_concurrently(cluster, keys, item_id=1 + trial)
                assert set(served.values()) <= {"pod-0", "pod-2"}
                assert "pod-1" not in cluster.router
                # One death, counted once, however many requests saw it.
                assert cluster.ring_info()["failovers"] == trial + 1
                assert cluster.rerouted_requests == trial + 1
                cluster.restart_pod("pod-1")
        finally:
            sys.setswitchinterval(interval)

    def test_rerouting_through_chaos_schedule(self, small_log):
        cluster = make_cluster(small_log, num_pods=3)
        generator = TrafficGenerator(small_log, seed=11)
        injector = ChaosInjector(
            cluster, ChaosSchedule([PodKill(at_time=4.0, pod_id="pod-0")])
        )
        report = injector.run(generator.generate(constant_rate(60), duration=12))
        assert report.availability == 1.0
        assert report.failed_requests == 0
        survivors = set(cluster.pods)
        assert set(report.session_moves.values()) <= survivors

    def test_recovery_horizon_measured_for_displaced_sessions(self, small_log):
        cluster = make_cluster(small_log, num_pods=2)
        generator = TrafficGenerator(small_log, seed=12)
        injector = ChaosInjector(cluster, [PodKill(at_time=5.0, pod_id="pod-0")])
        report = injector.run(generator.generate(constant_rate(80), duration=20))
        assert report.recovery_horizon  # some sessions regained context
        assert all(horizon >= 0.0 for horizon in report.recovery_horizon.values())
        assert report.mean_recovery_horizon is not None
        assert report.mean_recovery_horizon >= 0.0


class TestWALRecovery:
    def test_restarted_pod_recovers_sessions_from_wal(self, small_log, tmp_path):
        """ISSUE acceptance: >= 95% of pre-kill live sessions restored."""
        cluster = make_cluster(small_log, num_pods=2, wal_dir=tmp_path)
        generator = TrafficGenerator(small_log, seed=13)
        injector = ChaosInjector(
            cluster,
            ChaosSchedule([PodKill(at_time=6.0, pod_id="pod-0", restart_at=9.0)]),
        )
        report = injector.run(generator.generate(constant_rate(60), duration=14))
        event = report.events[0]
        assert event.sessions_lost > 0
        assert event.recovery_rate >= 0.95
        assert report.recovered_sessions == event.sessions_recovered
        assert cluster.recovered_sessions == report.recovered_sessions

    def test_without_wal_restarted_pod_is_empty(self, small_log):
        """Empty of recovered state: with no WAL nothing comes back from
        disk, whatever the ring then rebalances onto the pod."""
        cluster = make_cluster(small_log, num_pods=2)  # no wal_dir
        generator = TrafficGenerator(small_log, seed=13)
        injector = ChaosInjector(
            cluster,
            ChaosSchedule([PodKill(at_time=6.0, pod_id="pod-0", restart_at=9.0)]),
        )
        report = injector.run(generator.generate(constant_rate(60), duration=14))
        event = report.events[0]
        assert event.sessions_lost > 0
        assert event.sessions_recovered == 0
        assert event.recovery_rate == 0.0
        assert report.recovered_sessions == 0
        assert cluster.recovered_sessions == 0

    @pytest.mark.parametrize("copies", [1, 2])
    def test_rebalanced_sessions_are_not_counted_as_recovered(self, small_log, copies):
        """Regression: the harness read ``len(server.sessions)`` after
        ``restart_pod`` had already rebalanced, and reported what the
        ring moved back from the survivors as recovered by a WAL that
        does not exist."""
        cluster = make_cluster(
            small_log,
            num_pods=2,
            replication=ReplicationPolicy(replication_factor=copies),
        )
        generator = TrafficGenerator(small_log, seed=13)
        injector = ChaosInjector(
            cluster,
            ChaosSchedule([PodKill(at_time=6.0, pod_id="pod-0", restart_at=9.0)]),
        )
        report = injector.run(generator.generate(constant_rate(60), duration=14))
        assert report.ring["rebalanced_sessions"] > 0
        assert len(cluster.pods["pod-0"].sessions) > 0
        assert report.events[0].sessions_recovered == 0
        assert report.recovered_sessions == cluster.recovered_sessions == 0

    def test_without_wal_restart_holds_only_what_survivors_served(self, small_log):
        cluster = make_cluster(small_log, num_pods=2)  # no wal_dir
        keys = [f"n{i}" for i in range(60)]
        for key in keys:
            for item in (1, 2, 3):
                cluster.handle(RecommendationRequest(key, item))
        lost = cluster.kill_pod("pod-0").sessions.as_dict()
        assert lost
        for key in keys:
            cluster.handle(RecommendationRequest(key, 4))
        held = cluster.pods["pod-1"].sessions.as_dict()
        restarted = cluster.restart_pod("pod-0")
        assert cluster.recovered_sessions == 0
        returned = restarted.sessions.as_dict()
        assert returned  # the ring moved its segments back onto it
        for key, items in returned.items():
            # The survivor's live copy, not the longer one that died.
            assert key in lost and items == held[key] == [4]

    def test_wal_replay_restores_exact_histories(self, small_log, tmp_path):
        """Replay equality: the restarted store holds the same sessions."""
        cluster = make_cluster(small_log, num_pods=2, wal_dir=tmp_path)
        for i in range(60):
            for item in (1, 2, 3):
                cluster.handle(RecommendationRequest(f"w{i}", item))
        victim = cluster.kill_pod("pod-0")  # crash: store never closed
        before = victim.sessions.as_dict()
        assert before
        restarted = cluster.restart_pod("pod-0")
        assert restarted.sessions.as_dict() == before

    def test_graceful_scale_down_deletes_wal(self, small_log, tmp_path):
        cluster = make_cluster(small_log, num_pods=2, wal_dir=tmp_path)
        for i in range(30):
            cluster.handle(RecommendationRequest(f"g{i}", 1))
        cluster.scale_to(1)
        assert not (tmp_path / "pod-1.wal").exists()
        serving = cluster.pods["pod-0"].sessions.as_dict()
        assert len(serving) == 30  # drained before the WAL was deleted
        # Scaling back up must not resurrect anything from disk: what the
        # new pod-1 holds is what pod-0 was serving, moved by the ring.
        cluster.scale_to(2)
        assert cluster.recovered_sessions == 0
        returned = cluster.pods["pod-1"].sessions.as_dict()
        assert returned
        assert all(serving[key] == items for key, items in returned.items())


class TestChaosWithGuardrails:
    def test_guardrailed_cluster_survives_kill_and_restart(self, small_log, tmp_path):
        cluster = make_cluster(
            small_log,
            num_pods=2,
            wal_dir=tmp_path,
            resilience=ResiliencePolicy(queue_capacity=512),
        )
        generator = TrafficGenerator(small_log, seed=14)
        injector = ChaosInjector(
            cluster,
            ChaosSchedule([PodKill(at_time=5.0, pod_id="pod-1", restart_at=8.0)]),
        )
        report = injector.run(generator.generate(constant_rate(50), duration=12))
        assert report.availability == 1.0
        assert report.events[0].recovery_rate >= 0.95
        info = cluster.resilience_info()
        assert info["enabled"]
        assert info["requests"] > 0
        assert info["recovered_sessions"] == report.recovered_sessions
        # Breaker states exposed per pod and stage.
        assert any(key.endswith("/primary") for key in info["breaker_states"])
