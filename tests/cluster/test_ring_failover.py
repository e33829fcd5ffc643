"""Replicated-ring chaos suite: failover, hedging, fencing, rebalance.

ISSUE acceptance, executable: a leader ``kill_pod`` mid-traffic loses
zero acknowledged session clicks; the post-failover cluster's
recommendations are bit-identical to an unfailed oracle cluster
(including through the DifferentialRunner against the VS-kNN reference);
hedged reads beat a straggler leader inside the 50 ms budget; partitioned
stale followers are fenced, never hedged to, and drop stale sessions on
promotion; scale-up rebalances and scale-down drains before deleting the
WAL — all deterministic on the virtual clock.
"""

from __future__ import annotations

import pytest

from repro.cluster.autoscaler import AutoscalePolicy
from repro.cluster.chaos import (
    ChaosInjector,
    ChaosSchedule,
    NetworkPartition,
    PodKill,
    PodSlowdown,
)
from repro.cluster.loadgen import TrafficGenerator, constant_rate
from repro.cluster.simulation import ClusterSimulator
from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
from repro.serving.app import ServingCluster
from repro.serving.ring import ReplicationPolicy
from repro.serving.server import RecommendationRequest
from repro.serving.variants import ServingVariant
from repro.testing.clock import VirtualClock
from repro.testing.generators import WorkloadConfig
from repro.testing.oracle import DifferentialRunner, HyperParams

pytestmark = pytest.mark.chaos

POLICY = ReplicationPolicy(replication_factor=2)


def ring_cluster(log, num_pods=3, policy=POLICY, clock=None, **kwargs):
    index = SessionIndex.from_clicks(log, max_sessions_per_item=100)
    clock = clock or VirtualClock()
    cluster = ServingCluster.with_index(
        index,
        num_pods=num_pods,
        m=100,
        k=50,
        clock=clock,
        replication=policy,
        **kwargs,
    )
    return cluster, clock


def leader_of(cluster, session_key):
    return cluster.router.preference_list(session_key, 2)[0]


def follower_of(cluster, session_key):
    return cluster.router.preference_list(session_key, 2)[1]


class TestZeroClickLoss:
    """Leader kills mid-traffic lose zero acknowledged clicks."""

    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_kill_storm_degrades_nothing(self, small_log, seed):
        cluster, _ = ring_cluster(small_log, num_pods=5)
        generator = TrafficGenerator(small_log, seed=seed)
        schedule = ChaosSchedule(
            [PodKill(at_time=4.0, pod_id="pod-1"), PodKill(at_time=8.0, pod_id="pod-3")]
        )
        report = ChaosInjector(cluster, schedule).run(
            generator.generate(constant_rate(60), duration=12)
        )
        assert report.total_requests > 100
        assert report.failed_requests == 0
        # The replicated ring's whole point: every acknowledged click is
        # still there after both kills (the seed cluster loses them).
        assert report.degraded_requests == 0
        assert report.ring["replication_factor"] == 2
        # Both dead pods were healed off the ring by the request path.
        assert "pod-1" not in report.ring["ring_pods"]
        assert "pod-3" not in report.ring["ring_pods"]

    def test_promoted_follower_serves_the_very_next_request(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "promote-me"
        for item in (1, 2, 3):
            cluster.handle(RecommendationRequest(key, item))
        leader = leader_of(cluster, key)
        follower = follower_of(cluster, key)
        cluster.kill_pod(leader)
        response = cluster.handle(RecommendationRequest(key, 4))
        assert response.served_by == follower
        stored = cluster.pods[follower].sessions.get_session(key)
        assert stored == [1, 2, 3, 4]
        assert cluster.ring_info()["failovers"] == 1

    def test_replica_copies_stay_in_sync_per_append(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "in-sync"
        for item in (5, 6, 7):
            cluster.handle(RecommendationRequest(key, item))
        leader, follower = cluster.router.preference_list(key, 2)
        assert cluster.pods[leader].sessions.get_session(key) == [5, 6, 7]
        assert cluster.pods[follower].sessions.get_session(key) == [5, 6, 7]
        assert cluster.ring_info()["max_replication_lag"] == 0

    def test_no_consent_requests_do_not_replicate(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "incognito"
        cluster.handle(RecommendationRequest(key, 1, consent=False))
        leader, follower = cluster.router.preference_list(key, 2)
        assert cluster.pods[leader].sessions.get_session(key) is None
        assert cluster.pods[follower].sessions.get_session(key) is None


class TestFailoverBitIdentical:
    """Post-failover recommendations match an unfailed oracle cluster."""

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_failed_and_unfailed_clusters_agree(self, small_log, which):
        sequences = [
            items
            for items in small_log.session_item_sequences().values()
            if len(items) >= 4
        ]
        sequence = sequences[which % len(sequences)]
        failed, _ = ring_cluster(small_log, num_pods=4)
        oracle, _ = ring_cluster(small_log, num_pods=4)
        key = f"oracle-{which}"

        def request(item):
            return RecommendationRequest(
                key, item, variant=ServingVariant.FULL, how_many=20
            )

        for item in sequence[:-1]:
            failed.handle(request(item))
            oracle.handle(request(item))
        failed.kill_pod(leader_of(failed, key))
        final_failed = failed.handle(request(sequence[-1]))
        final_oracle = oracle.handle(request(sequence[-1]))
        assert final_failed.served_by != final_oracle.served_by
        assert final_failed.items == final_oracle.items

    def test_differential_runner_holds_failover_to_bit_exactness(self):
        """The ring path (leader write → replicate → kill leader →
        promoted follower serves) is one more implementation the oracle
        holds to exact equivalence with VS-kNN."""

        def ring_failover(clicks, params):
            return _RingFailoverImpl(clicks, params)

        runner = DifferentialRunner(
            how_many=20, extra_implementations={"ring-failover": ring_failover}
        )
        report = runner.run_corpus(
            [
                WorkloadConfig(seed=3, num_sessions=40, num_items=30),
                WorkloadConfig(seed=9, num_sessions=25, num_items=20),
            ],
            grid=[HyperParams(m=64, k=20), HyperParams(m=5, k=3)],
            queries_per_workload=2,
        )
        assert report.equivalent, report.divergences[0].describe()


class _RingFailoverImpl:
    """Oracle adapter: answer queries through a ring cluster that loses
    its leader immediately before the final click of every session."""

    def __init__(self, clicks, params):
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=params.m)
        clock = VirtualClock()
        self.cluster = ServingCluster(
            lambda: VMISKNN(
                index,
                m=params.m,
                k=params.k,
                decay=params.decay,
                match_weight=params.match_weight,
            ),
            num_pods=3,
            clock=clock,
            replication=POLICY,
        )
        self._counter = 0

    def recommend(self, query, how_many):
        key = f"diff-{self._counter}"
        self._counter += 1
        cluster = self.cluster
        response = None
        for position, item in enumerate(query):
            request = RecommendationRequest(
                key, item, variant=ServingVariant.FULL, how_many=how_many
            )
            if position == len(query) - 1:
                leader = leader_of(cluster, key)
                cluster.kill_pod(leader)
                response = cluster.handle(request)
                cluster.restart_pod(leader)
            else:
                response = cluster.handle(request)
        assert response is not None
        return list(response.items)


class TestHedgedReads:
    def test_hedge_beats_straggler_leader_inside_budget(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "hedge-me"
        straggler = leader_of(cluster, key)
        cluster.pods[straggler].injected_stall_seconds = 0.2
        response = cluster.handle(RecommendationRequest(key, 1))
        # hedge delay = 50 ms × 0.25 = 12.5 ms; the healthy follower
        # answers instantly, so the race resolves at exactly 12.5 ms.
        assert response.served_by == follower_of(cluster, key)
        assert response.service_seconds == pytest.approx(0.0125)
        info = cluster.ring_info()
        assert info["hedges_fired"] == 1
        assert info["hedge_wins"] == 1

    def test_hedging_disabled_pays_the_straggler_in_full(self, small_log):
        policy = ReplicationPolicy(replication_factor=2, hedge_enabled=False)
        cluster, _ = ring_cluster(small_log, policy=policy)
        key = "no-hedge"
        straggler = leader_of(cluster, key)
        cluster.pods[straggler].injected_stall_seconds = 0.2
        response = cluster.handle(RecommendationRequest(key, 1))
        assert response.served_by == straggler
        assert response.service_seconds == pytest.approx(0.2)
        assert cluster.ring_info()["hedges_fired"] == 0

    def test_fast_leader_never_hedges(self, small_log):
        cluster, _ = ring_cluster(small_log)
        for i in range(30):
            cluster.handle(RecommendationRequest(f"fast-{i}", 1))
        info = cluster.ring_info()
        assert info["hedges_fired"] == 0

    def test_slowdown_storm_through_chaos_schedule(self, small_log):
        """A PodSlowdown storm: p99 stays within the 50 ms budget because
        every straggler-owned request hedges to a healthy follower."""
        cluster, _ = ring_cluster(small_log, num_pods=4)
        generator = TrafficGenerator(small_log, seed=21)
        schedule = ChaosSchedule(
            slowdowns=[PodSlowdown(at_time=0.0, pod_id="pod-0", delay_seconds=0.2)]
        )
        report = ChaosInjector(cluster, schedule).run(
            generator.generate(constant_rate(50), duration=10)
        )
        assert report.slowdowns_applied == 1
        assert report.failed_requests == 0
        assert report.degraded_requests == 0
        assert report.ring["hedge_wins"] >= 1
        assert report.latency.percentile(99) <= 0.05
        assert report.latency.fraction_within(0.05) == 1.0


class TestPartitionFencing:
    def test_stale_follower_is_never_hedged_to(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "fenced"
        leader, follower = cluster.router.preference_list(key, 2)
        cluster.partition(leader, follower)
        cluster.handle(RecommendationRequest(key, 1))  # appended while cut
        cluster.pods[leader].injected_stall_seconds = 0.2
        response = cluster.handle(RecommendationRequest(key, 2))
        # The only follower is stale: the hedge is fenced and the slow
        # leader's answer (with the full history) is served instead.
        assert response.served_by == leader
        info = cluster.ring_info()
        assert info["fenced_hedges"] >= 1
        assert info["hedge_wins"] == 0
        assert f"{leader}->{follower}" in info["partitioned_links"]

    def test_promoted_stale_follower_drops_fenced_sessions(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "rewound"
        leader, follower = cluster.router.preference_list(key, 2)
        cluster.handle(RecommendationRequest(key, 1))  # replicated: in sync
        cluster.partition(leader, follower)
        cluster.handle(RecommendationRequest(key, 2))  # leader-only
        cluster.kill_pod(leader)
        response = cluster.handle(RecommendationRequest(key, 3))
        # Promotion fences the stale copy: honest loss, not a rewind —
        # the session restarts from the post-failover click.
        assert response.served_by == follower
        assert cluster.pods[follower].sessions.get_session(key) == [3]
        info = cluster.ring_info()
        assert info["fenced_sessions"] >= 1
        assert info["failovers"] == 1

    def test_healed_partition_catches_up_and_lifts_the_fence(self, small_log):
        cluster, _ = ring_cluster(small_log)
        key = "healed"
        leader, follower = cluster.router.preference_list(key, 2)
        cluster.partition(leader, follower)
        cluster.handle(RecommendationRequest(key, 1))
        cluster.handle(RecommendationRequest(key, 2))
        assert cluster.pods[follower].sessions.get_session(key) is None
        cluster.heal_partition(leader, follower)
        cluster.handle(RecommendationRequest(key, 3))  # ships catch-up tail
        assert cluster.pods[follower].sessions.get_session(key) == [1, 2, 3]
        # Caught up: promotion now serves the full history, nothing fenced.
        cluster.kill_pod(leader)
        response = cluster.handle(RecommendationRequest(key, 4))
        assert response.served_by == follower
        assert cluster.pods[follower].sessions.get_session(key) == [1, 2, 3, 4]
        assert cluster.ring_info()["fenced_sessions"] == 0

    def test_partition_storm_through_chaos_schedule(self, small_log):
        cluster, _ = ring_cluster(small_log, num_pods=3)
        generator = TrafficGenerator(small_log, seed=33)
        schedule = ChaosSchedule(
            partitions=[
                NetworkPartition(
                    at_time=2.0, pod_a="pod-0", pod_b="pod-1", heal_at=6.0
                )
            ]
        )
        report = ChaosInjector(cluster, schedule).run(
            generator.generate(constant_rate(50), duration=10)
        )
        assert report.partitions_applied == 1
        assert report.partitions_healed == 1
        assert report.failed_requests == 0
        # Requests keep flowing during the cut; nothing is lost because
        # the leaders (not the cut links) own the authoritative copies.
        assert report.degraded_requests == 0


class TestRebalancing:
    def test_scale_up_rebalances_without_failing_requests(self, small_log):
        cluster, _ = ring_cluster(small_log, num_pods=2)
        keys = [f"r{i}" for i in range(40)]
        for key in keys:
            for item in (1, 2):
                cluster.handle(RecommendationRequest(key, item))
        cluster.scale_to(3)
        assert cluster.ring_info()["rebalanced_sessions"] > 0
        for key in keys:
            response = cluster.handle(RecommendationRequest(key, 3))
            leader = leader_of(cluster, key)
            assert response.served_by in cluster.pods
            assert cluster.pods[leader].sessions.get_session(key) == [1, 2, 3]
        # A second interleaved pass: fresh links' full-log resyncs must
        # not replay pre-rebalance records over copies that advanced
        # since (regression for the stale-delete/stale-put rewind).
        for key in keys:
            cluster.handle(RecommendationRequest(key, 4))
        for key in keys:
            leader = leader_of(cluster, key)
            assert cluster.pods[leader].sessions.get_session(key) == [1, 2, 3, 4]

    def test_restarted_pod_rejoins_and_receives_its_sessions_back(self, small_log):
        cluster, _ = ring_cluster(small_log, num_pods=3)
        keys = [f"b{i}" for i in range(30)]
        for key in keys:
            cluster.handle(RecommendationRequest(key, 1))
        victims = [key for key in keys if leader_of(cluster, key) == "pod-0"]
        assert victims
        cluster.kill_pod("pod-0")
        for key in victims:  # failover heals the ring per key
            cluster.handle(RecommendationRequest(key, 2))
        cluster.restart_pod("pod-0")
        assert "pod-0" in cluster.router.pods
        for key in victims:
            response = cluster.handle(RecommendationRequest(key, 3))
            assert response.served_by in cluster.pods
            leader = leader_of(cluster, key)
            assert cluster.pods[leader].sessions.get_session(key) == [1, 2, 3]

    def test_decommission_drains_before_deleting_wal(self, small_log, tmp_path):
        """Satellite regression: drain-then-delete ordering. Scale-down
        must hand every session to its new owners *before* the WAL goes."""
        cluster, _ = ring_cluster(small_log, num_pods=3, wal_dir=tmp_path)
        keys = [f"d{i}" for i in range(30)]
        for key in keys:
            for item in (1, 2):
                cluster.handle(RecommendationRequest(key, item))
        moved = [key for key in keys if leader_of(cluster, key) == "pod-2"]
        assert moved  # some sessions were led by the decommissioned pod
        cluster.scale_to(2)
        assert not (tmp_path / "pod-2.wal").exists()
        assert cluster.ring_info()["drained_sessions"] > 0
        for key in keys:
            response = cluster.handle(RecommendationRequest(key, 3))
            assert response.served_by in cluster.pods
            leader = leader_of(cluster, key)
            # Full history survived the planned scale-down: zero loss,
            # unlike the seed's accepted-loss scale-down.
            assert cluster.pods[leader].sessions.get_session(key) == [1, 2, 3]


class TestAutoscalerThroughRing:
    def test_scaling_actions_flow_through_the_coordinator(self, small_log):
        cluster, _ = ring_cluster(small_log, num_pods=2)
        for server in cluster.pods.values():
            server.injected_stall_seconds = 0.02
        policy = AutoscalePolicy(
            scale_up_at=0.5,
            scale_down_at=0.05,
            min_pods=2,
            max_pods=4,
            cooldown_seconds=0.0,
            evaluation_interval=5.0,
        )
        simulator = ClusterSimulator(cluster, cores_per_pod=1, policy=policy)
        generator = TrafficGenerator(small_log, seed=41)
        result = simulator.run(
            generator.generate(constant_rate(80), duration=30)
        )
        assert result.total_requests > 0
        assert result.actions  # the policy did scale the ring
        assert any(action.to_pods > action.from_pods for action in result.actions)
        assert result.max_pods_used >= 3
        assert cluster.ring_info()["rebalanced_sessions"] > 0
