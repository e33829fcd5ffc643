"""Tests for the serving cluster (ring + pods)."""

from __future__ import annotations

import pytest

from repro.core.index import SessionIndex
from repro.core.types import Click
from repro.core.vmis import VMISKNN
from repro.serving.app import ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.serving.ring import ReplicationPolicy
from repro.serving.server import RecommendationRequest, RecommendationServer


@pytest.fixture()
def cluster(toy_index):
    return ServingCluster.with_index(toy_index, num_pods=3, m=10, k=10)


class TestRouting:
    def test_session_stickiness(self, cluster):
        pods = {
            cluster.handle(RecommendationRequest("sticky-user", item)).served_by
            for item in (1, 2, 4, 5)
        }
        assert len(pods) == 1

    def test_state_lives_on_owning_pod_only(self, cluster):
        cluster.handle(RecommendationRequest("u-x", 1))
        owner = cluster.router.primary("u-x")
        for pod_id, server in cluster.pods.items():
            stored = server.sessions.get_session("u-x")
            if pod_id == owner:
                assert stored == [1]
            else:
                assert stored is None

    def test_request_counting(self, cluster):
        for i in range(10):
            cluster.handle(RecommendationRequest(f"user-{i}", 1))
        assert cluster.total_requests() == 10
        assert len(cluster.all_service_times()) == 10


class TestOneRequestPath:
    """Sticky routing is the ring at R = 1: every cluster has a
    coordinator, and a single-copy one keeps nothing that grows."""

    def test_default_cluster_is_the_ring_at_one_copy(self, cluster):
        assert cluster.coordinator is not None
        info = cluster.ring_info()
        assert info["replication_factor"] == 1
        assert info["ring_pods"] == ["pod-0", "pod-1", "pod-2"]
        response = cluster.handle(RecommendationRequest("u-1", 1))
        assert response.served_by == cluster.route_live("u-1")
        assert cluster.ring_info()["leader_sessions"][response.served_by] == 1

    def test_default_budget_is_the_resilience_policys(self, toy_index):
        guarded = ServingCluster.with_index(
            toy_index, m=10, k=10, resilience=ResiliencePolicy(budget_ms=20.0)
        )
        assert guarded.replication.budget_ms == 20.0
        assert guarded.replication.replication_factor == 1

    def test_policy_virtual_nodes_reach_the_ring(self, toy_index):
        cluster = ServingCluster.with_index(
            toy_index, m=10, k=10, replication=ReplicationPolicy(virtual_nodes=16)
        )
        assert cluster.router.virtual_nodes == 16

    def test_single_copy_keeps_no_replication_log(self, toy_index):
        """Nothing grows with uptime at R = 1; R = 2 still ships."""
        clicks = [(f"user-{i % 200}", 1 + i % 5) for i in range(2000)]
        single = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        for key, item in clicks:
            single.handle(RecommendationRequest(key, item))
        for server in single.pods.values():
            assert server.sessions.replication_offset == 0
        assert single.ring_info()["replication_lag"] == {}

        double = ServingCluster.with_index(
            toy_index,
            num_pods=2,
            m=10,
            k=10,
            replication=ReplicationPolicy(replication_factor=2),
        )
        applied = []
        for server in double.pods.values():
            original = server.sessions.apply_tail

            def recording(data, key_filter=None, _original=original):
                report = _original(data, key_filter=key_filter)
                applied.append(report.applied)
                return report

            server.sessions.apply_tail = recording
        for key, item in clicks:
            double.handle(RecommendationRequest(key, item))
        assert sum(applied) / len(clicks) > 0  # ring.records_applied_per_write
        assert all(s.sessions.replication_offset > 0 for s in double.pods.values())

    def test_partition_is_harmless_without_followers(self, cluster):
        cluster.partition("pod-0", "pod-1")
        assert cluster.handle(RecommendationRequest("u-2", 1)).items
        cluster.heal_partition("pod-0", "pod-1")
        assert cluster.ring_info()["partitioned_links"] == []

    def test_service_time_recording_is_not_a_knob(self):
        """Pods always keep the bounded service-time window; the opt-out
        (no caller ever set it) is gone from both constructors."""
        import inspect

        assert list(inspect.signature(ServingCluster).parameters) == [
            "recommender_factory",
            "num_pods",
            "rules",
            "clock",
            "cache_size",
            "resilience",
            "fallback_factory",
            "static_items",
            "wal_dir",
            "index_version",
            "replication",
        ]
        knobs = inspect.signature(RecommendationServer).parameters
        assert not [name for name in knobs if "service_time" in name]

    def test_scale_down_drains_sessions_to_their_new_owners(self, cluster):
        keys = [f"user-{i}" for i in range(30)]
        for key in keys:
            cluster.handle(RecommendationRequest(key, 1))
        cluster.scale_to(1)
        assert cluster.pods["pod-0"].sessions.as_dict() == {key: [1] for key in keys}
        assert cluster.ring_info()["drained_sessions"] > 0


class TestEngineSelection:
    def test_default_engine_is_columnar_and_shares_one_index(self, toy_index):
        from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar

        cluster = ServingCluster.with_index(toy_index, num_pods=3, m=10, k=10)
        recommenders = [s.recommender for s in cluster.pods.values()]
        assert all(isinstance(r, VMISKNNColumnar) for r in recommenders)
        assert isinstance(recommenders[0].index, ColumnarSessionIndex)
        # the SessionIndex -> columnar conversion runs once; pods share it.
        assert len({id(r.index) for r in recommenders}) == 1

    def test_heap_engine_is_the_differential_oracle(self, toy_index):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=1, m=10, k=10, engine="heap"
        )
        for server in cluster.pods.values():
            assert isinstance(server.recommender, VMISKNN)

    def test_columnar_and_heap_engines_agree_bit_for_bit(self, toy_index):
        columnar = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        heap = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, engine="heap"
        )
        for key, item in [("u-1", 1), ("u-1", 2), ("u-2", 4), ("u-3", 2)]:
            got = columnar.handle(RecommendationRequest(key, item))
            want = heap.handle(RecommendationRequest(key, item))
            assert [(s.item_id, s.score) for s in got.items] == [
                (s.item_id, s.score) for s in want.items
            ]

    def test_unknown_engine_raises(self, toy_index):
        with pytest.raises(ValueError, match="unknown engine"):
            ServingCluster.with_index(toy_index, num_pods=1, engine="gpu")


class TestScaling:
    def test_scale_up_adds_pods(self, cluster):
        cluster.scale_to(5)
        assert len(cluster.pods) == 5
        assert len(cluster.router.pods) == 5

    def test_scale_down_removes_pods(self, cluster):
        cluster.scale_to(1)
        assert list(cluster.pods) == ["pod-0"]

    def test_scale_down_loses_sessions_of_removed_pods_only(self, toy_index):
        """Sessions of the surviving pods stay put (the removed pod's are
        drained, see ``test_scale_down_drains_sessions_to_their_new_owners``)."""
        cluster = ServingCluster.with_index(toy_index, num_pods=3, m=10, k=10)
        keys = [f"user-{i}" for i in range(30)]
        for key in keys:
            cluster.handle(RecommendationRequest(key, 1))
        survivors = {
            key
            for key in keys
            if cluster.router.primary(key) in ("pod-0", "pod-1")
        }
        cluster.scale_to(2)
        for key in survivors:
            owner = cluster.router.primary(key)
            assert cluster.pods[owner].sessions.get_session(key) == [1]

    def test_rejects_zero_pods(self, cluster):
        with pytest.raises(ValueError):
            cluster.scale_to(0)
        with pytest.raises(ValueError):
            ServingCluster(lambda: None, num_pods=0)


class TestIndexRollout:
    def test_rollout_replaces_all_pods(self, toy_index, toy_clicks):
        cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        fresh_index = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.rollout_index(lambda: VMISKNN(fresh_index, m=3, k=5))
        for server in cluster.pods.values():
            assert server.recommender.index is fresh_index

    def test_new_pods_after_rollout_use_new_factory(self, toy_index, toy_clicks):
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        fresh_index = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.rollout_index(lambda: VMISKNN(fresh_index, m=3, k=5))
        cluster.scale_to(2)
        assert cluster.pods["pod-1"].recommender.index is fresh_index


class TestStagedSwap:
    """Per-pod swap APIs used by the lifecycle RolloutController."""

    def test_swap_single_pod_leaves_others_untouched(
        self, toy_index, toy_clicks
    ):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=3, m=10, k=10, index_version="v1"
        )
        untouched = cluster.pods["pod-0"].recommender
        fresh = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.swap_pod_recommender(
            "pod-1", lambda: VMISKNN(fresh, m=3, k=5), version="v2"
        )
        assert cluster.pods["pod-1"].recommender.index is fresh
        assert cluster.pods["pod-0"].recommender is untouched
        info = cluster.rollout_info()
        assert info["pod_versions"] == {
            "pod-0": "v1",
            "pod-1": "v2",
            "pod-2": "v1",
        }
        assert not info["consistent"]
        assert info["committed_version"] == "v1"

    def test_swap_invalidates_pod_result_cache(self, toy_index, toy_clicks):
        """Regression: a swapped pod must never serve recommendations
        cached under the previous index."""
        cluster = ServingCluster.with_index(
            toy_index, num_pods=1, m=10, k=10, cache_size=32
        )
        stale = cluster.handle(RecommendationRequest("swap-user", 1))
        assert stale.items
        # a one-session index: item 1 only co-occurs with item 9
        replacement = SessionIndex.from_clicks(
            [Click(90, 1, 900), Click(90, 9, 901)], max_sessions_per_item=3
        )
        cluster.swap_pod_recommender(
            "pod-0",
            lambda: VMISKNN(replacement, m=3, k=5, exclude_current_items=True),
            version="v2",
        )
        fresh = cluster.handle(
            RecommendationRequest("other-user", 1, consent=False)
        )
        assert [s.item_id for s in fresh.items] == [9]

    def test_swap_closes_previous_recommender(self, toy_index, toy_clicks):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=1, m=10, k=10, cache_size=32
        )
        old = cluster.pods["pod-0"].recommender
        cluster.handle(RecommendationRequest("x", 1))
        fresh = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.swap_pod_recommender(
            "pod-0", lambda: VMISKNN(fresh, m=3, k=5), version="v2"
        )
        assert cluster.pods["pod-0"].recommender is not old
        assert old.cache_info()["size"] == 0  # closed: cache dropped

    def test_commit_then_swap_converges_without_explicit_factory(
        self, toy_index, toy_clicks
    ):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, index_version="v1"
        )
        fresh = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.commit_index(lambda: VMISKNN(fresh, m=3, k=5), version="v2")
        for pod_id in list(cluster.pods):
            cluster.swap_pod_recommender(pod_id)
        info = cluster.rollout_info()
        assert info["consistent"]
        assert set(info["pod_versions"].values()) == {"v2"}
        for server in cluster.pods.values():
            assert server.recommender.index is fresh

    def test_restarted_pod_builds_committed_version(self, toy_index, toy_clicks):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, index_version="v1"
        )
        fresh = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.commit_index(lambda: VMISKNN(fresh, m=3, k=5), version="v2")
        cluster.kill_pod("pod-1")
        cluster.restart_pod("pod-1")
        assert cluster.pods["pod-1"].recommender.index is fresh
        assert cluster.rollout_info()["pod_versions"]["pod-1"] == "v2"

    def test_rollout_info_tracks_kill_and_scale(self, toy_index):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=3, m=10, k=10, index_version="v1"
        )
        cluster.kill_pod("pod-2")
        info = cluster.rollout_info()
        assert set(info["pod_versions"]) == {"pod-0", "pod-1"}
        cluster.scale_to(1)
        assert set(cluster.rollout_info()["pod_versions"]) == {"pod-0"}


class TestBatchServing:
    def test_handle_batch_matches_serial(self, toy_index):
        cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        model = VMISKNN(toy_index, m=10, k=10, exclude_current_items=True)
        sessions = [[1, 2], [2], [], [1, 2]]
        results = cluster.handle_batch(sessions, how_many=5)
        assert len(results) == 4
        for session, ranked in zip(sessions, results):
            expected = model.recommend(session, how_many=5)
            assert [(s.item_id, s.score) for s in ranked] == [
                (s.item_id, s.score) for s in expected
            ]

    def test_handle_batch_scores_the_view_the_session_store_would_keep(
        self, toy_index
    ):
        """Both endpoints cap an evolving session at the store's
        ``max_items``: a longer batch session answers as its tail does."""
        cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
        [cap] = {server.sessions.max_items for server in cluster.pods.values()}
        scored_views = []
        engine = cluster.batch_engine()
        compute = engine._compute_batch

        def recording(sessions, how_many, deadline=None):
            scored_views.extend(sessions)
            return compute(sessions, how_many, deadline)

        engine._compute_batch = recording
        # Item 1 leads only the over-long session: scoring all cap + 1
        # items would see it, the store's view of that history does not.
        over = [1] + [2, 3, 4, 5] * (cap // 4)
        exact = over[1:]
        assert len(over) == cap + 1 and len(exact) == cap
        [ranked_over] = cluster.handle_batch([over], how_many=5)
        assert scored_views == [exact]
        engine.cache.clear()
        [ranked_exact] = cluster.handle_batch([exact], how_many=5)
        assert scored_views == [exact, exact]  # a cap-long one is untouched
        assert ranked_over == ranked_exact

    def test_handle_batch_runs_on_the_calling_thread(self, toy_index):
        """No pool and no knob for one: the batch is scored inline."""
        import inspect
        import threading

        knobs = list(inspect.signature(ServingCluster).parameters)
        assert len(knobs) == 11
        assert not [name for name in knobs if "workers" in name]
        scoring_threads = []

        class Recording(VMISKNN):
            def recommend(self, session_items, how_many=21):
                scoring_threads.append(threading.current_thread())
                return super().recommend(session_items, how_many=how_many)

        cluster = ServingCluster(
            lambda: Recording(toy_index, m=10, k=10), num_pods=1
        )
        results = cluster.handle_batch([[1, 2], [2], [4, 5], [3]], how_many=5)
        assert len(results) == 4
        assert scoring_threads == [threading.current_thread()] * 4
        assert not [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-batch")
        ]

    def test_cache_size_wraps_pod_recommenders(self, toy_index):
        from repro.core.batch import BatchPredictionEngine
        from repro.core.colindex import VMISKNNColumnar

        cached = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, cache_size=32
        )
        plain = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        for server in cached.pods.values():
            assert isinstance(server.recommender, BatchPredictionEngine)
        for server in plain.pods.values():
            assert isinstance(server.recommender, VMISKNNColumnar)

    def test_single_query_path_uses_cache(self, toy_index):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=1, m=10, k=10, cache_size=32
        )
        first = cluster.handle(RecommendationRequest("hot-user", 1))
        second = cluster.handle(RecommendationRequest("cold-user", 1))
        assert [
            (s.item_id, s.score) for s in first.items
        ] == [(s.item_id, s.score) for s in second.items]
        assert cluster.cache_info()["hits"] >= 1

    def test_cache_info_aggregates_batch_engine(self, toy_index):
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        cluster.handle_batch([[1, 2]], how_many=5)
        cluster.handle_batch([[1, 2]], how_many=5)
        info = cluster.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5

    def test_rollout_drops_batch_engine_and_caches(self, toy_index, toy_clicks):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=1, m=10, k=10, cache_size=32
        )
        cluster.handle_batch([[1, 2]], how_many=5)
        stale = cluster.batch_engine()
        fresh_index = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        cluster.rollout_index(lambda: VMISKNN(fresh_index, m=3, k=5))
        assert cluster.batch_engine() is not stale
        assert cluster.batch_engine()._recommender.index is fresh_index
        # pods got fresh cache-wrapped recommenders for the new index
        for server in cluster.pods.values():
            assert server.recommender._recommender.index is fresh_index
            assert server.recommender.cache_info()["size"] == 0
