"""Tests for the stateful recommendation server."""

from __future__ import annotations

import pytest

from repro.core.vmis import VMISKNN
from repro.serving.rules import BusinessRules, exclude_unavailable
from repro.serving.server import (
    FRONTEND_SLOT_SIZE,
    RecommendationRequest,
    RecommendationServer,
)
from repro.serving.variants import ServingVariant


@pytest.fixture()
def server(toy_index):
    recommender = VMISKNN(toy_index, m=10, k=10, exclude_current_items=True)
    return RecommendationServer("pod-test", recommender)


class TestRequestHandling:
    def test_response_has_slot_size_limit(self, server):
        response = server.handle(RecommendationRequest("u1", 1))
        assert len(response.items) <= FRONTEND_SLOT_SIZE
        assert response.served_by == "pod-test"
        assert response.service_seconds > 0

    def test_session_state_accumulates(self, server):
        server.handle(RecommendationRequest("u1", 1))
        server.handle(RecommendationRequest("u1", 2))
        assert server.sessions.get_session("u1") == [1, 2]

    def test_variant_controls_visible_history(self, toy_index):
        calls = []

        class SpyRecommender:
            def recommend(self, session_items, how_many=21):
                calls.append(list(session_items))
                return []

        server = RecommendationServer("pod", SpyRecommender())
        server.handle(RecommendationRequest("u", 1, variant=ServingVariant.FULL))
        server.handle(RecommendationRequest("u", 2, variant=ServingVariant.HIST))
        server.handle(RecommendationRequest("u", 3, variant=ServingVariant.RECENT))
        assert calls == [[1], [1, 2], [3]]

    def test_stats_counted(self, server):
        for item in (1, 2, 4):
            server.handle(RecommendationRequest("u", item))
        assert server.stats.requests == 3
        assert len(server.stats.service_times) == 3
        assert server.stats.busy_seconds > 0

    def test_service_times_are_a_window_not_a_log(self, toy_index, monkeypatch):
        from repro.serving.app import ServingCluster

        monkeypatch.setattr("repro.serving.server.SERVICE_TIME_WINDOW", 5)
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        for n in range(12):
            cluster.handle(RecommendationRequest(f"u{n}", 1 + n % 4))
        [pod] = cluster.pods.values()
        assert pod.stats.requests == 12  # counters still see every request
        assert len(cluster.all_service_times()) == 5
        assert cluster.all_service_times() == list(pod.stats.service_times)


class TestDepersonalisation:
    def test_no_consent_does_not_touch_state(self, server):
        server.handle(RecommendationRequest("u1", 1, consent=False))
        assert server.sessions.get_session("u1") is None
        assert server.stats.depersonalised_requests == 1

    def test_no_consent_still_recommends(self, server):
        response = server.handle(RecommendationRequest("u1", 1, consent=False))
        assert isinstance(response.items, tuple)

    def test_revoke_consent_drops_session(self, server):
        server.handle(RecommendationRequest("u1", 1))
        server.revoke_consent("u1")
        assert server.sessions.get_session("u1") is None


class TestBusinessRulesIntegration:
    def test_unavailable_items_filtered(self, toy_index):
        recommender = VMISKNN(toy_index, m=10, k=10)
        unfiltered = RecommendationServer("p", recommender)
        all_items = {
            s.item_id
            for s in unfiltered.handle(RecommendationRequest("u", 1)).items
        }
        assert all_items, "need a non-empty baseline for this test"
        blocked = next(iter(all_items))
        filtered_server = RecommendationServer(
            "p2",
            recommender,
            rules=BusinessRules([exclude_unavailable({blocked})]),
        )
        response = filtered_server.handle(RecommendationRequest("u", 1))
        assert blocked not in {s.item_id for s in response.items}

    def test_index_rollout_swaps_recommender(self, server, toy_index):
        replacement = VMISKNN(toy_index, m=5, k=5)
        server.replace_recommender(replacement)
        assert server.recommender is replacement
