"""Tests for the stateful recommendation server, driven through the one
request path: a one-pod cluster's ``handle``."""

from __future__ import annotations

import pytest

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.vmis import VMISKNN
from repro.serving.app import ServingCluster
from repro.serving.resilience import StaticRecommender, popularity_from_index
from repro.serving.rules import BusinessRules, exclude_unavailable
from repro.serving.server import (
    FRONTEND_SLOT_SIZE,
    OVERFETCH_FACTOR,
    RecommendationRequest,
)
from repro.serving.variants import ServingVariant


def one_pod(recommender, rules=None) -> ServingCluster:
    """A cluster of one pod serving ``recommender`` as it is."""
    return ServingCluster(lambda: recommender, num_pods=1, rules=rules)


@pytest.fixture()
def cluster(toy_index):
    return one_pod(VMISKNN(toy_index, m=10, k=10, exclude_current_items=True))


@pytest.fixture()
def server(cluster):
    [pod] = cluster.pods.values()
    return pod


class TestRequestHandling:
    def test_response_has_slot_size_limit(self, cluster, server):
        response = cluster.handle(RecommendationRequest("u1", 1))
        assert len(response.items) <= FRONTEND_SLOT_SIZE
        assert response.served_by == server.pod_id
        assert response.service_seconds > 0

    def test_session_state_accumulates(self, cluster, server):
        cluster.handle(RecommendationRequest("u1", 1))
        cluster.handle(RecommendationRequest("u1", 2))
        assert server.sessions.get_session("u1") == [1, 2]

    def test_variant_controls_visible_history(self, toy_index):
        calls = []

        class SpyRecommender:
            def recommend(self, session_items, how_many=21):
                calls.append(list(session_items))
                return []

        cluster = one_pod(SpyRecommender())
        cluster.handle(RecommendationRequest("u", 1, variant=ServingVariant.FULL))
        cluster.handle(RecommendationRequest("u", 2, variant=ServingVariant.HIST))
        cluster.handle(RecommendationRequest("u", 3, variant=ServingVariant.RECENT))
        assert calls == [[1], [1, 2], [3]]

    def test_stats_counted(self, cluster, server):
        for item in (1, 2, 4):
            cluster.handle(RecommendationRequest("u", item))
        assert server.stats.requests == 3
        assert len(server.stats.service_times) == 3
        assert server.stats.busy_seconds > 0

    def test_service_times_are_a_window_not_a_log(self, toy_index, monkeypatch):
        monkeypatch.setattr("repro.serving.server.SERVICE_TIME_WINDOW", 5)
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        for n in range(12):
            cluster.handle(RecommendationRequest(f"u{n}", 1 + n % 4))
        [pod] = cluster.pods.values()
        assert pod.stats.requests == 12  # counters still see every request
        assert len(cluster.all_service_times()) == 5
        assert cluster.all_service_times() == list(pod.stats.service_times)


class TestDepersonalisation:
    def test_no_consent_does_not_touch_state(self, cluster, server):
        cluster.handle(RecommendationRequest("u1", 1, consent=False))
        assert server.sessions.get_session("u1") is None
        assert server.stats.depersonalised_requests == 1

    def test_no_consent_still_recommends(self, cluster):
        response = cluster.handle(RecommendationRequest("u1", 1, consent=False))
        assert isinstance(response.items, tuple)

    def test_revoke_consent_drops_session(self, cluster, server):
        cluster.handle(RecommendationRequest("u1", 1))
        server.revoke_consent("u1")
        assert server.sessions.get_session("u1") is None


class TestBusinessRulesIntegration:
    def test_unavailable_items_filtered(self, toy_index):
        recommender = VMISKNN(toy_index, m=10, k=10)
        unfiltered = one_pod(recommender)
        all_items = {
            s.item_id
            for s in unfiltered.handle(RecommendationRequest("u", 1)).items
        }
        assert all_items, "need a non-empty baseline for this test"
        blocked = next(iter(all_items))
        filtered = one_pod(
            recommender, rules=BusinessRules([exclude_unavailable({blocked})])
        )
        response = filtered.handle(RecommendationRequest("u", 1))
        assert blocked not in {s.item_id for s in response.items}

    def test_index_rollout_swaps_recommender(self, server, toy_index):
        replacement = VMISKNN(toy_index, m=5, k=5)
        server.replace_recommender(replacement)
        assert server.recommender is replacement


class _Spy:
    """Records the ``how_many`` of every call it forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.asked: list[int] = []

    def recommend(self, session_items, how_many=21):
        self.asked.append(how_many)
        return self.inner.recommend(session_items, how_many=how_many)


class TestFetchPolicy:
    """Overfetch exists so that rules can drop items; with no rule there
    is nothing to drop, and the recommender is asked for what is served."""

    def test_no_rule_asks_for_exactly_how_many(self, toy_index):
        spy = _Spy(VMISKNN(toy_index, m=10, k=10))
        cluster = one_pod(spy)
        cluster.handle(RecommendationRequest("u", 1, how_many=3))
        assert spy.asked == [3]

    def test_one_rule_asks_for_the_overfetch(self, toy_index):
        spy = _Spy(VMISKNN(toy_index, m=10, k=10))
        cluster = one_pod(spy, rules=BusinessRules([exclude_unavailable({99})]))
        cluster.handle(RecommendationRequest("u", 1, how_many=3))
        assert spy.asked == [3 * OVERFETCH_FACTOR]

    def test_rule_count_is_read_per_request(self, toy_index):
        spy = _Spy(VMISKNN(toy_index, m=10, k=10))
        rules = BusinessRules()
        cluster = one_pod(spy, rules=rules)
        cluster.handle(RecommendationRequest("u", 1, how_many=3))
        rules.add(exclude_unavailable({99}))
        cluster.handle(RecommendationRequest("u", 2, how_many=3))
        assert spy.asked == [3, 3 * OVERFETCH_FACTOR]

    def test_callers_empty_rule_set_is_kept(self, toy_index):
        """An empty ``BusinessRules`` is falsy (it has ``__len__``); the
        pods must still share the caller's object, so that a rule added
        after construction runs."""
        rules = BusinessRules()
        cluster = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, rules=rules
        )
        try:
            before = cluster.handle(RecommendationRequest("a", 1, consent=False))
            served = [scored.item_id for scored in before.items]
            assert len(served) >= 2, "need something to block"
            rules.add(exclude_unavailable(served[:2]))
            assert all(pod.rules is rules for pod in cluster.pods.values())
            after = cluster.handle(RecommendationRequest("b", 1, consent=False))
            assert [scored.item_id for scored in after.items] == served[2:]
        finally:
            cluster.close()

    @pytest.mark.parametrize("how_many", [1, 2, 3, 21])
    def test_no_rule_answer_is_the_prefix_of_the_overfetched_one(
        self, toy_index, how_many
    ):
        """Why fetching less is the same answer: every stage ranks
        deterministically, so its top n are a prefix of its top 2n."""
        popularity = popularity_from_index(toy_index)
        stages = [
            VMISKNN(toy_index, m=10, k=10, exclude_current_items=True),
            VMISKNNColumnar(
                ColumnarSessionIndex.from_session_index(toy_index),
                m=10,
                k=10,
                exclude_current_items=True,
            ),
            popularity,
            StaticRecommender(popularity.recommend([], how_many=50)),
        ]
        for stage in stages:
            for view in ([1], [2, 4], [5, 1, 2], []):
                exact = stage.recommend(view, how_many=how_many)
                overfetched = stage.recommend(
                    view, how_many=how_many * OVERFETCH_FACTOR
                )
                assert exact == overfetched[:how_many], (type(stage).__name__, view)
