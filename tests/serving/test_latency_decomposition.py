"""Tests for the request-time decomposition (the colocation argument)."""

from __future__ import annotations

import pytest

from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
from repro.serving.app import ServingCluster
from repro.serving.server import RecommendationRequest


def one_pod(recommender) -> ServingCluster:
    return ServingCluster(lambda: recommender, num_pods=1)


class TestLatencyDecomposition:
    def test_store_and_predict_times_accumulate(self, toy_index):
        cluster = one_pod(VMISKNN(toy_index, m=10, k=10))
        [server] = cluster.pods.values()
        for item in (1, 2, 4):
            cluster.handle(RecommendationRequest("u", item))
        assert server.stats.store_seconds > 0
        assert server.stats.predict_seconds > 0
        assert (
            server.stats.store_seconds + server.stats.predict_seconds
            <= server.stats.busy_seconds + 1e-6
        )

    def test_local_store_is_a_small_fraction_of_prediction(self, medium_log):
        """§4.2: with colocated state, session access is microseconds and
        prediction dominates the request — the design's whole point."""
        index = SessionIndex.from_clicks(medium_log, max_sessions_per_item=200)
        cluster = one_pod(VMISKNN(index, m=200, k=100))
        [server] = cluster.pods.values()
        sequences = list(medium_log.session_item_sequences().values())[:50]
        for number, sequence in enumerate(sequences):
            for item in sequence:
                cluster.handle(RecommendationRequest(f"user-{number}", item))
        stats = server.stats
        assert stats.requests > 100
        # Local KV access must be well under half of the compute time.
        assert stats.store_seconds < 0.5 * stats.predict_seconds


class TestSessionCap:
    def test_capped_model_uses_recent_suffix_only(self, toy_index):
        capped = VMISKNN(toy_index, m=10, k=10, max_session_items=2)
        full = VMISKNN(toy_index, m=10, k=10)
        long_session = [3] * 8 + [1, 2]
        assert capped.find_neighbors(long_session) == full.find_neighbors([1, 2])
        assert capped.recommend(long_session, 5) == full.recommend([1, 2], 5)

    def test_cap_validation(self, toy_index):
        with pytest.raises(ValueError):
            VMISKNN(toy_index, max_session_items=0)

    def test_no_cap_by_default(self, toy_index):
        model = VMISKNN(toy_index, m=10, k=10)
        assert model.max_session_items is None
