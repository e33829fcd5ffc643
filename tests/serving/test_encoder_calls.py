"""What the answer encoder formats, counted: each score once per service.

``SerenadeService`` keeps the text of the scores it has written in a
bounded table, so an answer it has written before costs a lookup per
score, not a ``float.__repr__``. The guard is the number of calls to the
module's ``_float_repr``, which, unlike a timing, does not drift with the
machine.
"""

from __future__ import annotations

import pytest

from repro.core.index import SessionIndex
from repro.serving import http
from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeService
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import RecommendationRequest


@pytest.fixture(scope="module")
def cluster(small_log):
    index = SessionIndex.from_clicks(small_log, max_sessions_per_item=100)
    # A budget no box stall can burn: a degraded answer would be another.
    serving = ServingCluster.with_index(
        index,
        num_pods=2,
        m=100,
        k=50,
        cache_size=1024,
        resilience=ResiliencePolicy(budget_ms=60_000.0),
    )
    yield serving
    serving.close()


@pytest.fixture()
def float_reprs(monkeypatch):
    """Arguments of every ``_float_repr`` call the module makes."""
    calls: list[float] = []
    real = http._float_repr

    def counted(value):
        calls.append(value)
        return real(value)

    monkeypatch.setattr(http, "_float_repr", counted)
    return calls


def anon(item_id: int) -> dict:
    return {"session_id": "anon", "item_id": item_id, "consent": False, "count": 21}


def test_a_cached_answer_formats_only_its_latency(cluster, float_reprs):
    # An item whose answer has 21 scores, all distinct and none zero, now
    # in the result cache of the pod "anon" routes to.
    for item_id in range(300):  # small_log's catalogue
        items = cluster.handle(RecommendationRequest("anon", item_id, consent=False)).items
        scores = {scored.score for scored in items}
        if len(items) == 21 and len(scores) == 21 and all(scores):
            break
    else:
        pytest.fail("no item with 21 distinct non-zero scores")
    service = SerenadeService(cluster)
    misses = cluster.cache_info()["misses"]

    service.recommend(anon(item_id))
    assert len(float_reprs) == 22  # 21 scores and latency_ms
    float_reprs.clear()
    service.recommend(anon(item_id))
    assert len(float_reprs) == 1  # latency_ms alone
    assert cluster.cache_info()["misses"] == misses


def test_a_batch_shares_the_table(cluster, float_reprs):
    service = SerenadeService(cluster)
    sessions = [[1, 2], [3], [4, 5, 6]]
    scored = cluster.batch_engine().recommend_batch(sessions, how_many=21)
    scores = [item.score for ranked in scored for item in ranked]
    assert scores
    zeros = scores.count(0.0)  # never stored: 0.0 and -0.0 print differently
    service.recommend_batch({"sessions": sessions, "count": 21})
    assert len(float_reprs) == len(set(scores) - {0.0}) + zeros + 1
    float_reprs.clear()
    service.recommend_batch({"sessions": sessions, "count": 21})
    assert len(float_reprs) == zeros + 1
