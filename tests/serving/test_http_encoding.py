"""The answer encoder against ``json.dumps``, byte for byte.

``SerenadeService.recommend`` / ``recommend_batch`` write the response
body from the ranked list themselves. The reference here is what they
replaced: the ``dict`` the service used to build, through ``json.dumps``.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.serving.http as serving_http
from repro.core.types import ScoredItem
from repro.serving.app import ServingCluster
from repro.serving.http import _SCORE_TEXT_LIMIT, SerenadeHTTPServer, SerenadeService
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import RecommendationResponse


def reference_recommend(response: RecommendationResponse, elapsed: float) -> bytes:
    return json.dumps(
        {
            "items": [
                {"item_id": scored.item_id, "score": scored.score}
                for scored in response.items
            ],
            "pod": response.served_by,
            "latency_ms": elapsed * 1e3,
            "degraded": response.degraded,
            "stage": response.served_stage,
        }
    ).encode("utf-8")


def reference_batch(results, elapsed: float, cache: dict) -> bytes:
    return json.dumps(
        {
            "results": [
                [{"item_id": scored.item_id, "score": scored.score} for scored in ranked]
                for ranked in results
            ],
            "latency_ms": elapsed * 1e3,
            "cache": {"hits": cache["hits"], "hit_rate": cache["hit_rate"]},
        }
    ).encode("utf-8")


class StubCluster:
    """Answers with what the test hands it: the encoder sees values no
    index would produce."""

    def __init__(self) -> None:
        self.response: RecommendationResponse | None = None
        self.results: list[list[ScoredItem]] = []
        self.cache = {"hits": 0, "misses": 0, "hit_rate": 0.0}

    def handle(self, request):
        return self.response

    def handle_batch(self, sessions, how_many):
        return self.results

    def batch_engine(self):
        return SimpleNamespace(cache_info=lambda: self.cache)


def service_with(cluster: StubCluster, started: float, finished: float) -> SerenadeService:
    ticks = iter((started, finished))
    return SerenadeService(cluster, perf_clock=lambda: next(ticks))  # type: ignore[arg-type]


AWKWARD_SCORES = [
    0.1 + 0.2,  # 0.30000000000000004: seventeen digits
    1e22,  # '1e+22': exponent form, with its sign
    1e16,  # the first power of ten repr writes that way; 1e15 is all digits
    1e15,
    1e-7,
    5e-324,  # the smallest subnormal
    -0.0,
    0.0,
    1.0,
    123456789.12345678,
    1.7976931348623157e308,
    # json.dumps spells these NaN, Infinity, -Infinity; repr does not.
    math.nan,
    math.inf,
    -math.inf,
]

scores = st.one_of(
    st.sampled_from(AWKWARD_SCORES),
    st.floats(allow_nan=True, allow_infinity=True),
)
item_ids = st.one_of(
    st.sampled_from([0, 1, 2**31, 2**63 - 1]),
    st.integers(min_value=0, max_value=2**63 - 1),
)
ranked_lists = st.lists(st.builds(ScoredItem, item_ids, scores), max_size=25)
#: pod and stage names are operator-chosen strings: quotes, backslashes,
#: control characters and anything outside ASCII must come out escaped.
names = st.one_of(
    st.sampled_from(
        ["pod-0", "primary", 'a"b', "back\\slash", "tab\there", "é", "\U0001f600", ""]
    ),
    st.text(max_size=12),
)
#: a perf clock read twice; finite, as a clock is.
instants = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


class TestDifferential:
    @given(
        ranked=ranked_lists,
        pod=names,
        stage=names,
        degraded=st.booleans(),
        started=instants,
        finished=instants,
    )
    @example(
        ranked=[ScoredItem(2**63 - 1, score) for score in AWKWARD_SCORES],
        pod='pod "zero"\\\n',
        stage="stätic",
        degraded=True,
        started=0.0,
        finished=0.1 + 0.2,
    )
    @example(ranked=[], pod="pod-0", stage="primary", degraded=False, started=1.0, finished=1.0)
    def test_recommend_matches_json_dumps(
        self, ranked, pod, stage, degraded, started, finished
    ):
        cluster = StubCluster()
        cluster.response = RecommendationResponse(
            session_key="s",
            items=tuple(ranked),
            served_by=pod,
            service_seconds=0.0,
            degraded=degraded,
            served_stage=stage,
        )
        body = service_with(cluster, started, finished).recommend(
            {"session_id": "s", "item_id": 1}
        )
        assert isinstance(body, bytes)
        assert body == reference_recommend(cluster.response, finished - started)

    @given(
        results=st.lists(ranked_lists, max_size=6),
        hits=st.integers(min_value=0, max_value=2**40),
        hit_rate=st.floats(min_value=0.0, max_value=1.0),
        started=instants,
        finished=instants,
    )
    @example(results=[], hits=0, hit_rate=0.0, started=0.0, finished=0.0)
    @example(
        results=[[], [ScoredItem(7, -0.0)], []],
        hits=3,
        hit_rate=1 / 3,
        started=2.0,
        finished=2.5,
    )
    def test_recommend_batch_matches_json_dumps(
        self, results, hits, hit_rate, started, finished
    ):
        cluster = StubCluster()
        cluster.results = results
        cluster.cache = {"hits": hits, "misses": 1, "hit_rate": hit_rate}
        body = service_with(cluster, started, finished).recommend_batch(
            {"sessions": [[1]] * len(results)}
        )
        assert isinstance(body, bytes)
        assert body == reference_batch(results, finished - started, cluster.cache)

    def test_a_numpy_score_is_written_as_the_float_it_is(self):
        """``repr(np.float64(0.5))`` is ``np.float64(0.5)``; ``json.dumps``
        goes through ``float.__repr__`` and so must the encoder."""
        cluster = StubCluster()
        cluster.results = [[ScoredItem(4, np.float64(0.1) + np.float64(0.2))]]
        body = service_with(cluster, 0.0, 0.0).recommend_batch({"sessions": [[1]]})
        assert body == reference_batch(cluster.results, 0.0, cluster.cache)
        assert b"0.30000000000000004" in body


def answer(ranked) -> RecommendationResponse:
    return RecommendationResponse(
        session_key="s",
        items=tuple(ranked),
        served_by="pod-0",
        service_seconds=0.0,
        degraded=False,
        served_stage="primary",
    )


class TestWarmTable:
    """``recommend`` writes a score it has written before from its table of
    score text; every answer must still be what ``json.dumps`` gives."""

    @staticmethod
    def serve(service: SerenadeService, cluster: StubCluster, ranked) -> bytes:
        cluster.response = answer(ranked)
        body = service.recommend({"session_id": "s", "item_id": 1})
        assert body == reference_recommend(cluster.response, 0.0)
        return body

    @pytest.fixture()
    def served(self):
        cluster = StubCluster()
        return SerenadeService(cluster, perf_clock=lambda: 0.0), cluster  # type: ignore[arg-type]

    @given(answers=st.lists(ranked_lists, min_size=1, max_size=6))
    def test_one_service_many_answers(self, answers):
        cluster = StubCluster()
        service = SerenadeService(cluster, perf_clock=lambda: 0.0)  # type: ignore[arg-type]
        for ranked in answers + answers:
            self.serve(service, cluster, ranked)

    def test_the_same_answer_twice(self, served):
        ranked = [ScoredItem(n, score) for n, score in enumerate(AWKWARD_SCORES)]
        assert self.serve(*served, ranked) == self.serve(*served, ranked)

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_zero_then_negative_zero(self, served, first, second):
        """Equal keys that print differently: neither may answer for the other."""
        self.serve(*served, [ScoredItem(1, first)] * 2)
        body = self.serve(*served, [ScoredItem(1, second), ScoredItem(2, first)])
        assert b'"score": 0.0}' in body and b'"score": -0.0}' in body

    @pytest.mark.parametrize("x", [0.1 + 0.2, 1e22, 5e-324, -1.5])
    def test_a_float_then_its_numpy_twin(self, served, x):
        self.serve(*served, [ScoredItem(1, x)])
        self.serve(*served, [ScoredItem(1, np.float64(x))])
        self.serve(*served, [ScoredItem(1, np.float64(-x)), ScoredItem(2, -x)])

    def test_non_finite_scores_with_a_warm_table(self, served):
        ranked = [
            ScoredItem(1, math.nan),
            ScoredItem(2, math.inf),
            ScoredItem(3, -math.inf),
            ScoredItem(4, float("nan")),
        ]
        self.serve(*served, ranked)
        body = self.serve(*served, ranked + ranked[::-1])
        assert b"NaN" in body and b"-Infinity" in body and b"nan" not in body

    def test_the_table_stays_within_its_limit(self, served, monkeypatch):
        service, cluster = served
        texts = service._score_texts
        score = 1.0
        for _ in range(3 * _SCORE_TEXT_LIMIT // 21 + 1):
            ranked = [ScoredItem(n, score + n) for n in range(21)]
            score += 21
            self.serve(service, cluster, ranked)
            assert len(texts) <= _SCORE_TEXT_LIMIT
        # Cleared during the last answer and refilled with its tail.
        kept = len(texts)
        assert 0 < kept < 21
        assert set(texts) == {item.score for item in ranked[21 - kept :]}
        # The same answer again formats only what the clear dropped.
        calls = []
        real = serving_http._float_repr
        monkeypatch.setattr(
            serving_http, "_float_repr", lambda value: calls.append(value) or real(value)
        )
        self.serve(service, cluster, ranked)
        assert calls == [item.score for item in ranked[: 21 - kept]] + [0.0]

    def test_two_threads_get_identical_bytes(self):
        """A shared table, two writers, more scores than the limit."""
        answers = [
            [ScoredItem(n, (n * 7919 % 1000) / 977 + step) for n in range(21)]
            for step in range(400)
        ]
        cluster = StubCluster()
        cluster.handle = lambda request: answer(answers[request.item_id])
        service = SerenadeService(cluster, perf_clock=lambda: 0.0)  # type: ignore[arg-type]
        start = threading.Barrier(2)
        bodies: dict[int, list[bytes]] = {}

        def encode(worker: int) -> None:
            start.wait()
            bodies[worker] = [
                service.recommend({"session_id": "s", "item_id": number})
                for _ in range(3)
                for number in range(len(answers))
            ]

        threads = [threading.Thread(target=encode, args=(worker,)) for worker in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = [reference_recommend(answer(ranked), 0.0) for ranked in answers] * 3
        assert bodies[0] == bodies[1] == expected


class TestOverARealSocket:
    """The whole path: the bytes the service returns are the bytes on the
    wire, and they decode to the dict the service used to build."""

    @pytest.fixture()
    def server(self, toy_index):
        cluster = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, resilience=ResiliencePolicy()
        )
        with SerenadeHTTPServer(cluster, port=0) as running:
            yield running

    @staticmethod
    def post(server, path: str, payload: dict) -> tuple[http.client.HTTPResponse, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            conn.request("POST", path, body=json.dumps(payload))
            response = conn.getresponse()
            return response, response.read()
        finally:
            conn.close()

    def test_recommend(self, server):
        served = []
        cluster = server.service.cluster
        original = cluster.handle

        def remember(request):
            served.append(original(request))
            return served[-1]

        cluster.handle = remember
        response, raw = self.post(
            server, "/v1/recommend", {"session_id": "wire", "item_id": 1, "count": 4}
        )
        assert response.status == 200
        assert int(response.headers["Content-Length"]) == len(raw)
        body = json.loads(raw)
        [answer] = served
        assert answer.items, "an empty answer would prove little"
        # The one field the test cannot know beforehand is the measured time.
        expected = json.loads(reference_recommend(answer, 0.0))
        expected["latency_ms"] = body["latency_ms"]
        assert body == expected
        assert body["degraded"] is False and body["stage"] == "primary"
        assert isinstance(body["latency_ms"], float) and body["latency_ms"] > 0.0
        assert list(body) == ["items", "pod", "latency_ms", "degraded", "stage"]

    def test_recommend_batch(self, server):
        sessions = [[1, 2], [], [2], [4, 5]]
        response, raw = self.post(
            server, "/v1/recommend_batch", {"sessions": sessions, "count": 3}
        )
        assert response.status == 200
        assert int(response.headers["Content-Length"]) == len(raw)
        body = json.loads(raw)
        engine = server.service.cluster.batch_engine()
        expected = engine.recommend_batch(sessions, how_many=3)
        assert body["results"] == [
            [{"item_id": scored.item_id, "score": scored.score} for scored in ranked]
            for ranked in expected
        ]
        assert body["results"][1] == []
        assert any(body["results"])
        assert set(body["cache"]) == {"hits", "hit_rate"}
        assert list(body) == ["results", "latency_ms", "cache"]
