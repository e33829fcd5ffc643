"""Tests for the REST serving application."""

from __future__ import annotations

import calendar
import json
import re
import urllib.error
import urllib.request
from email.utils import formatdate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.serving.app import ServingCluster
from repro.serving.http import (
    BadRequest,
    SerenadeHTTPServer,
    SerenadeService,
    imf_fixdate,
    parse_batch_payload,
    parse_recommend_payload,
)
from repro.serving.variants import ServingVariant


@pytest.fixture(scope="module")
def cluster(toy_index):
    return ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)


@pytest.fixture(scope="module")
def server(cluster):
    with SerenadeHTTPServer(cluster, port=0) as running:
        yield running


def post_json(server, path, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.load(response)


def get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=5
    ) as response:
        return response.status, response.read().decode("utf-8")


def utc_second(*fields: int) -> int:
    return calendar.timegm(fields + (0,) * (6 - len(fields)))


class TestDateLine:
    """The ``Date`` line is written without ``email.utils``, and must
    read exactly as ``formatdate(t, usegmt=True)`` did."""

    @given(seconds=st.integers(0, utc_second(9999, 12, 31, 23, 59, 59)))
    @example(seconds=0)
    @example(seconds=utc_second(1972, 2, 29))
    @example(seconds=utc_second(1999, 12, 31, 23, 59, 59))
    @example(seconds=utc_second(2000, 1, 1))
    @example(seconds=utc_second(2000, 2, 29, 23, 59, 59))
    @example(seconds=utc_second(2000, 3, 1))
    @example(seconds=2**31)
    @example(seconds=utc_second(2100, 2, 28, 23, 59, 59))
    @example(seconds=utc_second(2100, 3, 1))
    @example(seconds=utc_second(9999, 12, 31, 23, 59, 59))
    def test_equals_email_formatdate(self, seconds):
        assert imf_fixdate(seconds) == formatdate(seconds, usegmt=True)


class TestPayloadParsing:
    def test_valid_payload(self):
        request = parse_recommend_payload(
            {"session_id": "u", "item_id": 3, "variant": "serenade-recent"}
        )
        assert request.session_key == "u"
        assert request.item_id == 3
        assert request.variant is ServingVariant.RECENT
        assert request.how_many == 21

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"session_id": "", "item_id": 1},
            {"session_id": "u"},
            {"session_id": "u", "item_id": "one"},
            {"session_id": "u", "item_id": True},
            {"session_id": "u", "item_id": 1, "consent": "yes"},
            {"session_id": "u", "item_id": 1, "variant": "bogus"},
            {"session_id": "u", "item_id": 1, "count": 0},
            {"session_id": "u", "item_id": 1, "count": 1000},
            [1, 2, 3],
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(BadRequest):
            parse_recommend_payload(payload)


class TestBatchPayloadParsing:
    def test_valid_payload(self):
        sessions, count = parse_batch_payload(
            {"sessions": [[1, 2], [], [3]], "count": 5}
        )
        assert sessions == [[1, 2], [], [3]]
        assert count == 5

    def test_count_defaults_to_21(self):
        _, count = parse_batch_payload({"sessions": []})
        assert count == 21

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"sessions": "nope"},
            {"sessions": [1, 2]},
            {"sessions": [["a"]]},
            {"sessions": [[True]]},
            {"sessions": [[1]], "count": 0},
            {"sessions": [[1]], "count": 1000},
            [1, 2],
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(BadRequest):
            parse_batch_payload(payload)

    def test_oversized_batch_rejected(self):
        with pytest.raises(BadRequest, match="10000"):
            parse_batch_payload({"sessions": [[1]] * 10_001})


class TestEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["pods"] == ["pod-0", "pod-1"]

    def test_recommend_roundtrip(self, server):
        status, body = post_json(
            server, "/v1/recommend", {"session_id": "http-u1", "item_id": 1}
        )
        assert status == 200
        assert body["pod"] in {"pod-0", "pod-1"}
        assert body["latency_ms"] > 0
        for item in body["items"]:
            assert set(item) == {"item_id", "score"}

    def test_session_state_accumulates_over_http(self, server, cluster):
        for item in (1, 2):
            post_json(
                server, "/v1/recommend", {"session_id": "http-u2", "item_id": item}
            )
        owner = cluster.router.primary("http-u2")
        assert cluster.pods[owner].sessions.get_session("http-u2") == [1, 2]

    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/recommend",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_validation_error_is_400_with_message(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/recommend",
            data=json.dumps({"session_id": "u", "item_id": "x"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "item_id" in json.load(excinfo.value)["error"]

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}/nope", timeout=5
            )
        assert excinfo.value.code == 404

    def test_metrics_exposition(self, server):
        post_json(server, "/v1/recommend", {"session_id": "m-u", "item_id": 2})
        status, text = get(server, "/metrics")
        assert status == 200
        assert "serenade_requests_total" in text
        assert "serenade_request_latency_seconds_bucket" in text

    def test_recommend_batch_roundtrip(self, server, cluster):
        sessions = [[1, 2], [2], [1, 2]]
        status, body = post_json(
            server, "/v1/recommend_batch", {"sessions": sessions, "count": 5}
        )
        assert status == 200
        assert len(body["results"]) == 3
        assert body["results"][0] == body["results"][2]  # duplicate query
        assert body["latency_ms"] > 0
        assert set(body["cache"]) == {"hits", "hit_rate"}
        for ranked in body["results"]:
            for item in ranked:
                assert set(item) == {"item_id", "score"}

    def test_recommend_batch_matches_single_path(self, server, cluster):
        _, body = post_json(
            server, "/v1/recommend_batch", {"sessions": [[1, 2]], "count": 5}
        )
        engine = cluster.batch_engine()
        expected = engine.recommend([1, 2], how_many=5)
        assert body["results"][0] == [
            {"item_id": scored.item_id, "score": scored.score}
            for scored in expected
        ]

    def test_recommend_batch_repeat_hits_cache(self, server):
        sessions = [[2, 4], [4, 5]]
        post_json(server, "/v1/recommend_batch", {"sessions": sessions})
        _, body = post_json(
            server, "/v1/recommend_batch", {"sessions": sessions}
        )
        assert body["cache"]["hits"] >= 2

    def test_batch_call_moves_the_batch_latency_series(self, server):
        """One call through the front door, one observation on /metrics."""

        def sample(suffix):
            _, text = get(server, "/metrics")
            [value] = re.findall(
                rf"^serenade_batch_latency_seconds_{suffix} (\S+)$",
                text,
                flags=re.MULTILINE,
            )
            return float(value)

        count, total = sample("count"), sample("sum")
        status, body = post_json(
            server, "/v1/recommend_batch", {"sessions": [[1, 2], [2, 3]]}
        )
        assert status == 200
        assert sample("count") == count + 1
        # _sum is rendered with six significant digits.
        assert sample("sum") - total == pytest.approx(
            body["latency_ms"] / 1e3, rel=1e-3
        )

    def test_recommend_batch_bad_payload_is_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/recommend_batch",
            data=json.dumps({"sessions": "nope"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_healthz_reports_cache(self, server):
        status, body = get(server, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert "hit_rate" in health["result_cache"]


class TestLifecycleMetrics:
    """Index-lifecycle observability on /metrics and /healthz (ISSUE PR 3)."""

    @pytest.fixture()
    def versioned_cluster(self, toy_index):
        return ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10, index_version="v000007"
        )

    def test_metrics_export_index_version_per_pod(self, versioned_cluster):
        service = SerenadeService(versioned_cluster)
        lines = service.render_metrics().splitlines()
        assert 'serenade_index_version{pod="pod-0"} 7' in lines
        assert 'serenade_index_version{pod="pod-1"} 7' in lines
        assert "serenade_rollout_state 0" in lines
        assert "serenade_index_rollbacks_total 0" in lines

    def test_metrics_track_rollout_state_and_rollbacks(self, versioned_cluster):
        service = SerenadeService(versioned_cluster)
        versioned_cluster.rollout_state = "rolled_back"
        versioned_cluster.rollback_count = 2
        lines = service.render_metrics().splitlines()
        assert "serenade_rollout_state 4" in lines
        assert "serenade_index_rollbacks_total 2" in lines
        # counter sync is delta-based: a re-scrape must not double count
        lines = service.render_metrics().splitlines()
        assert "serenade_index_rollbacks_total 2" in lines

    def test_metrics_follow_pod_version_skew(self, versioned_cluster, toy_clicks):
        from repro.core.index import SessionIndex
        from repro.core.vmis import VMISKNN

        service = SerenadeService(versioned_cluster)
        fresh = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=3)
        versioned_cluster.swap_pod_recommender(
            "pod-1", lambda: VMISKNN(fresh, m=3, k=5), version="v000008"
        )
        lines = service.render_metrics().splitlines()
        assert 'serenade_index_version{pod="pod-0"} 7' in lines
        assert 'serenade_index_version{pod="pod-1"} 8' in lines

    def test_healthz_reports_rollout_info(self, versioned_cluster):
        service = SerenadeService(versioned_cluster)
        health = service.health()
        assert health["index"]["committed_version"] == "v000007"
        assert health["index"]["consistent"] is True
        assert health["index"]["rollout_state"] == "idle"
        assert health["index"]["rollback_count"] == 0


class TestServiceDirect:
    def test_recommend_counts_metrics(self, toy_index):
        service = SerenadeService(
            ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        )
        service.recommend({"session_id": "d", "item_id": 1})
        assert service.metrics.counter("serenade_requests_total").value(
            status="ok"
        ) == 1.0

    def test_batch_counters_move_with_one_batch(self, toy_index):
        service = SerenadeService(
            ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        )

        def series(name):
            samples = re.findall(
                rf"^{name}(?:{{[^}}]*}})? (\S+)$",
                service.render_metrics(),
                flags=re.MULTILINE,
            )
            assert samples, f"{name} is not exported"
            return sum(float(sample) for sample in samples)

        assert series("serenade_batch_requests_total") == 0.0
        assert series("serenade_batch_sessions_total") == 0.0
        answer = json.loads(
            service.recommend_batch({"sessions": [[1, 2], [2], [4, 5]], "count": 5})
        )
        assert len(answer["results"]) == 3
        assert series("serenade_batch_requests_total") == 1.0
        assert series("serenade_batch_sessions_total") == 3.0
        assert 'serenade_batch_requests_total{status="ok"} 1' in (
            service.render_metrics()
        )

    def test_double_start_rejected(self, toy_index):
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        server = SerenadeHTTPServer(cluster, port=0)
        server.start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()


class TestGuardrailedEndpoints:
    @pytest.fixture()
    def guarded_server(self, toy_index):
        from repro.serving.resilience import ResiliencePolicy

        cluster = ServingCluster.with_index(
            toy_index, num_pods=2, m=10, k=10,
            resilience=ResiliencePolicy(queue_capacity=64),
        )
        with SerenadeHTTPServer(cluster, port=0) as running:
            yield running

    def test_response_reports_stage(self, guarded_server):
        status, body = post_json(
            guarded_server, "/v1/recommend", {"session_id": "g1", "item_id": 1}
        )
        assert status == 200
        assert body["degraded"] is False
        assert body["stage"] == "primary"

    def test_metrics_expose_guardrail_series(self, guarded_server):
        post_json(
            guarded_server, "/v1/recommend", {"session_id": "g2", "item_id": 2}
        )
        status, text = get(guarded_server, "/metrics")
        assert status == 200
        assert "serenade_degraded_requests_total" in text
        assert "serenade_shed_requests_total" in text
        assert "serenade_recovered_sessions_total" in text
        assert "serenade_corrupt_sessions_total" in text
        # Healthy breakers scrape as 0 (closed) per pod and stage.
        assert 'serenade_breaker_state{pod="pod-0",stage="primary"} 0' in text

    def test_healthz_reports_resilience(self, guarded_server):
        status, text = get(guarded_server, "/healthz")
        assert status == 200
        body = json.loads(text)
        assert body["resilience"]["enabled"] is True
        assert body["resilience"]["shed_requests"] == 0

    def test_shed_request_is_429_with_retry_after(self, guarded_server):
        from repro.serving.resilience import Overloaded

        service = guarded_server.service

        def always_overloaded(request):
            raise Overloaded()

        original = service.cluster.handle
        service.cluster.handle = always_overloaded
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post_json(
                    guarded_server,
                    "/v1/recommend",
                    {"session_id": "g3", "item_id": 1},
                )
            error = excinfo.value
            assert error.code == 429
            assert error.headers["Retry-After"] is not None
            assert json.load(error)["error"] == "overloaded"
        finally:
            service.cluster.handle = original
        status, text = get(guarded_server, "/metrics")
        assert 'serenade_requests_total{status="shed"} 1' in text


class TestStreamingObservability:
    @pytest.fixture()
    def streaming_server(self, toy_index, toy_clicks):
        from repro.index.maintenance import IncrementalIndexer
        from repro.streaming import (
            ClickProducer,
            PartitionedLog,
            StreamingIndexer,
            StreamingPolicy,
        )

        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        log = PartitionedLog(num_partitions=2)
        ClickProducer(log, "http-test").publish_all(
            sorted(toy_clicks, key=lambda c: (c.timestamp, c.session_id))
        )
        pipeline = StreamingIndexer(
            log,
            IncrementalIndexer(max_sessions_per_item=10),
            policy=StreamingPolicy(session_gap_seconds=3600.0),
        )
        cluster.attach_streaming(pipeline)
        with SerenadeHTTPServer(cluster, port=0) as running:
            yield running, pipeline, log

    @staticmethod
    def gauge_value(text, name):
        match = re.search(rf"^{name} (\S+)$", text, flags=re.MULTILINE)
        assert match, f"{name} not in exposition"
        return float(match.group(1))

    def test_metrics_expose_streaming_gauges(self, streaming_server):
        server, pipeline, log = streaming_server
        status, text = get(server, "/metrics")
        assert status == 200
        # Nothing consumed yet: the whole log is lag, the watermark has
        # not opened, and staleness spans the log's full event-time range.
        assert self.gauge_value(text, "serenade_streaming_lag_events") == float(
            log.total_records()
        )
        assert (
            self.gauge_value(text, "serenade_streaming_watermark_seconds")
            == 0.0
        )
        assert self.gauge_value(
            text, "serenade_index_staleness_seconds"
        ) == float(log.max_event_time())

    def test_metrics_track_the_consumer_draining(self, streaming_server):
        server, pipeline, log = streaming_server
        pipeline.run_until_caught_up()
        pipeline.flush()
        status, text = get(server, "/metrics")
        assert status == 200
        assert self.gauge_value(text, "serenade_streaming_lag_events") == 0.0
        assert (
            self.gauge_value(text, "serenade_index_staleness_seconds") == 0.0
        )
        # The watermark followed the newest event time in the log,
        # trailing it by the allowed lateness window.
        assert self.gauge_value(
            text, "serenade_streaming_watermark_seconds"
        ) == float(log.max_event_time()) - pipeline.policy.allowed_lateness_seconds

    def test_healthz_reports_consumer_group_health(self, streaming_server):
        server, pipeline, log = streaming_server
        pipeline.run_until_caught_up()
        pipeline.flush()
        status, text = get(server, "/healthz")
        assert status == 200
        streaming = json.loads(text)["streaming"]
        assert streaming["enabled"] is True
        assert streaming["crashed"] is False
        assert streaming["lag_events"] == 0
        assert streaming["within_staleness_bound"] is True
        assert streaming["group"]["members"] == [pipeline.member_id]
        # The snapshot is exactly the pipeline's own health dict (as it
        # looks after the JSON round trip, which stringifies int keys).
        expected = json.loads(json.dumps({"enabled": True, **pipeline.health()}))
        assert streaming == expected

    def test_healthz_without_streaming_reports_disabled(self, server):
        status, text = get(server, "/healthz")
        assert status == 200
        assert json.loads(text)["streaming"] == {"enabled": False}
