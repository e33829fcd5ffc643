"""Concurrency tests for the threaded REST service."""

from __future__ import annotations

import json
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeHTTPServer


@pytest.fixture(scope="module")
def server(toy_index):
    cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
    with SerenadeHTTPServer(cluster, port=0) as running:
        yield running


def recommend(server, session_id, item_id):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/recommend",
        data=json.dumps({"session_id": session_id, "item_id": item_id}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.load(response)


class TestConcurrentRequests:
    def test_parallel_distinct_sessions_all_succeed(self, server):
        def call(i):
            return recommend(server, f"conc-user-{i}", 1 + (i % 4))

        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(call, range(64)))
        assert all(status == 200 for status, _ in results)

    def test_parallel_updates_to_one_session_all_recorded(self, server):
        """Concurrent clicks of one session must all land in its state
        (the KV store is locked; ordering may vary, cardinality may not)."""
        session_key = "conc-hot-session"

        def call(i):
            return recommend(server, session_key, i % 5)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(call, range(32)))

        cluster = server.service.cluster
        owner = cluster.router.primary(session_key)
        stored = cluster.pods[owner].sessions.get_session(session_key)
        assert stored is not None
        assert len(stored) == 32

    def test_metrics_consistent_under_parallel_load(self, server):
        before = server.service.metrics.counter(
            "serenade_requests_total"
        ).value(status="ok")

        def call(i):
            return recommend(server, f"metrics-user-{i}", 2)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(call, range(40)))
        after = server.service.metrics.counter(
            "serenade_requests_total"
        ).value(status="ok")
        assert after - before == 40
