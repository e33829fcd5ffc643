"""The front door's connection model, over real sockets.

Keep-alive, single-segment responses, read/idle timeouts, the bound on
handler threads, request framing on a reused socket, and graceful stop.
Every wait is bounded, so a reintroduced pinned thread fails as a
timeout (``--timeout=60`` in CI) and not as a hang.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import statistics
import struct
import threading
import time
from pathlib import Path

import pytest

import repro.serving.http as http_module
from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeHTTPServer
from repro.serving.resilience import Overloaded, ResiliencePolicy

SHORT_TIMEOUT_S = 0.3


@pytest.fixture()
def server(toy_index):
    cluster = ServingCluster.with_index(
        toy_index, num_pods=2, m=10, k=10, resilience=ResiliencePolicy()
    )
    with SerenadeHTTPServer(cluster, port=0) as running:
        yield running


@pytest.fixture()
def short_timeout(monkeypatch):
    """Connections opened from here on time out after 0.3 s, not 5 s."""
    monkeypatch.setattr(http_module._Handler, "timeout", SHORT_TIMEOUT_S)


def connect(server) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)


def recommend(conn, session_id="ka", item_id=1, path="/v1/recommend"):
    body = json.dumps({"session_id": session_id, "item_id": item_id})
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response, json.loads(response.read())


def metric(conn, name: str) -> float:
    """One unlabelled or fully named series, scraped over ``conn``."""
    conn.request("GET", "/metrics")
    text = conn.getresponse().read().decode("utf-8")
    match = re.search(rf"^{re.escape(name)} (\S+)$", text, re.MULTILINE)
    assert match, f"{name} not in /metrics"
    return float(match.group(1))


def raw_socket(server) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_response(sock) -> tuple[int, http.client.HTTPMessage, bytes]:
    response = http.client.HTTPResponse(sock)
    response.begin()
    return response.status, response.headers, response.read()


def closed_by_server(sock) -> bool:
    """True once the server has closed its end (EOF or reset)."""
    try:
        return sock.recv(1) == b""
    except (ConnectionResetError, BrokenPipeError):
        return True


def wait_for(condition, timeout: float = 3.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.01)
    return condition()


def thread_baseline() -> int:
    """The thread count once it has stopped moving (a handler thread of an
    earlier test may still be on its way out)."""
    count = threading.active_count()
    stable = 0
    while stable < 3:
        time.sleep(0.01)
        now = threading.active_count()
        stable = stable + 1 if now == count else 0
        count = now
    return count


def rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError("no VmRSS in /proc/self/status")


class TestKeepAlive:
    def test_200_calls_share_one_connection_and_one_segment(self, server):
        conn = connect(server)
        round_trips = []
        for n in range(200):
            started = time.perf_counter()
            response, body = recommend(conn, session_id=f"ka-{n % 7}", item_id=1 + n % 5)
            round_trips.append(time.perf_counter() - started)
            assert response.status == 200
            assert response.version == 11
            assert "items" in body
            if n == 0:
                first_socket = conn.sock
        assert conn.sock is first_socket  # never reconnected
        assert metric(conn, "serenade_http_connections_total") == 1
        # The Nagle guard: headers and body written separately cost one
        # delayed ACK (about 40 ms) on every request after the first.
        assert statistics.median(round_trips) < 0.010
        conn.close()

    def test_http10_client_is_answered_and_closed(self, server):
        sock = raw_socket(server)
        sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
        status, headers, body = read_response(sock)
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        assert closed_by_server(sock)
        sock.close()

    def test_requests_per_connection_moves_from_n_to_one(self, server):
        n = 12
        scraper = connect(server)
        for i in range(n):
            assert recommend(scraper, session_id=f"one-{i}")[0].status == 200
        ok, accepted = 'serenade_requests_total{status="ok"}', "serenade_http_connections_total"
        requests_1, connections_1 = metric(scraper, ok), metric(scraper, accepted)
        assert requests_1 / connections_1 == n
        for i in range(n):
            conn = connect(server)
            assert recommend(conn, session_id=f"many-{i}")[0].status == 200
            conn.close()
        requests_2, connections_2 = metric(scraper, ok), metric(scraper, accepted)
        assert (requests_2 - requests_1) / (connections_2 - connections_1) == 1
        # The gauge follows closes as well as accepts: only the scraper is left.
        assert wait_for(lambda: metric(scraper, "serenade_http_open_connections") == 1)
        scraper.close()

    def test_shed_request_keeps_the_connection(self, server):
        def always_overloaded(request):
            raise Overloaded()

        server.service.cluster.handle = always_overloaded
        conn = connect(server)
        response, body = recommend(conn)
        assert response.status == 429
        assert int(response.headers["Content-Length"]) > 0
        assert response.headers["Retry-After"] is not None
        assert body["error"] == "overloaded"
        del server.service.cluster.handle
        first_socket = conn.sock
        assert first_socket is not None  # a 429 does not cost the connection
        assert recommend(conn)[0].status == 200
        assert conn.sock is first_socket
        conn.close()

    @pytest.mark.parametrize(
        "path, method", [("/v1/recommend", "handle"), ("/v1/recommend_batch", "handle_batch")]
    )
    def test_a_fault_in_a_route_is_answered_500_and_counted(
        self, server, capsys, caplog, path, method
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("index replica went missing")

        setattr(server.service.cluster, method, broken)
        conn = connect(server)
        payload = {"session_id": "boom", "item_id": 1, "sessions": [[1]]}
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        body = json.loads(response.read())
        delattr(server.service.cluster, method)
        assert response.status == 500
        assert response.headers["Content-Type"] == "application/json"
        assert response.headers["Connection"] == "close"
        assert body == {"error": "internal server error"}
        conn.close()
        scraper = connect(server)
        assert metric(scraper, 'serenade_requests_total{status="error"}') == 1.0
        assert recommend(scraper)[0].status == 200  # and the server serves on
        scraper.close()
        # The operator still gets the traceback, once: logged here, and not
        # printed again by socketserver on the way out.
        [record] = [r for r in caplog.records if r.name == "repro.serving.http"]
        assert record.exc_info is not None and record.exc_info[0] is RuntimeError
        assert path in record.getMessage()
        assert capsys.readouterr().err == ""


class TestTimeouts:
    def test_stalled_clients_lose_their_threads(self, server, short_timeout, capsys):
        baseline = thread_baseline()
        half_line = raw_socket(server)
        half_line.sendall(b"POST /v1/recomm")
        half_header = raw_socket(server)
        half_header.sendall(b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nContent-")
        half_body = raw_socket(server)
        half_body.sendall(
            b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\n"
            b'Content-Length: 100\r\n\r\n{"session_id":'
        )
        assert wait_for(lambda: threading.active_count() == baseline + 3)
        # A well-behaved client is served throughout.
        good = connect(server)
        deadline = time.monotonic() + 2 * SHORT_TIMEOUT_S
        while time.monotonic() < deadline:
            assert recommend(good)[0].status == 200
        stalled = [half_line, half_header, half_body]
        assert all(closed_by_server(sock) for sock in stalled)
        good.close()
        assert wait_for(lambda: threading.active_count() == baseline)
        for sock in stalled:
            sock.close()
        assert capsys.readouterr().err == ""  # a timeout is not a server fault

    def test_idle_connection_is_closed(self, server, short_timeout):
        baseline = thread_baseline()
        sock = raw_socket(server)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(sock)[0] == 200
        assert closed_by_server(sock)  # after the idle timeout, not before
        assert wait_for(lambda: threading.active_count() == baseline)
        sock.close()

    def test_connections_are_bounded(self, server, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_CONNECTIONS", 3)
        baseline = thread_baseline()
        held = [connect(server) for _ in range(3)]
        for conn in held:
            assert recommend(conn)[0].status == 200
        extra = raw_socket(server)
        assert closed_by_server(extra)  # refused unanswered, no thread spent
        assert wait_for(lambda: threading.active_count() == baseline + 3)
        held.pop().close()
        assert wait_for(lambda: threading.active_count() == baseline + 2)
        late = connect(server)
        assert recommend(late)[0].status == 200
        for conn in [late, *held]:
            conn.close()
        extra.close()

    def test_300_short_connections_leave_threads_and_memory_flat(self, server):
        def one_connection(n: int) -> None:
            conn = connect(server)
            assert recommend(conn, session_id=f"short-{n % 11}")[0].status == 200
            conn.close()

        for n in range(50):
            one_connection(n)
        threads_before, rss_before = thread_baseline(), rss_kb()
        for n in range(300):
            one_connection(n)
        assert wait_for(lambda: threading.active_count() <= threads_before)
        assert rss_kb() - rss_before < 4096


class TestFraming:
    """Bugs that only matter once a socket carries a second request."""

    def test_unknown_route_with_a_body_does_not_poison_the_socket(self, server):
        conn = connect(server)
        response, body = recommend(conn, path="/v1/nope")
        assert response.status == 404
        assert "no route" in body["error"]
        first_socket = conn.sock
        assert first_socket is not None
        response, body = recommend(conn)
        assert response.status == 200
        assert "items" in body
        assert conn.sock is first_socket
        conn.close()

    @pytest.mark.parametrize(
        ("length_header", "status"),
        [
            pytest.param(b"Content-Length: twelve\r\n", 400, id="non-numeric"),
            pytest.param(b"Content-Length: -1\r\n", 400, id="negative"),
            pytest.param(b"Content-Length: +5\r\n", 400, id="signed"),
            pytest.param(b"", 411, id="missing"),
            pytest.param(b"Transfer-Encoding: chunked\r\n", 411, id="chunked"),
            pytest.param(
                b"Content-Length: %d\r\n" % (http_module.MAX_BODY_BYTES + 1),
                413,
                id="over-the-cap",
            ),
            pytest.param(
                b"Content-Length: " + b"9" * 5000 + b"\r\n", 413, id="5000-digits"
            ),
        ],
    )
    def test_bad_framing_is_refused_and_the_connection_closed(
        self, server, length_header, status
    ):
        baseline = thread_baseline()
        sock = raw_socket(server)
        sock.sendall(
            b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\n" + length_header + b"\r\n"
        )
        got, headers, body = read_response(sock)
        assert got == status
        assert "error" in json.loads(body)
        assert headers["Connection"] == "close"
        assert closed_by_server(sock)
        assert wait_for(lambda: threading.active_count() == baseline)
        sock.close()

    def test_body_at_the_cap_is_read(self, server, monkeypatch):
        monkeypatch.setattr(http_module, "MAX_BODY_BYTES", 64)
        conn = connect(server)
        payload = json.dumps({"session_id": "cap", "item_id": 1}).ljust(64).encode()
        conn.request("POST", "/v1/recommend", body=payload)
        response = conn.getresponse()
        response.read()
        assert response.status == 200
        conn.request("POST", "/v1/recommend", body=payload + b" ")
        assert conn.getresponse().status == 413
        conn.close()

    def test_truncated_body_is_400(self, server):
        sock = raw_socket(server)
        sock.sendall(
            b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\n{}"
        )
        sock.shutdown(socket.SHUT_WR)
        status, headers, _ = read_response(sock)
        assert status == 400
        assert closed_by_server(sock)
        sock.close()

    def test_get_with_a_body_closes_the_connection(self, server):
        sock = raw_socket(server)
        sock.sendall(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nGET "
        )
        status, headers, _ = read_response(sock)
        assert status == 200
        assert headers["Connection"] == "close"
        assert closed_by_server(sock)
        sock.close()


    def test_a_client_gone_before_the_answer_leaves_no_traceback(self, server, capsys):
        baseline = thread_baseline()
        entered, gone = threading.Event(), threading.Event()
        original = server.service.cluster.handle

        def handle_after_the_client_left(request):
            entered.set()
            assert gone.wait(timeout=5)
            return original(request)

        server.service.cluster.handle = handle_after_the_client_left
        sock = raw_socket(server)
        body = json.dumps({"session_id": "gone", "item_id": 1}).encode()
        sock.sendall(
            b"POST /v1/recommend HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
            % len(body)
            + body
        )
        assert entered.wait(timeout=5)
        # Linger 0: close() sends a reset, so the server's write fails.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        gone.set()
        assert wait_for(lambda: threading.active_count() == baseline)
        del server.service.cluster.handle
        assert capsys.readouterr().err == ""
        after = connect(server)
        assert recommend(after)[0].status == 200  # and the server serves on
        after.close()


class TestGracefulStop:
    def test_stop_wakes_idle_kept_alive_connections(self, toy_index):
        """Both handlers sit in the request-line read, one on a fresh
        connection and one after an answer, with 5 s of timeout to go."""
        baseline = thread_baseline()
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        running = SerenadeHTTPServer(cluster, port=0).start()
        fresh, used = raw_socket(running), raw_socket(running)
        used.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(used)[0] == 200
        assert wait_for(lambda: threading.active_count() == baseline + 3)
        started = time.monotonic()
        running.stop()
        assert time.monotonic() - started < 1.0 < http_module.DRAIN_TIMEOUT_S
        assert closed_by_server(fresh)
        assert closed_by_server(used)
        assert wait_for(lambda: threading.active_count() == baseline)
        fresh.close()
        used.close()

    def test_stop_delivers_the_in_flight_response(self, toy_index):
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        running = SerenadeHTTPServer(cluster, port=0).start()
        entered = threading.Event()
        original = cluster.handle

        def slow_handle(request):
            entered.set()
            time.sleep(0.3)
            return original(request)

        cluster.handle = slow_handle
        idle = raw_socket(running)
        idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert read_response(idle)[0] == 200
        answers = []

        def client() -> None:
            conn = connect(running)
            response, body = recommend(conn)
            answers.append((response.status, response.headers["Connection"], body))
            conn.close()

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(timeout=5)
        started = time.monotonic()
        running.stop()
        assert time.monotonic() - started < http_module.DRAIN_TIMEOUT_S
        thread.join(timeout=5)
        assert not thread.is_alive()
        [(status, connection, body)] = answers
        assert status == 200
        assert connection == "close"
        assert "items" in body
        assert closed_by_server(idle)
        idle.close()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", running.port), timeout=1)

    def test_stop_does_not_wait_for_a_stuck_request_forever(self, toy_index, monkeypatch):
        monkeypatch.setattr(http_module, "DRAIN_TIMEOUT_S", 0.2)
        baseline = thread_baseline()
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        running = SerenadeHTTPServer(cluster, port=0).start()
        entered, release = threading.Event(), threading.Event()

        def stuck_handle(request):
            entered.set()
            release.wait(timeout=10)
            raise Overloaded()

        cluster.handle = stuck_handle
        conn = connect(running)
        body = json.dumps({"session_id": "stuck", "item_id": 1})
        conn.request("POST", "/v1/recommend", body=body)
        assert entered.wait(timeout=5)
        started = time.monotonic()
        running.stop()
        assert time.monotonic() - started < 2.0
        release.set()
        conn.close()
        assert wait_for(lambda: threading.active_count() <= baseline)
