"""The front door's own HTTP/1.x reader, held against the stdlib's.

``repro.serving.http`` reads request lines and headers itself. The oracle
is what it replaced: a small ``BaseHTTPRequestHandler`` with the same
routes and body rules, defined below. Raw byte requests go to both; the
status code and whether the connection stays open must agree, except for
the cases in ``DELIBERATE`` (framing that two parsers would read
differently, and refusals the stdlib does not answer in HTTP), each
listed with both outcomes.

Every wait is bounded, as in ``test_http_keepalive.py``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.serving.http as http_module
from repro.serving.app import ServingCluster
from repro.serving.http import MAX_BODY_BYTES, SerenadeHTTPServer

ROUTES = ("/v1/recommend", "/v1/recommend_batch")


class _Reference(BaseHTTPRequestHandler):
    """The parent commit's handler, reduced to status and connection."""

    protocol_version = "HTTP/1.1"
    timeout = 5

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    def _answer(self, status: int, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Length", "2")
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"{}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib API)
        unread = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        self._answer(200 if self.path == "/healthz" else 404, close=unread)

    def do_POST(self) -> None:  # noqa: N802 (stdlib API)
        header = (self.headers.get("Content-Length") or "").strip()
        if not header:
            return self._answer(411, close=True)
        if not (header.isascii() and header.isdigit()):
            return self._answer(400, close=True)
        if len(header) > 18 or int(header) > MAX_BODY_BYTES:
            return self._answer(413, close=True)
        if len(self.rfile.read(int(header))) < int(header):
            return self._answer(400, close=True)
        return self._answer(200 if self.path in ROUTES else 404)


@pytest.fixture(scope="module")
def server(toy_index):
    cluster = ServingCluster.with_index(toy_index, num_pods=2, m=10, k=10)
    with SerenadeHTTPServer(cluster, port=0) as running:
        yield running


@pytest.fixture(scope="module")
def reference():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Reference)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def port_of(target) -> int:
    return target.port if isinstance(target, SerenadeHTTPServer) else target.server_port


def connect(target) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port_of(target)), timeout=5)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def send(sock: socket.socket, data: bytes) -> None:
    """A refusal may close the connection while the request is still
    being sent; the answer is read all the same."""
    try:
        sock.sendall(data)
    except (BrokenPipeError, ConnectionResetError):
        pass


def read_response(reader) -> tuple[int | None, dict[str, str], bytes]:
    """One response off ``reader`` (one ``makefile("rb")`` per connection,
    so pipelined answers are not lost in a discarded buffer). The status
    is ``None`` when what came back does not start with a status line.
    Interim ``100 Continue`` responses are skipped."""
    while True:
        line = reader.readline()
        match = re.fullmatch(rb"HTTP/1\.[01] (\d{3}) [^\r\n]*\r\n", line)
        if match is None:
            return None, {}, line + reader.read()
        headers = {}
        while (line := reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.lower()] = value.strip()
        status = int(match.group(1))
        if status != 100:
            return status, headers, reader.read(int(headers["content-length"]))


def at_eof(reader) -> bool:
    """The server has closed: end-of-file, or a reset where it closed
    over bytes of the request it never read."""
    try:
        return reader.read() == b""
    except ConnectionResetError:
        return True


def stays_open(sock: socket.socket, reader) -> bool:
    """After an answer: does the server serve another request here?"""
    try:
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        return read_response(reader)[0] == 200
    except (BrokenPipeError, ConnectionResetError):
        return False


def outcome(target, request: bytes) -> tuple[int | None, bool]:
    sock = connect(target)
    reader = sock.makefile("rb")
    try:
        send(sock, request)
        status = read_response(reader)[0]
        return status, status is not None and stays_open(sock, reader)
    finally:
        reader.close()
        sock.close()


BODY = json.dumps({"session_id": "conf", "item_id": 1}).encode()


def post(
    headers: bytes = b"",
    length: bytes | None = None,
    path: bytes = b"/v1/recommend",
    version: bytes = b"HTTP/1.1",
    eol: bytes = b"\r\n",
    body: bytes = BODY,
) -> bytes:
    if length is None:
        length = b"Content-Length: %d\r\n" % len(body)
    head = b"POST %s %s\r\nHost: x\r\n" % (path, version) + length + headers + b"\r\n"
    return head.replace(b"\r\n", eol) + body


def get(headers: bytes = b"", path: bytes = b"/healthz", version: bytes = b"HTTP/1.1") -> bytes:
    return b"GET %s %s\r\nHost: x\r\n" % (path, version) + headers + b"\r\n"


def padded_line(prefix: bytes, total: int, suffix: bytes = b"\r\n") -> bytes:
    """``prefix`` + filler + ``suffix``, ``total`` bytes long."""
    return prefix + b"a" * (total - len(prefix) - len(suffix)) + suffix


def many_headers(count: int) -> bytes:
    """``count`` header lines in all, with the ``Host`` line ``get`` adds."""
    return b"".join(b"X-Filler-%d: %d\r\n" % (n, n) for n in range(count - 1))


LINE_CAP = http_module.MAX_LINE_BYTES

# name -> (request, (status, stays open)); both servers must produce it.
AGREED = {
    "plain post": (post(), (200, True)),
    "plain get": (get(), (200, True)),
    "header name in lower case": (
        post(length=b"content-length: %d\r\n" % len(BODY)), (200, True)),
    "header name in upper case": (
        post(length=b"CONTENT-LENGTH: %d\r\n" % len(BODY)), (200, True)),
    "no space after the colon": (
        post(length=b"Content-Length:%d\r\n" % len(BODY)), (200, True)),
    "spaces and a tab around the value": (
        post(length=b"Content-Length: \t %d \t \r\n" % len(BODY)), (200, True)),
    "bare LF line ends": (post(eol=b"\n"), (200, True)),
    "HTTP/1.0 closes": (post(version=b"HTTP/1.0"), (200, False)),
    "HTTP/1.0 with Connection: keep-alive": (
        post(b"Connection: keep-alive\r\n", version=b"HTTP/1.0"), (200, True)),
    "HTTP/1.1 with Connection: close": (post(b"Connection: close\r\n"), (200, False)),
    "Connection: Close in mixed case": (get(b"Connection: Close\r\n"), (200, False)),
    "POST with Content-Length: 0": (
        post(path=b"/v1/nope", body=b""), (404, True)),
    "GET with Content-Length: 0": (get(b"Content-Length: 0\r\n"), (200, True)),
    "identical duplicate Content-Length": (
        post(b"Content-Length: %d\r\n" % len(BODY)), (200, True)),
    "Content-Length: +5": (post(length=b"Content-Length: +5\r\n"), (400, False)),
    "Content-Length of 19 digits": (
        post(length=b"Content-Length: 1000000000000000000\r\n"), (413, False)),
    "Content-Length missing": (post(length=b""), (411, False)),
    "chunked without Content-Length": (
        post(length=b"Transfer-Encoding: chunked\r\n", body=b"0\r\n\r\n"), (411, False)),
    "GET with a body": (get(b"Content-Length: 4\r\n") + b"GET ", (200, False)),
    "unknown route with a body": (post(path=b"/v1/nope"), (404, True)),
    "unknown GET route": (get(path=b"/nope"), (404, True)),
    "Expect: 100-continue": (post(b"Expect: 100-continue\r\n"), (200, True)),
    "unsupported method": (b"PUT /healthz HTTP/1.1\r\nHost: x\r\n\r\n", (501, False)),
    "request line at the cap": (
        padded_line(b"GET /", LINE_CAP, b" HTTP/1.1\r\n") + b"Host: x\r\n\r\n",
        (404, True)),
    "request line one past the cap": (
        padded_line(b"GET /", LINE_CAP + 1, b" HTTP/1.1\r\n") + b"Host: x\r\n\r\n",
        (414, False)),
    "header line at the cap": (
        get(padded_line(b"X-Long: ", LINE_CAP)), (200, True)),
    "header line one past the cap": (
        get(padded_line(b"X-Long: ", LINE_CAP + 1)), (431, False)),
    # The stdlib counts the blank line that ends the headers as the 100th.
    "99 headers": (get(many_headers(99)), (200, True)),
    "100 headers": (get(many_headers(100)), (431, False)),
    "101 headers": (get(many_headers(101)), (431, False)),
}

SMUGGLED = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"

# name -> (request, the stdlib's outcome, this server's outcome). A status
# of None: the stdlib took the request for HTTP/0.9 and sent a bare body.
DELIBERATE = {
    # Framing that two parsers would read differently.
    "Transfer-Encoding next to Content-Length": (
        post(b"Transfer-Encoding: chunked\r\n"), (200, True), (411, False)),
    "Transfer-Encoding on a GET": (
        get(b"Transfer-Encoding: chunked\r\n"), (200, False), (411, False)),
    "differing duplicate Content-Length": (
        post(b"Content-Length: %d\r\n" % (len(BODY) + 1)), (200, True), (400, False)),
    "space before the colon": (
        post(length=b"Content-Length : %d\r\n" % len(BODY)), (411, False), (400, False)),
    "folded header line": (
        post(b"X-Folded: a\r\n  b\r\n"), (200, True), (400, False)),
    "header line without a colon": (
        get(b"no colon here\r\n"), (200, True), (400, False)),
    # Refusals that are not HTTP.
    "request line of two words": (b"GET /healthz\r\n\r\n", (None, False), (400, False)),
    "request line of four words": (
        b"GET /healthz HTTP/1.1 extra\r\nHost: x\r\n\r\n", (None, False), (400, False)),
    "HTTP/2.0": (b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n", (None, False), (505, False)),
    "malformed version": (
        b"GET /healthz HTTP/one\r\nHost: x\r\n\r\n", (None, False), (400, False)),
    "target that is not a path": (
        b"GET healthz HTTP/1.1\r\nHost: x\r\n\r\n", (404, True), (400, False)),
    "target outside ASCII": (
        b"GET /caf\xc3\xa9 HTTP/1.1\r\nHost: x\r\n\r\n", (404, True), (400, False)),
}


class TestAgainstTheStdlib:
    @pytest.mark.parametrize("name", AGREED)
    def test_same_status_and_same_connection_fate(self, server, reference, name):
        request, expected = AGREED[name]
        assert outcome(reference, request) == expected
        assert outcome(server, request) == expected

    @pytest.mark.parametrize("name", DELIBERATE)
    def test_deliberate_differences_are_exactly_these(self, server, reference, name):
        request, stdlib, ours = DELIBERATE[name]
        assert outcome(reference, request) == stdlib
        assert outcome(server, request) == ours


class TestFramingTwoParsersWouldReadDifferently:
    @pytest.mark.parametrize(
        ("framing", "status"),
        [
            pytest.param(
                b"Content-Length: %d\r\nTransfer-Encoding: chunked\r\n" % len(BODY),
                411,
                id="both-framings",
            ),
            pytest.param(
                b"Content-Length: %d\r\nContent-Length: %d\r\n"
                % (len(BODY), len(BODY) + len(SMUGGLED)),
                400,
                id="two-lengths",
            ),
        ],
    )
    def test_a_smuggled_request_is_never_answered(self, server, framing, status):
        """One segment that is one request by one framing and two by the
        other gets one answer, a refusal, and no second one."""
        sock = connect(server)
        reader = sock.makefile("rb")
        send(sock, post(length=framing) + SMUGGLED)
        got, headers, body = read_response(reader)
        assert got == status
        assert headers["connection"] == "close"
        assert "error" in json.loads(body)
        assert at_eof(reader)  # closed, and /smuggled was not routed
        reader.close()
        sock.close()


def bad_requests(server) -> float:
    sock = connect(server)
    reader = sock.makefile("rb")
    sock.sendall(get(b"Connection: close\r\n", path=b"/metrics"))
    text = read_response(reader)[2].decode("utf-8")
    reader.close()
    sock.close()
    match = re.search(
        r'^serenade_requests_total\{status="bad_request"\} (\S+)$', text, re.MULTILINE
    )
    return float(match.group(1)) if match else 0.0


class TestRefusals:
    @pytest.mark.parametrize(
        ("request_bytes", "status"),
        [
            pytest.param(b"GET /healthz\r\n\r\n", 400, id="bad-line"),
            pytest.param(get(b"no colon here\r\n"), 400, id="bad-header"),
            pytest.param(b"GET healthz HTTP/1.1\r\n\r\n", 400, id="bad-target"),
            pytest.param(
                padded_line(b"GET /", LINE_CAP + 1, b" HTTP/1.1\r\n") + b"\r\n",
                414,
                id="long-request-line",
            ),
            pytest.param(get(padded_line(b"X-Long: ", LINE_CAP + 1)), 431, id="long-header"),
            pytest.param(get(many_headers(100)), 431, id="100-headers"),
            pytest.param(b"DELETE /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 501, id="method"),
            pytest.param(b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n", 505, id="version"),
        ],
    )
    def test_a_refusal_is_http_json_closed_and_counted(self, server, request_bytes, status):
        before = bad_requests(server)
        sock = connect(server)
        reader = sock.makefile("rb")
        send(sock, request_bytes)
        got, headers, body = read_response(reader)
        assert got == status  # a status line, so not the stdlib's HTTP/0.9 body
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert isinstance(json.loads(body)["error"], str)
        assert at_eof(reader)
        reader.close()
        sock.close()
        assert bad_requests(server) == before + 1


def sock_answer(server, pieces: list[bytes]) -> tuple[int | None, list]:
    sock = connect(server)
    reader = sock.makefile("rb")
    for piece in pieces:
        sock.sendall(piece)
    status, _, body = read_response(reader)
    reader.close()
    sock.close()
    return status, json.loads(body)["items"]


class TestOneConnectionManyRequests:
    def test_three_pipelined_requests_get_three_answers_in_order(self, server):
        sock = connect(server)
        reader = sock.makefile("rb")
        sock.sendall(get() + post() + get(path=b"/nope"))
        first, second, third = (read_response(reader) for _ in range(3))
        assert first[0] == 200 and json.loads(first[2])["status"] == "ok"
        assert second[0] == 200 and "items" in json.loads(second[2])
        assert third[0] == 404
        assert stays_open(sock, reader)
        reader.close()
        sock.close()

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cuts=st.sets(st.integers(min_value=1, max_value=len(post()) - 1), max_size=12))
    @example(cuts=set(range(1, len(post()))))  # byte by byte
    def test_a_request_split_anywhere_gets_the_same_answer(self, server, cuts):
        request = post()
        whole = sock_answer(server, [request])
        edges = [0, *sorted(cuts), len(request)]
        pieces = [request[a:b] for a, b in zip(edges, edges[1:])]
        assert sock_answer(server, pieces) == whole


class TestResponseBytes:
    def test_the_header_set_and_a_date_from_the_injected_clock(self, toy_index):
        now = [784111777.9]
        cluster = ServingCluster.with_index(toy_index, num_pods=1, m=10, k=10)
        with SerenadeHTTPServer(cluster, port=0, wall_clock=lambda: now[0]) as running:
            sock = connect(running)
            reader = sock.makefile("rb")
            sock.sendall(post())
            status, headers, body = read_response(reader)
            assert status == 200
            assert list(headers) == ["server", "date", "content-type", "content-length"]
            assert headers["server"] == "Serenade/1.0"
            assert headers["date"] == "Sun, 06 Nov 1994 08:49:37 GMT"
            now[0] += 1.5
            sock.sendall(get())
            assert read_response(reader)[1]["date"] == "Sun, 06 Nov 1994 08:49:39 GMT"
            reader.close()
            sock.close()
