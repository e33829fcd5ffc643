"""The REST serving application (§4.2's Actix web app, on the stdlib).

Serenade's online component is a web application: the shop frontend POSTs
a session update and receives 21 recommended items. This module exposes a
:class:`ServingCluster` over HTTP with the same contract:

* ``POST /v1/recommend`` — body
  ``{"session_id": "abc", "item_id": 42, "consent": true,
  "variant": "serenade-hist", "count": 21}``;
  responds ``{"items": [{"item_id": ..., "score": ...}, ...],
  "pod": "pod-0", "latency_ms": ..., "degraded": false,
  "stage": "primary"}``.
* ``POST /v1/recommend_batch`` — body
  ``{"sessions": [[42, 7], [13]], "count": 21}``; responds
  ``{"results": [[{"item_id": ..., "score": ...}, ...], ...],
  "latency_ms": ..., "cache": {"hits": ..., "hit_rate": ...}}``.
  Served by the cluster's batch engine, not the shard ring.
* ``GET /healthz`` — liveness probe (Kubernetes-style).
* ``GET /metrics`` — Prometheus text exposition of request counts and
  latency histograms, plus the SLA-guardrail series
  (``serenade_degraded_requests_total``, ``serenade_shed_requests_total``,
  ``serenade_breaker_state``, ``serenade_recovered_sessions_total``,
  ``serenade_corrupt_sessions_total``).

When the cluster runs with guardrails, a saturated admission queue turns
into HTTP 429 with a ``Retry-After`` header, and successful responses
carry ``"degraded"``/``"stage"`` reporting which fallback stage answered.

Connection model. The server speaks HTTP/1.1 with keep-alive: one thread
per *connection* (not per request), at most :data:`MAX_CONNECTIONS` of
them. A connection costs a TCP handshake, an accept and a thread start
once, and every later request on it only the read, the work and the
write. The underlying KV store and metrics registry are thread-safe, so
concurrent frontend connections behave like the paper's multi-core pods.

* The request reader is this module's own (``_Handler._handle_one``), not
  the stdlib's ``http.server`` handler: ``GET`` or ``POST``, an ASCII path,
  ``HTTP/1.0`` or ``HTTP/1.1``, header lines of ``token: value`` of which
  only ``Content-Length``, ``Transfer-Encoding``, ``Connection`` and
  ``Expect`` are looked at. Everything else is refused with a JSON body
  and ``Connection: close`` (400, 414, 431, 501, 505) and counted as a
  bad request; DESIGN.md §8 has the list and the reasons.
* The server is ``socketserver``'s threading TCP server, not
  ``http.server``'s, and the ``Date`` line is written by
  :func:`imf_fixdate`, not by ``email.utils``: a pod loads neither
  ``http.client``, ``email`` nor ``ssl``.
* Every response is one ``bytes`` (status line, ``Server``, ``Date``,
  ``Content-Type``, ``Content-Length``, body) handed to the socket in one
  write, so headers and body are one segment. Written separately, the
  second small write waits in Nagle's algorithm for the client's delayed
  ACK: 40 ms on a 1 ms request. ``TCP_NODELAY`` covers the responses
  larger than a segment.
* The two recommendation answers are written, not serialised:
  :meth:`SerenadeService.recommend` and ``recommend_batch`` return the
  response body as ``bytes``, formatted straight from the ranked
  ``ScoredItem`` list (:func:`_encode_items`) with the digits and the
  spacing ``json.dumps`` gives the same values, so no ``dict`` per item is
  built to be walked again. A score is formatted once and its text looked
  up afterwards, in a table of at most :data:`_SCORE_TEXT_LIMIT` entries
  per service: most ``/v1/recommend`` answers come from the result cache
  and repeat their scores. ``json.dumps`` still writes ``/healthz``, the
  error bodies and the few string fields.
* A fault inside a route is a 500 with a JSON body, ``Connection: close``,
  one ``serenade_requests_total{status="error"}`` and one logged traceback
  (on stderr unless logging is configured otherwise); the server serves on.
* :data:`SOCKET_TIMEOUT_S` bounds every read and write, so a client that
  stalls mid-header or mid-body, a half-open peer, or an idle kept-alive
  connection gives its thread back.
* A body is framed by a validated ``Content-Length`` (400 / 411 / 413) and
  by nothing else: any ``Transfer-Encoding`` is a 411 and two differing
  ``Content-Length`` lines a 400. It is read in full before routing;
  whenever it is not consumed the connection closes, because the unread
  bytes would be parsed as the next request.
* :meth:`SerenadeHTTPServer.stop` stops accepting, lets requests in flight
  finish (at most :data:`DRAIN_TIMEOUT_S`), closes idle connections, then
  releases the cluster's pools.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import sys
import threading
import time
from http import HTTPStatus
from socketserver import StreamRequestHandler, TCPServer, ThreadingMixIn
from typing import Any, Iterable

from repro.core.deadline import Clock
from repro.core.types import ScoredItem
from repro.serving.app import ServingCluster
from repro.serving.monitoring import MetricsRegistry
from repro.serving.resilience import BreakerState, Overloaded
from repro.serving.server import RecommendationRequest
from repro.serving.variants import ServingVariant

logger = logging.getLogger(__name__)

#: Socket timeout of a connection, for reads and writes alike: how long a
#: stalled or idle client may hold its thread.
SOCKET_TIMEOUT_S = 5.0
#: Open connections, i.e. handler threads. Kept above admission control's
#: default ``queue_capacity`` (256) so that overload is still shed by the
#: 429 path, which answers, and not by the accept queue, which does not.
MAX_CONNECTIONS = 512
#: How long ``stop()`` waits for requests in flight. Under the 5 s after
#: which a supervisor's ``terminate`` is typically followed by ``kill``.
DRAIN_TIMEOUT_S = 3.0
#: Largest accepted request body: a 10 000-session batch (the limit
#: ``parse_batch_payload`` enforces) of 50 clicks each at 8 bytes per id.
MAX_BODY_BYTES = 4 * 1024 * 1024
#: Longest request line or header line, line end included, and most lines
#: in a header section, the blank one that ends it included: the stdlib
#: server's caps, counted as it counts them (414 / 431 past them).
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

_BREAKER_STATE_VALUES = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}

_VARIANTS = {variant.value: variant for variant in ServingVariant}

# Rollout states as exported at /metrics (serenade_rollout_state).
_ROLLOUT_STATE_VALUES = {
    "idle": 0.0,
    "canary": 1.0,
    "rolling": 2.0,
    "completed": 3.0,
    "rolled_back": 4.0,
}


def _version_number(version: str | None) -> float:
    """Numeric form of a registry version id (v000042 -> 42; unknown -> 0)."""
    if version and version.startswith("v") and version[1:].isdigit():
        return float(version[1:])
    return 0.0


class BadRequest(ValueError):
    """The request body was malformed; reported back as HTTP 400."""


def parse_recommend_payload(payload: dict) -> RecommendationRequest:
    """Validate and convert a JSON body into a typed request."""
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    session_id = payload.get("session_id")
    if not isinstance(session_id, str) or not session_id:
        raise BadRequest("session_id must be a non-empty string")
    item_id = payload.get("item_id")
    if not isinstance(item_id, int) or isinstance(item_id, bool):
        raise BadRequest("item_id must be an integer")
    consent = payload.get("consent", True)
    if not isinstance(consent, bool):
        raise BadRequest("consent must be a boolean")
    variant_name = payload.get("variant", ServingVariant.HIST.value)
    variant = _VARIANTS.get(variant_name)
    if variant is None:
        raise BadRequest(
            f"unknown variant {variant_name!r}; known: {sorted(_VARIANTS)}"
        )
    count = payload.get("count", 21)
    if not isinstance(count, int) or isinstance(count, bool) or not 1 <= count <= 100:
        raise BadRequest("count must be an integer in [1, 100]")
    return RecommendationRequest(session_id, item_id, consent, variant, count)


def parse_batch_payload(payload: dict) -> tuple[list[list[int]], int]:
    """Validate a /v1/recommend_batch body into (sessions, count)."""
    if not isinstance(payload, dict):
        raise BadRequest("body must be a JSON object")
    sessions = payload.get("sessions")
    if not isinstance(sessions, list):
        raise BadRequest("sessions must be a list of item-id lists")
    if len(sessions) > 10_000:
        raise BadRequest("at most 10000 sessions per batch")
    for session in sessions:
        if not isinstance(session, list):
            raise BadRequest("each session must be a list of item ids")
        for item_id in session:
            if not isinstance(item_id, int) or isinstance(item_id, bool):
                raise BadRequest("item ids must be integers")
    count = payload.get("count", 21)
    if not isinstance(count, int) or isinstance(count, bool) or not 1 <= count <= 100:
        raise BadRequest("count must be an integer in [1, 100]")
    return sessions, count


_float_repr = float.__repr__

#: Most score texts one service keeps; a full table is cleared whole.
#: Replaying the serve ledger's seed-2022 answers, a table this size
#: answers 0.77 of the scores of ``pdp_closed`` (0.64 at 2 048 entries,
#: 0.86 at 8 192), 0.998 of ``anon_hot``'s and 0.12 of ``deep_batch``'s,
#: whose distinct sessions repeat few scores. Full, it holds 0.52 MB
#: (tracemalloc).
_SCORE_TEXT_LIMIT = 4096


def _score_text(texts: dict[float, str], score: float) -> str:
    """``float.__repr__`` of a score ``texts`` does not hold, kept for the
    next answer unless it is zero: ``0.0`` and ``-0.0`` are one key that
    prints two ways. Connection threads share the table without a lock:
    two that miss together store the same text, and threads storing at
    the same moment can pass the limit by one entry each."""
    text = _float_repr(score)
    if score:
        if len(texts) >= _SCORE_TEXT_LIMIT:
            texts.clear()
        texts[score] = text
    return text


def _encode_items(ranked: Iterable[ScoredItem], texts: dict[float, str]) -> str:
    """One ranked list as ``json.dumps`` writes it, character for character.

    ``json.dumps`` formats a float with ``float.__repr__`` (also one of a
    float subclass such as ``numpy.float64``, whose own ``repr`` differs)
    and an int in decimal. The digits of a score are what bit-identity
    to the oracle is checked on, so they stay ``repr``'s. A score's text
    is looked up in ``texts`` first (see :func:`_score_text`): equal
    floats have equal ``repr``s, zero aside.
    """
    text = ", ".join(
        [
            f'{{"item_id": {scored.item_id}, "score": '
            f"{texts.get(scored.score) or _score_text(texts, scored.score)}}}"
            for scored in ranked
        ]
    )
    # Only ``nan``, ``inf`` and ``-inf`` put an "n" into this text; JSON
    # as ``json.dumps`` writes it spells them differently.
    if "n" in text:
        text = (
            text.replace(": nan", ": NaN")
            .replace(": inf", ": Infinity")
            .replace(": -inf", ": -Infinity")
        )
    return "[" + text + "]"


class _JsonStrings(dict):
    """``json.dumps`` of a name, written once per name: the pod ids and
    stage names an answer carries are a handful of strings, and a
    ``json.dumps`` call costs more than the dictionary lookup."""

    def __missing__(self, name: str) -> str:
        text = self[name] = json.dumps(name)
        return text


class SerenadeService:
    """The application object behind the HTTP handler (testable directly).

    :meth:`recommend` and :meth:`recommend_batch` return the response body,
    encoded: the bytes ``json.dumps`` would give for the same answer.

    ``perf_clock`` is the latency clock seam: tests drive it with a
    ``VirtualClock`` so reported ``latency_ms`` is deterministic.
    """

    def __init__(
        self, cluster: ServingCluster, perf_clock: Clock | None = None
    ) -> None:
        self.cluster = cluster
        self._perf: Clock = perf_clock if perf_clock is not None else time.perf_counter
        self._json_names = _JsonStrings()
        # Score text of every answer this service writes (see _score_text).
        self._score_texts: dict[float, str] = {}
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "serenade_requests_total", "Recommendation requests by status"
        )
        self._latency = self.metrics.histogram(
            "serenade_request_latency_seconds", "End-to-end request latency"
        )
        self._batch_requests = self.metrics.counter(
            "serenade_batch_requests_total", "Batch recommendation requests"
        )
        self._batch_sessions = self.metrics.counter(
            "serenade_batch_sessions_total", "Sessions served through batches"
        )
        self._batch_latency = self.metrics.histogram(
            "serenade_batch_latency_seconds",
            "End-to-end latency of one batch call (all its sessions)",
        )
        # requests_total / connections_total is requests per connection:
        # 1 without keep-alive, the client's reuse with it.
        self._connections = self.metrics.counter(
            "serenade_http_connections_total", "TCP connections accepted"
        )
        self._open_connections = self.metrics.gauge(
            "serenade_http_open_connections",
            "TCP connections currently open (one handler thread each)",
        )
        # SLA guardrail series; monotonic counters mirror the cluster's
        # running totals (synced on scrape), the gauge is point-in-time.
        self._degraded = self.metrics.counter(
            "serenade_degraded_requests_total",
            "Requests served by a fallback stage instead of the primary",
        )
        self._shed = self.metrics.counter(
            "serenade_shed_requests_total",
            "Requests shed by admission control (HTTP 429)",
        )
        self._recovered = self.metrics.counter(
            "serenade_recovered_sessions_total",
            "Sessions restored by WAL replay after pod restarts",
        )
        self._corrupt = self.metrics.counter(
            "serenade_corrupt_sessions_total",
            "Corrupt session values read as empty",
        )
        self._breaker_state = self.metrics.gauge(
            "serenade_breaker_state",
            "Circuit breaker state per pod/stage (0 closed, 1 half-open, 2 open)",
        )
        # Index lifecycle series (daily rollout / rollback observability).
        self._index_version = self.metrics.gauge(
            "serenade_index_version",
            "Active index version per pod (numeric registry version; 0 unknown)",
        )
        self._rollout_state = self.metrics.gauge(
            "serenade_rollout_state",
            "Rollout state (0 idle, 1 canary, 2 rolling, 3 completed, "
            "4 rolled back)",
        )
        self._rollbacks = self.metrics.counter(
            "serenade_index_rollbacks_total",
            "Automatic index rollbacks (canary or rolling stage failures)",
        )
        # Streaming ingestion series (repro.streaming): gauges are
        # point-in-time snapshots of the attached pipeline on scrape.
        self._streaming_lag = self.metrics.gauge(
            "serenade_streaming_lag_events",
            "Acknowledged clicks not yet visible in the index "
            "(unread backlog + buffered unsealed sessions)",
        )
        self._streaming_watermark = self.metrics.gauge(
            "serenade_streaming_watermark_seconds",
            "Event-time watermark of the streaming consumer group",
        )
        self._index_staleness = self.metrics.gauge(
            "serenade_index_staleness_seconds",
            "Event-time gap between the log head and the indexed head",
        )
        # Ring series: per-pod placement gauges plus the hedge/failover
        # counters of the coordinator (synced on scrape).
        self._ring_leader_sessions = self.metrics.gauge(
            "serenade_ring_leader_sessions",
            "Sessions this pod leads on the ring",
        )
        self._ring_follower_sessions = self.metrics.gauge(
            "serenade_ring_follower_sessions",
            "Sessions this pod follows on the ring",
        )
        self._ring_replication_lag = self.metrics.gauge(
            "serenade_ring_replication_lag_bytes",
            "Unacked replication-log bytes per leader->follower link",
        )
        self._ring_hedges = self.metrics.counter(
            "serenade_ring_hedges_fired_total",
            "Hedged follower reads fired after the hedge delay",
        )
        self._ring_hedge_wins = self.metrics.counter(
            "serenade_ring_hedge_wins_total",
            "Hedged reads that beat the leader's response",
        )
        self._ring_fenced_hedges = self.metrics.counter(
            "serenade_ring_fenced_hedges_total",
            "Hedge attempts refused because the follower was stale/partitioned",
        )
        self._ring_failovers = self.metrics.counter(
            "serenade_ring_failovers_total",
            "Leader deaths that moved a key to its next live pod",
        )

    def recommend(self, payload: dict) -> bytes:
        """Handle one /v1/recommend call; raises BadRequest on bad input
        and Overloaded (HTTP 429) when admission control sheds the call."""
        request = parse_recommend_payload(payload)
        started = self._perf()
        try:
            response = self.cluster.handle(request)
        except Overloaded:
            self._requests.increment(status="shed")
            raise
        elapsed = self._perf() - started
        self._requests.increment(status="ok")
        self._latency.observe(elapsed)
        names = self._json_names
        return (
            '{"items": %s, "pod": %s, "latency_ms": %s, "degraded": %s, "stage": %s}'
            % (
                _encode_items(response.items, self._score_texts),
                names[response.served_by],
                _float_repr(elapsed * 1e3),
                "true" if response.degraded else "false",
                names[response.served_stage],
            )
        ).encode("ascii")

    def recommend_batch(self, payload: dict) -> bytes:
        """Handle one /v1/recommend_batch call via the cluster batch engine."""
        sessions, count = parse_batch_payload(payload)
        started = self._perf()
        results = self.cluster.handle_batch(sessions, how_many=count)
        elapsed = self._perf() - started
        self._batch_requests.increment(status="ok")
        self._batch_sessions.increment(amount=len(sessions))
        self._batch_latency.observe(elapsed)
        cache = self.cluster.batch_engine().cache_info()
        return (
            '{"results": [%s], "latency_ms": %s, "cache": %s}'
            % (
                ", ".join([_encode_items(ranked, self._score_texts) for ranked in results]),
                _float_repr(elapsed * 1e3),
                json.dumps({"hits": cache["hits"], "hit_rate": cache["hit_rate"]}),
            )
        ).encode("ascii")

    def record_bad_request(self) -> None:
        self._requests.increment(status="bad_request")

    def record_error(self) -> None:
        self._requests.increment(status="error")

    def record_connections(self, open_now: int, accepted: bool = False) -> None:
        """A connection was accepted or closed; ``open_now`` are left."""
        if accepted:
            self._connections.increment()
        self._open_connections.set(float(open_now))

    def render_metrics(self) -> str:
        """Sync guardrail counters from the cluster, then render."""
        info = self.cluster.resilience_info()
        for counter, key in (
            (self._degraded, "degraded_requests"),
            (self._shed, "shed_requests"),
            (self._recovered, "recovered_sessions"),
            (self._corrupt, "corrupt_sessions"),
        ):
            delta = info[key] - counter.value()
            if delta > 0:
                counter.increment(delta)
        for target, state_name in info["breaker_states"].items():
            pod_id, _, stage = target.partition("/")
            self._breaker_state.set(
                _BREAKER_STATE_VALUES[BreakerState(state_name)],
                pod=pod_id,
                stage=stage,
            )
        rollout = self.cluster.rollout_info()
        for pod_id, version in rollout["pod_versions"].items():
            self._index_version.set(_version_number(version), pod=pod_id)
        self._rollout_state.set(
            _ROLLOUT_STATE_VALUES.get(rollout["rollout_state"], 0.0)
        )
        rollback_delta = rollout["rollback_count"] - self._rollbacks.value()
        if rollback_delta > 0:
            self._rollbacks.increment(rollback_delta)
        streaming = self.cluster.streaming
        if streaming is not None:
            self._streaming_lag.set(float(streaming.lag_events()))
            self._streaming_watermark.set(streaming.watermark_seconds())
            self._index_staleness.set(streaming.staleness_seconds())
        ring = self.cluster.ring_info()
        for pod_id, count in ring["leader_sessions"].items():
            self._ring_leader_sessions.set(float(count), pod=pod_id)
        for pod_id, count in ring["follower_sessions"].items():
            self._ring_follower_sessions.set(float(count), pod=pod_id)
        for link, lag in ring["replication_lag"].items():
            self._ring_replication_lag.set(float(lag), link=link)
        for counter, key in (
            (self._ring_hedges, "hedges_fired"),
            (self._ring_hedge_wins, "hedge_wins"),
            (self._ring_fenced_hedges, "fenced_hedges"),
            (self._ring_failovers, "failovers"),
        ):
            ring_delta = ring[key] - counter.value()
            if ring_delta > 0:
                counter.increment(ring_delta)
        return self.metrics.render_prometheus()

    def health(self) -> dict:
        return {
            "status": "ok",
            "pods": self.cluster.router.pods,
            "index": self.cluster.rollout_info(),
            "streaming": self.cluster.streaming_info(),
            "ring": self.cluster.ring_info(),
            "requests_served": self.cluster.total_requests(),
            "result_cache": self.cluster.cache_info(),
            "resilience": {
                key: value
                for key, value in self.cluster.resilience_info().items()
                if key
                in (
                    "enabled",
                    "degraded_requests",
                    "shed_requests",
                    "recovered_sessions",
                    "corrupt_sessions",
                )
            },
        }


_POST_ROUTES = {
    "/v1/recommend": "recommend",
    "/v1/recommend_batch": "recommend_batch",
}

_STATUS_LINES = {
    status: b"HTTP/1.1 %d %s\r\nServer: Serenade/1.0\r\n"
    % (status, HTTPStatus(status).phrase.encode("ascii"))
    for status in (200, 400, 404, 411, 413, 414, 429, 431, 500, 501, 505)
}
_HTTP_VERSION = re.compile(rb"HTTP/\d+\.\d+")
#: RFC 7230 ``tchar``: what a header name is made of. No whitespace, so
#: ``Content-Length : 5`` and a folded continuation line are malformed.
_TOKEN_BYTES = (
    b"!#$%&'*+-.^_`|~0123456789"
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


class _Handler(StreamRequestHandler):
    """Serves one connection: reads its HTTP calls, one after the other,
    and routes them to the :class:`SerenadeService` on the server.

    The reader accepts the subset of HTTP/1.x the contract needs (module
    docstring) and answers everything else with a status and
    ``Connection: close``; only :attr:`_close` survives from one request
    to the next.
    """

    timeout = SOCKET_TIMEOUT_S
    disable_nagle_algorithm = True

    server: "_Server"

    @property
    def service(self) -> SerenadeService:
        return self.server.service

    def handle(self) -> None:
        self._close = False
        while not self._close:
            self._handle_one()

    def _handle_one(self) -> None:
        """Read one request and answer it.

        Returning without an answer means there was no request: the
        client closed or ``stop()`` shut the read side, possibly part way
        through a line. A stalled read raises ``TimeoutError``, which
        ends the connection in :meth:`_Server.handle_error`.
        """
        self._close = True  # until a whole request says otherwise
        readline = self.rfile.readline
        line = readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            self._refuse(414, "request line is too long")
            return
        if not line.endswith(b"\n"):
            return
        words = line.split()
        if len(words) != 3:
            self._refuse(400, "request line must be: method target HTTP-version")
            return
        method, target, version = words
        if version == b"HTTP/1.1":
            http11 = True
        elif version == b"HTTP/1.0":
            http11 = False
        elif _HTTP_VERSION.fullmatch(version):
            self._refuse(505, "only HTTP/1.0 and HTTP/1.1 are spoken here")
            return
        else:
            self._refuse(400, "malformed HTTP version")
            return
        if method != b"POST" and method != b"GET":
            self._refuse(501, "only GET and POST are implemented")
            return
        if not (target.startswith(b"/") and target.isascii()):
            self._refuse(400, "request target must be an ASCII path")
            return

        keep_alive, asks_close = http11, False
        content_length: bytes | None = None
        expects_continue = False
        for _ in range(MAX_HEADER_LINES):
            line = readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                self._refuse(431, "header line is too long")
                return
            if line == b"\r\n" or line == b"\n":
                break
            if not line.endswith(b"\n"):
                return
            name, colon, value = line.partition(b":")
            if not (colon and name) or name.translate(None, _TOKEN_BYTES):
                self._refuse(400, "malformed header line")
                return
            name = name.lower()
            if name == b"content-length":
                # Optional whitespace and the line end, nothing more: what
                # is left must be digits to every parser on the path.
                value = value.strip(b" \t\r\n")
                if content_length is not None and value != content_length:
                    self._refuse(400, "conflicting Content-Length headers")
                    return
                content_length = value
            elif name == b"transfer-encoding":
                # Two framings on one request is how a proxy and this
                # server come to disagree on where the next one starts.
                self._refuse(411, "Transfer-Encoding is not accepted; send Content-Length")
                return
            elif name == b"connection":
                options = [option.strip() for option in value.lower().split(b",")]
                if b"close" in options:
                    asks_close = True
                elif b"keep-alive" in options:
                    keep_alive = True
            elif name == b"expect":
                expects_continue = http11 and value.strip().lower() == b"100-continue"
        else:
            self._refuse(431, f"{MAX_HEADER_LINES} header lines or more")
            return

        self._close = asks_close or not keep_alive
        path = target.decode("ascii")
        if method == b"GET":
            # A GET has no use for a body here, so one is never read.
            self._get(path, unread=content_length not in (None, b"0"))
        else:
            self._post(path, content_length, expects_continue)

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: bytes = b"application/json",
        retry_after: int | None = None,
        close: bool = False,
    ) -> None:
        """The whole response in one write: one segment, nothing for
        Nagle's algorithm to hold back."""
        if close or self.server.draining:
            self._close = True
        self.wfile.write(
            b"%s%sContent-Type: %s\r\nContent-Length: %d\r\n%s%s\r\n%s"
            % (
                _STATUS_LINES[status],
                self.server.date_header(),
                content_type,
                len(body),
                b"" if retry_after is None else b"Retry-After: %d\r\n" % retry_after,
                b"Connection: close\r\n" if self._close else b"",
                body,
            )
        )

    def _send_json(self, status: int, body: dict, **options: Any) -> None:
        self._send(status, json.dumps(body).encode("utf-8"), **options)

    def _refuse(self, status: int, message: str) -> None:
        """Answer a request that will not be served and end the connection:
        whatever of it is still on the socket must not become the next one."""
        self.service.record_bad_request()
        self._send_json(status, {"error": message}, close=True)

    def _read_body(self, header: bytes | None, expects_continue: bool) -> bytes | None:
        """The request body, or ``None`` once the request has been refused."""
        if not header:
            self._refuse(411, "Content-Length is required")
            return None
        if not header.isdigit():
            self._refuse(400, "Content-Length must be a non-negative integer")
            return None
        # int() refuses digit strings past 4 300 characters; eighteen
        # digits already exceed any cap.
        length = int(header) if len(header) <= 18 else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            self._refuse(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        if expects_continue:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        if len(body) < length:
            self._refuse(400, "body is shorter than Content-Length")
            return None
        return body

    def _get(self, path: str, unread: bool) -> None:
        if path == "/healthz":
            self._send_json(200, self.service.health(), close=unread)
        elif path == "/metrics":
            self._send(
                200,
                self.service.render_metrics().encode("utf-8"),
                content_type=b"text/plain; version=0.0.4",
                close=unread,
            )
        else:
            self._send_json(404, {"error": f"no route {path}"}, close=unread)

    def _post(self, path: str, content_length: bytes | None, expects_continue: bool) -> None:
        raw = self._read_body(content_length, expects_continue)
        if raw is None:
            return
        route = _POST_ROUTES.get(path)
        if route is None:
            self._send_json(404, {"error": f"no route {path}"})
            return
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            self.service.record_bad_request()
            self._send_json(400, {"error": "body is not valid JSON"})
            return
        try:
            # Looked up per call: a tracer may rebind the service's methods.
            body = getattr(self.service, route)(payload)
        except BadRequest as error:
            self.service.record_bad_request()
            self._send_json(400, {"error": str(error)})
        except Overloaded as error:
            self._send_json(
                429,
                {"error": "overloaded", "retry_after_ms": error.retry_after_ms},
                retry_after=max(1, round(error.retry_after_ms / 1000)),
            )
        except Exception:
            # A fault in the route, not in the request: the client gets an
            # answer, the operator the traceback, and the connection goes,
            # since nothing says what state the fault left behind it.
            self.service.record_error()
            logger.exception("unhandled error in POST %s", path)
            self._send_json(500, {"error": "internal server error"}, close=True)
        else:
            self._send(200, body)


def _shutdown_socket(connection: socket.socket, how: int) -> None:
    try:
        connection.shutdown(how)
    except OSError:
        pass  # its handler closed it first


_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


def imf_fixdate(seconds: int) -> str:
    """HTTP's date format for a POSIX second, ``Sun, 06 Nov 1994 08:49:37
    GMT``: English names whatever the locale, as
    ``email.utils.formatdate(seconds, usegmt=True)`` writes it."""
    t = time.gmtime(seconds)
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        _WEEKDAYS[t.tm_wday],
        t.tm_mday,
        _MONTHS[t.tm_mon - 1],
        t.tm_year,
        t.tm_hour,
        t.tm_min,
        t.tm_sec,
    )


class _Server(ThreadingMixIn, TCPServer):
    """One daemon thread per open connection, at most ``MAX_CONNECTIONS``.

    What ``http.server.ThreadingHTTPServer`` adds to these two classes is
    the address reuse set here and a ``getfqdn`` lookup of the bound host
    at start-up, whose result nothing here reads; importing it would load
    ``http.client``, ``email`` and ``ssl`` (OpenSSL) into every pod. The
    stdlib default ``request_queue_size`` of 5 drops connections under
    the bursty frontend traffic this service exists to absorb.
    """

    allow_reuse_address = True
    request_queue_size = 128
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: SerenadeService,
        wall_clock: Clock = time.time,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self._wall_clock = wall_clock
        self._date = (-1, b"")  # (second, that second's Date header line)
        #: set by :meth:`drain`: every response now closes its connection.
        self.draining = False
        self._open: set[socket.socket] = set()
        self._changed = threading.Condition()

    def process_request(self, request: Any, client_address: Any) -> None:
        """Runs on the accept thread: admit the connection or, at the
        bound, close it unanswered."""
        with self._changed:
            admitted = len(self._open) < MAX_CONNECTIONS
            if admitted:
                self._open.add(request)
                self.service.record_connections(len(self._open), accepted=True)
        if not admitted:
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:  # no thread could be started
            self._forget(request)
            raise

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._forget(request)

    def date_header(self) -> bytes:
        """The ``Date`` line of a response, formatted once per second.

        Handler threads race on the pair; each writes a correct one.
        """
        now = int(self._wall_clock())
        second, line = self._date
        if second != now:
            line = b"Date: %s\r\n" % imf_fixdate(now).encode("ascii")
            self._date = (now, line)
        return line

    def _forget(self, request: socket.socket) -> None:
        with self._changed:
            self._open.discard(request)
            self.service.record_connections(len(self._open))
            self._changed.notify_all()

    def handle_error(self, request: Any, client_address: Any) -> None:
        if isinstance(sys.exc_info()[1], OSError):
            return  # the client went away mid-exchange; not a server fault
        super().handle_error(request, client_address)

    def drain(self, timeout: float) -> None:
        """Stop accepting, let requests in flight finish, close the rest.

        Shutting down the read side wakes a handler that is waiting for
        the next request on an idle connection (it reads end-of-file and
        returns). A handler in the middle of a request has read it
        already, and still writes its answer.
        """
        self.draining = True
        self.shutdown()
        self.server_close()
        with self._changed:
            for connection in self._open:
                _shutdown_socket(connection, socket.SHUT_RD)
            self._changed.wait_for(lambda: not self._open, timeout)
            for connection in self._open:
                _shutdown_socket(connection, socket.SHUT_RDWR)


class SerenadeHTTPServer:
    """A keep-alive HTTP server wrapping a serving cluster.

    Usage::

        server = SerenadeHTTPServer(cluster, port=0)  # 0 = ephemeral port
        server.start()
        ... requests against f"http://127.0.0.1:{server.port}" ...
        server.stop()
    """

    def __init__(
        self,
        cluster: ServingCluster,
        host: str = "127.0.0.1",
        port: int = 0,
        perf_clock: Clock | None = None,
        wall_clock: Clock = time.time,
    ) -> None:
        self.service = SerenadeService(cluster, perf_clock=perf_clock)
        self._httpd = _Server((host, port), self.service, wall_clock)
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "SerenadeHTTPServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serenade-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drain, then release the cluster's pools."""
        self._httpd.drain(DRAIN_TIMEOUT_S)
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.service.cluster.close()

    def __enter__(self) -> "SerenadeHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
