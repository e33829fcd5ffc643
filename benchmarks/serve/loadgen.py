"""The load generator: persistent connections, closed and open loops.

The client is neutral about connection reuse. Each sender owns one
``http.client.HTTPConnection`` and keeps its socket for as long as the
server allows; when the server closes after a response (HTTP/1.0 today)
the next call reconnects, and that connect is part of the call's latency.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator, NamedTuple, Sequence

import numpy as np

from oracle import Oracle
from workloads import Op

REQUEST_TIMEOUT_S = 5.0
_HEADERS = {"Content-Type": "application/json"}
# Errors a reused socket raises when the server closed it while idle; the
# call is repeated once on a fresh connection.
_STALE_SOCKET = (
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
)


class _CountingConnection(http.client.HTTPConnection):
    """Counts TCP connects: the numerator of connections_opened_per_op."""

    connects = 0

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connects += 1


class Sender:
    """One client connection."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._conn = _CountingConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    @property
    def connects(self) -> int:
        return self._conn.connects

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        """One exchange; raises OSError/HTTPException when it fails."""
        reused = self._conn.sock is not None
        try:
            try:
                return self._exchange(method, path, body)
            except _STALE_SOCKET:
                if not reused:
                    raise
                self._conn.close()
                return self._exchange(method, path, body)
        except (OSError, http.client.HTTPException):
            self._conn.close()
            raise

    def _exchange(self, method: str, path: str, body: bytes | None) -> tuple[int, bytes]:
        self._conn.request(method, path, body=body, headers=_HEADERS)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


@dataclass
class Exchange:
    """What the client saw for one operation."""

    due: float  # when the op was scheduled (== sent in a closed loop)
    sent: float
    done: float
    status: int  # 0 when no HTTP response arrived
    payload: bytes
    error: str = ""


@dataclass
class PhaseResult:
    """Raw outcome of one phase, before validation."""

    ops: Sequence[Op]
    exchanges: list[Exchange]
    wall_s: float
    client_cpu_s: float
    connects: int


@contextmanager
def gc_paused() -> Iterator[None]:
    """A collection pause in the client would be charged to the server.
    Nests: inside a paused block it does nothing, so a phase sent as many
    short segments collects once, before the first."""
    if not gc.isenabled():
        yield
        return
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _wait_until(deadline: float) -> None:
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        time.sleep(remaining)


def run_phase(
    port: int,
    ops: Sequence[Op],
    connections: int = 1,
    schedule: Sequence[float] | None = None,
    server_alive: Callable[[], bool] = lambda: True,
    span: Callable[[int], ContextManager] | None = None,
) -> PhaseResult:
    """Send every op once and record what came back.

    Closed loop (``schedule is None``): each connection sends its next op
    as soon as the previous answer is read. Open loop: op ``i`` is due
    ``schedule[i]`` seconds after the phase starts whatever happened to
    the ops before it, and its latency is counted from that due time.
    Once ``server_alive()`` turns false the remaining ops are recorded as
    failed without being sent: a dead server fails every op, quickly.
    ``span(i)`` wraps the exchange of op ``i`` (traced runs only).
    """
    exchanges: list[Exchange | None] = [None] * len(ops)
    counter = itertools.count()
    dead = threading.Event()
    senders = [Sender(port) for _ in range(connections)]
    # CPU of the sending threads only: in a traced run the server lives
    # in this process and must not be billed to the client.
    client_cpu: list[float] = []

    def drive(sender: Sender, started: float) -> None:
        cpu_started = time.thread_time()
        try:
            send_all(sender, started)
        finally:
            client_cpu.append(time.thread_time() - cpu_started)

    def send_all(sender: Sender, started: float) -> None:
        while True:
            index = next(counter)
            if index >= len(ops):
                return
            op = ops[index]
            if dead.is_set():
                now = time.perf_counter()
                exchanges[index] = Exchange(now, now, now, 0, b"", "server is gone")
                continue
            if schedule is not None:
                due = started + schedule[index]
                _wait_until(due)
            sent = time.perf_counter()
            if schedule is None:
                due = sent
            status, payload, error = 0, b"", ""
            try:
                if span is None:
                    status, payload = sender.call("POST", op.path, op.body)
                else:
                    with span(index):
                        status, payload = sender.call("POST", op.path, op.body)
            except (OSError, http.client.HTTPException) as failure:
                error = f"{type(failure).__name__}: {failure}"
                if not server_alive():
                    dead.set()
            exchanges[index] = Exchange(due, sent, time.perf_counter(), status, payload, error)

    try:
        with gc_paused():
            started = time.perf_counter()
            if connections == 1:
                drive(senders[0], started)
            else:
                threads = [
                    threading.Thread(target=drive, args=(sender, started), name=f"sender-{n}")
                    for n, sender in enumerate(senders)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            wall_s = time.perf_counter() - started
    finally:
        for sender in senders:
            sender.close()
    return PhaseResult(
        ops=ops,
        exchanges=exchanges,  # type: ignore[arg-type]  # every slot is filled
        wall_s=wall_s,
        client_cpu_s=sum(client_cpu),
        connects=sum(sender.connects for sender in senders),
    )


class Answer(NamedTuple):
    """A correct answer: which op, when it was due and read, how many
    sessions it carried (64 for a batch call)."""

    index: int
    due: float
    done: float
    sessions: int


def split_phase(
    ops: Sequence[Op], schedule: Sequence[float] | None, parts: int
) -> list[tuple[Sequence[Op], list[float] | None]]:
    """Cut a phase into consecutive segments that can be run one by one.

    Each segment of an open-loop phase keeps its arrivals, re-based so
    that its first op is due one inter-arrival gap after it starts.
    """
    bounds = [len(ops) * part // parts for part in range(parts + 1)]
    segments = []
    for low, high in zip(bounds, bounds[1:]):
        if low == high:
            continue
        rebased = None
        if schedule is not None:
            origin = schedule[low - 1] if low else 0.0
            rebased = [due - origin for due in schedule[low:high]]
        segments.append((ops[low:high], rebased))
    return segments


def merge_results(results: Sequence[PhaseResult]) -> PhaseResult:
    """The segments of one phase, as the phase."""
    return PhaseResult(
        ops=[op for result in results for op in result.ops],
        exchanges=[exchange for result in results for exchange in result.exchanges],
        wall_s=sum(result.wall_s for result in results),
        client_cpu_s=sum(result.client_cpu_s for result in results),
        connects=sum(result.connects for result in results),
    )


@dataclass
class PhaseReport:
    """A validated phase: what the end-to-end metrics are computed from."""

    attempted: int
    failed: int
    within_limit: int
    answers: list[Answer]
    lateness_s: list[float]  # sent - due (all zero in a closed loop)
    wall_s: float
    client_cpu_s: float
    connects: int
    shed: int
    degraded: int
    response_bytes: int
    oracle_checked: int
    oracle_mismatches: int
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    @property
    def sla_attainment(self) -> float:
        return self.within_limit / self.attempted

    @property
    def ok(self) -> int:
        return len(self.answers)

    @property
    def latencies_s(self) -> list[float]:
        """Due -> body read, correct answers only."""
        return [answer.done - answer.due for answer in self.answers]

    @property
    def throughput(self) -> float:
        """Sessions answered correctly per second of the phase."""
        return sum(answer.sessions for answer in self.answers) / self.wall_s

    def latency_ms(self, percentile: float) -> float:
        """Pooled over the whole phase."""
        if not self.answers:
            return float("nan")
        return float(np.percentile(self.latencies_s, percentile)) * 1e3


def _decode(op: Op, payload: bytes) -> tuple[list[list[tuple[int, float]]], bool] | None:
    """Ranked lists (one per session of the op) and the degraded flag."""
    try:
        body = json.loads(payload)
        if op.is_batch:
            ranked = [
                [(entry["item_id"], entry["score"]) for entry in session]
                for session in body["results"]
            ]
            degraded = False
        else:
            ranked = [[(entry["item_id"], entry["score"]) for entry in body["items"]]]
            degraded = body["degraded"]
    except (ValueError, KeyError, TypeError):
        return None
    if len(ranked) != op.sessions or not isinstance(degraded, bool):
        return None
    return ranked, degraded


def validate(result: PhaseResult, oracle: Oracle, oracle_every: int) -> PhaseReport:
    """Classify every exchange; recompute every ``oracle_every``-th answer.

    An op fails when it got no answer, a status other than 200 (429
    included), a body of the wrong shape, or an answer the oracle
    disagrees with. A degraded answer is a fallback's, not VMIS-kNN's, so
    the oracle skips it; it still counts as answered.
    """
    report = PhaseReport(
        attempted=len(result.ops),
        failed=0,
        within_limit=0,
        answers=[],
        lateness_s=[],
        wall_s=result.wall_s,
        client_cpu_s=result.client_cpu_s,
        connects=result.connects,
        shed=0,
        degraded=0,
        response_bytes=0,
        oracle_checked=0,
        oracle_mismatches=0,
    )

    def fail(reason: str) -> None:
        report.failed += 1
        report.failures[reason] = report.failures.get(reason, 0) + 1

    for index, (op, exchange) in enumerate(zip(result.ops, result.exchanges)):
        report.lateness_s.append(exchange.sent - exchange.due)
        if exchange.status != 200:
            if exchange.status == 429:
                report.shed += 1
            fail(exchange.error.split(":")[0] or f"http {exchange.status}")
            continue
        decoded = _decode(op, exchange.payload)
        if decoded is None:
            fail("malformed body")
            continue
        ranked, degraded = decoded
        if degraded:
            report.degraded += 1
        elif index % oracle_every == 0:
            report.oracle_checked += op.sessions
            expected = oracle.expected(op)
            if ranked != expected:
                report.oracle_mismatches += 1
                fail("oracle mismatch")
                continue
        report.answers.append(Answer(index, exchange.due, exchange.done, op.sessions))
        report.response_bytes += len(exchange.payload)
        if exchange.done - exchange.due <= op.limit_s:
            report.within_limit += 1
    return report
