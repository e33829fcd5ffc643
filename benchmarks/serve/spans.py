"""Spans for the traced run, recorded from outside the program.

Nothing under ``src/`` knows about tracing. The traced run builds the
serving stack in-process and rebinds public methods on the live objects
(``obj.method = timed(obj.method)``), so every layer boundary of a request
yields a span: name, start, end, request id, parent. Objects are never
replaced by proxies; ``isinstance`` checks inside the program keep working.

One request is in flight at a time. That is what lets work that hops to
another thread (the guardrail stage pool, the batch engine's pool) find
its place in the tree: a span opened on a thread with no open span of its
own becomes a child of the innermost open span on the request's handler
thread, which is blocked waiting for exactly that work.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

ROOT_SPAN = "client.roundtrip"


@dataclass
class Span:
    span_id: int
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    note: Any = None  # what the call returned or was given, when a counter needs it


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: Span | None = None  # the open client.roundtrip
        self._handler_stack: list[Span] = []  # open spans of the handler thread

    def _open(self, name: str, request: int, parent: int | None) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, request, parent, 0.0)
            self.spans.append(span)
        span.start = time.perf_counter()
        return span

    @contextmanager
    def request(self, request: int) -> Iterator[None]:
        """The root span; the load generator wraps each exchange in it."""
        root = self._open(ROOT_SPAN, request, None)
        self._root = root
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._root = None

    def timed(
        self,
        name: str,
        func: Callable,
        note: Callable[[tuple, Any], Any] | None = None,
    ) -> Callable:
        """``func`` wrapped in a span. ``note(args, result)`` is kept on it."""

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            root = self._root
            if root is None:  # warm-up and scrapes are not part of the trace
                return func(*args, **kwargs)
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent = stack[-1]
            elif self._handler_stack:
                parent = self._handler_stack[-1]
            else:
                parent = root
                self._handler_stack = stack
            span = self._open(name, root.request, parent.span_id)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        return wrapper

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "name": span.name,
                            "request": span.request,
                            "parent": span.parent,
                            "start_us": round(span.start * 1e6, 3),
                            "end_us": round(span.end * 1e6, 3),
                        }
                    )
                )
                out.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by a child, per span id.

    Computed request by request with a sweep over span boundaries: every
    elementary interval goes to the open spans that have no open child.
    With ordinary nesting that is exactly "duration minus children". When
    children overlap (batch pool threads share the interpreter lock) the
    interval is split evenly between them, so self times always add up to
    the root's duration and shares add up to one.
    """
    by_request: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_request[span.request].append(span)
    own: dict[int, float] = {}
    for members in by_request.values():
        events = []
        for span in members:
            own[span.span_id] = 0.0
            if span.end <= span.start:
                continue
            events.append((span.start, 1, span))
            events.append((span.end, 0, span))  # closes sort before opens
        events.sort(key=lambda event: (event[0], event[1]))
        open_children: dict[int, int] = defaultdict(int)
        open_spans: dict[int, Span] = {}
        previous = 0.0
        for moment, opening, span in events:
            if moment > previous and open_spans:
                leaves = [s for s in open_spans.values() if not open_children[s.span_id]]
                for leaf in leaves:
                    own[leaf.span_id] += (moment - previous) / len(leaves)
            previous = moment
            if opening:
                open_spans[span.span_id] = span
                if span.parent is not None:
                    open_children[span.parent] += 1
            else:
                del open_spans[span.span_id]
                if span.parent is not None:
                    open_children[span.parent] -= 1
    return own


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """``<span>.calls/.self_us_p50/.self_us_p90/.share`` for every name.

    Percentiles are over operations: the self time of a layer within one
    request is the sum over its calls in that request (admission is
    entered twice, the scorer 64 times in a batch call).
    """
    own = self_times(spans)
    total = sum(span.end - span.start for span in spans if span.name == ROOT_SPAN)
    calls: dict[str, int] = defaultdict(int)
    per_request: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        calls[span.name] += 1
        per_request[span.name][span.request] += own[span.span_id]
    metrics: dict[str, float] = {}
    for name in names:
        values = list(per_request[name].values())
        metrics[f"{name}.calls"] = float(calls[name])
        metrics[f"{name}.self_us_p50"] = float(np.percentile(values, 50)) * 1e6 if values else 0.0
        metrics[f"{name}.self_us_p90"] = float(np.percentile(values, 90)) * 1e6 if values else 0.0
        metrics[f"{name}.share"] = sum(values) / total if total else 0.0
    return metrics


# Every span of the ledger, in request order. ``client.roundtrip`` is
# opened by the load generator and ``colindex.find_neighbors`` by a side
# replay (``VMISKNNColumnar.recommend`` reaches the neighbour search
# through a private method); the rest are the rebound public calls below.
SPAN_NAMES = [
    ROOT_SPAN,
    "http.service",
    "http.parse_payload",
    "app.handle",
    "resilience.admission",
    "router.route",
    "ring.handle",
    "ring.tail_ship",
    "server.update_session",
    "session_store.append_click",
    "server.predict",
    "resilience.recommend",
    "batch.recommend",
    "colindex.recommend",
    "colindex.find_neighbors",
    "rules.apply",
]


def instrument_model(tracer: Tracer, model: Any) -> Any:
    """Span-wrap a fresh ``VMISKNNColumnar`` (called by the recommender
    factory, so pods and the batch engine all get a wrapped instance).
    The span keeps the session view it scored, for the side replay."""
    model.recommend = tracer.timed(
        "colindex.recommend", model.recommend, note=lambda args, _result: tuple(args[0])
    )
    return model


def instrument(tracer: Tracer, http_server: Any) -> list[Callable[[], None]]:
    """Rebind the public calls of every layer of a live serving stack.

    Returns the undo callbacks for what is not an instance attribute (the
    payload parsers are module-level functions of ``repro.serving.http``).
    """
    import repro.serving.http as http_module

    def rebind(obj: Any, method: str, name: str, note: Callable | None = None) -> None:
        setattr(obj, method, tracer.timed(name, getattr(obj, method), note=note))

    service = http_server.service
    cluster = service.cluster
    rebind(service, "recommend", "http.service")
    rebind(service, "recommend_batch", "http.service")
    rebind(cluster, "handle", "app.handle")
    rebind(cluster, "handle_batch", "app.handle")
    rebind(cluster, "route_live", "router.route")
    rebind(cluster.batch_engine(), "recommend_batch", "batch.recommend")
    if cluster.admission is not None:
        rebind(cluster.admission, "submit", "resilience.admission")
        rebind(cluster.admission, "release", "resilience.admission")
    if cluster.coordinator is not None:
        rebind(cluster.coordinator, "handle", "ring.handle")
    for server in cluster.pods.values():
        rebind(server, "update_session", "server.update_session")
        rebind(server, "predict", "server.predict")
        rebind(server.rules, "apply", "rules.apply")
        rebind(server.sessions, "append_click", "session_store.append_click")
        rebind(server.sessions, "tail_bytes", "ring.tail_ship")
        rebind(
            server.sessions,
            "apply_tail",
            "ring.tail_ship",
            note=lambda _args, report: report.applied,
        )
        rebind(server.recommender, "recommend", "resilience.recommend")
        rebind(server.recommender.primary, "recommend", "batch.recommend")

    undo = []
    for parser in ("parse_recommend_payload", "parse_batch_payload"):
        original = getattr(http_module, parser)
        setattr(http_module, parser, tracer.timed("http.parse_payload", original))
        undo.append(functools.partial(setattr, http_module, parser, original))
    return undo
