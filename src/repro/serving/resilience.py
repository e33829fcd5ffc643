"""SLA guardrails for the serving path: deadlines, fallbacks, breakers, shedding.

The paper's operational promise is an answer within 50 ms for *every*
request (§4.2). The raw serving path cannot keep that promise by itself: a
slow or crashing recommender takes the request down with it. This module
wraps the recommender call in the machinery a production deployment needs
to degrade instead of failing:

* :class:`Deadline` budgets (re-exported from :mod:`repro.core.deadline`)
  bound every stage on a monotonic clock;
* a :class:`FallbackChain` tries progressively cheaper models —
  VMIS-kNN → popularity → a static ranked list — on the request thread,
  starting a stage only while budget beyond the reserve remains and
  checking the budget again when the stage returns: a stage that overran
  has its answer discarded and counts as a timeout. A stall is therefore
  *detected*, not interrupted — the stalled request itself overruns;
* a per-stage :class:`CircuitBreaker` (closed → open → half-open) is what
  protects the requests *after* a stall: once a model's failure rate
  (errors and overruns) crosses a threshold it is skipped without
  spending any budget, and probed again after a cool-down;
* an :class:`AdmissionController` bounds the number of requests inside the
  cluster and sheds **oldest-first** when saturated — the queued request
  that has waited longest has the least chance of meeting its SLA, so it
  is the one turned into a fast 429 (:class:`Overloaded`).

The terminal stage of every chain is assumed to be O(µs) (a precomputed
static list), so even a fully exhausted budget produces *some* answer.

Why no worker pool: the primary is an in-process, CPU-bound scorer with
bounded work (at most ``m`` sessions per posting list, ``k`` neighbours);
it cannot block on I/O, and the paper's pods likewise score on the request
worker. A pool bought mid-call abandonment of a stall that this scorer
cannot produce, at the price of a thread hop (a future submit and a
wake-up, 6–8 % of a request) on every healthy call. DESIGN.md ("The
front door and the guardrail stage") records the trade.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.core.deadline import Clock, Deadline
from repro.core.colindex import ColumnarSessionIndex
from repro.core.index import SessionIndex
from repro.core.locking import guarded_by, holds_lock
from repro.core.predictor import SessionRecommender, batch_via_loop
from repro.core.types import ItemId, ScoredItem


class Overloaded(RuntimeError):
    """The cluster shed this request (HTTP 429 semantics)."""

    def __init__(
        self, message: str = "overloaded", retry_after_ms: float = 100.0
    ) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


@dataclass(frozen=True)
class ResiliencePolicy:
    """Tunable knobs of the guardrail layer (defaults match the paper's SLA)."""

    budget_ms: float = 50.0
    #: budget kept in reserve for the terminal static stage + bookkeeping,
    #: so the *total* request time stays under ``budget_ms``.
    fallback_reserve_ms: float = 8.0
    breaker_failure_threshold: float = 0.5
    breaker_window: int = 20
    breaker_min_calls: int = 5
    breaker_probe_seconds: float = 5.0
    #: admission-control capacity: requests inside the cluster at once.
    queue_capacity: int = 256

    def budget(self, clock: Clock = time.monotonic) -> Deadline:
        return Deadline(self.budget_ms / 1000.0, clock=clock)


def hedge_delay_seconds(deadline: Deadline, fraction: float) -> float:
    """How long to wait on a primary before hedging to a replica.

    The tail-at-scale recipe: fire the backup request after a fixed
    fraction of the request's *remaining* budget. Deriving the delay from
    the deadline (not a constant) means a request that arrives with most
    of its budget already burned hedges sooner — the hedge exists to
    protect the SLA, so it scales with what is left of it.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("hedge fraction must be in (0, 1)")
    return deadline.remaining() * fraction


# -- circuit breaker ---------------------------------------------------------


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@guarded_by(
    "_lock",
    "_window",
    "_state",
    "_opened_at",
    "_probe_in_flight",
    "short_circuits",
)
class CircuitBreaker:
    """Failure-rate circuit breaker with a half-open probe.

    CLOSED: calls flow; outcomes feed a sliding window. When the window
    holds at least ``min_calls`` outcomes and the failure rate reaches
    ``failure_threshold``, the breaker OPENs.

    OPEN: every call is short-circuited (no budget spent) until
    ``probe_seconds`` have passed, then the breaker turns HALF_OPEN.

    HALF_OPEN: exactly one probe call is let through; success closes the
    breaker (window reset), failure re-opens it for another cool-down.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        probe_seconds: float = 5.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window < 1 or min_calls < 1:
            raise ValueError("window and min_calls must be >= 1")
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.probe_seconds = probe_seconds
        self._clock = clock
        self._window: deque[bool] = deque(maxlen=window)
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._lock = threading.Lock()
        self.short_circuits = 0

    @classmethod
    def from_policy(
        cls, policy: ResiliencePolicy, clock: Clock = time.monotonic
    ) -> "CircuitBreaker":
        return cls(
            failure_threshold=policy.breaker_failure_threshold,
            window=policy.breaker_window,
            min_calls=policy.breaker_min_calls,
            probe_seconds=policy.breaker_probe_seconds,
            clock=clock,
        )

    @property
    def state(self) -> BreakerState:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """May a call proceed right now? (Counts short-circuits.)

        A closed breaker answers without its lock: reading one reference
        is atomic, a closed breaker has no probe slot to claim and no
        short-circuit to count, and a trip that lands just after the read
        lets through one call that a moment earlier would have passed
        anyway. Every other state is decided under the lock.
        """
        if self._state is BreakerState.CLOSED:  # serenade: ignore[SRN004] one atomic read
            return True
        with self._lock:
            self._maybe_half_open()
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._state = BreakerState.CLOSED
                self._window.clear()
                self._probe_in_flight = False
                return
            self._window.append(True)

    def cancel(self) -> None:
        """The allowed call never ran (e.g. no budget): release the probe
        slot without recording an outcome — the model's health is unknown."""
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._trip()
                return
            self._window.append(False)
            if len(self._window) >= self.min_calls:
                failures = sum(1 for ok in self._window if not ok)
                if failures / len(self._window) >= self.failure_threshold:
                    self._trip()

    @holds_lock("_lock")
    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False
        self._window.clear()

    @holds_lock("_lock")
    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() >= self._opened_at + self.probe_seconds
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_in_flight = False


# -- fallback recommenders ---------------------------------------------------


class StaticRecommender:
    """A precomputed ranked list; the chain's always-available terminal.

    This is the in-process equivalent of the paper routing hard failures
    to static business rules: zero computation, just a slice of a list
    (minus items already in the session).
    """

    name = "static-rules"

    def __init__(self, ranked: Sequence[ScoredItem] = ()) -> None:
        self._ranked: tuple[ScoredItem, ...] = tuple(ranked)

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        if not session_items:
            return list(self._ranked[:how_many])
        current = set(session_items)
        return [s for s in self._ranked if s.item_id not in current][:how_many]

    def recommend_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        return batch_via_loop(self, sessions, how_many=how_many)


def popularity_from_index(
    index: SessionIndex | ColumnarSessionIndex, how_many: int = 100
) -> StaticRecommender:
    """A popularity fallback derived from the index's session frequencies.

    The per-item session counts ``h_i`` are exactly the data a popularity
    baseline trains on (Ludewig & Jannach show popularity/co-occurrence
    are strong cheap predictors), and they ship with every built index in
    either layout — no separate training pass, no click log needed at
    serving time.
    """
    if isinstance(index, ColumnarSessionIndex):
        counts = list(zip(index.item_ids.tolist(), index.item_frequencies.tolist()))
    else:
        counts = list(index.item_session_counts.items())
    total = sum(count for _, count in counts) or 1
    ranked = [
        ScoredItem(item, count / total)
        for item, count in sorted(counts, key=lambda kv: (-kv[1], kv[0]))[:how_many]
    ]
    return StaticRecommender(ranked)


# -- the fallback chain ------------------------------------------------------


@dataclass
class FallbackStage:
    """One model in the chain, guarded by its own breaker."""

    name: str
    recommender: SessionRecommender
    breaker: CircuitBreaker

    #: running counters (reads are monitoring-only; single writer per call)
    calls: int = 0
    successes: int = 0
    failures: int = 0
    timeouts: int = 0


class StageOutcome(NamedTuple):
    """How one request made it through the chain: what the chain and a
    pod's ``predict`` return, so the answer and how it was reached travel
    together (a tuple: built in one step, immutable once returned)."""

    items: list[ScoredItem]
    stage: str
    degraded: bool
    deadline_exceeded: bool = False
    errors: int = 0


@dataclass
class ResilienceCounters:
    """Aggregated guardrail counters for one chain."""

    requests: int = 0
    degraded_requests: int = 0
    deadline_timeouts: int = 0
    stage_errors: int = 0
    breaker_short_circuits: int = 0
    served_by_stage: dict[str, int] = field(default_factory=dict)


class FallbackChain:
    """Ordered degradation: try each stage under the remaining budget.

    Every stage runs on the calling (request) thread. A stage starts only
    while budget beyond the reserve remains, and the budget is checked
    again when it returns: an answer that arrived past the reserve is
    discarded, counted as a timeout and fed to the stage's breaker as a
    failure. The terminal stage must be effectively free; it is the floor
    that makes the chain total.
    """

    def __init__(
        self,
        stages: Sequence[FallbackStage],
        terminal: SessionRecommender,
        reserve_seconds: float = 0.008,
        clock: Clock = time.monotonic,
    ) -> None:
        if not stages:
            raise ValueError("a fallback chain needs at least one stage")
        self.stages: list[FallbackStage] = list(stages)
        self.terminal = terminal
        self.terminal_name = getattr(terminal, "name", "static-rules")
        self.reserve_seconds = reserve_seconds
        self._clock = clock

    def run(
        self,
        session_items: Sequence[ItemId],
        how_many: int,
        deadline: Deadline,
    ) -> StageOutcome:
        """Serve one request, degrading through the chain as needed.

        While the primary's breaker is closed this is one pass: a budget
        check, the primary's call, a budget check, a success recorded.
        """
        reserve = self.reserve_seconds
        errors = 0
        deadline_exceeded = False
        for position, stage in enumerate(self.stages):
            breaker = stage.breaker
            if not breaker.allow():
                continue
            if deadline.remaining() <= reserve:
                # Budget gone before this stage could start; not the
                # model's fault, so no breaker outcome is recorded.
                breaker.cancel()
                deadline_exceeded = True
                break
            stage.calls += 1
            try:
                result = stage.recommender.recommend(session_items, how_many)
            except Exception:
                stage.failures += 1
                errors += 1
                breaker.record_failure()
                continue
            # The stage cannot be abandoned mid-call, so an overrun is
            # detected after it: the stage took too long iff it burned the
            # budget down past the reserve.
            if deadline.remaining() < reserve:
                stage.timeouts += 1
                breaker.record_failure()
                deadline_exceeded = True
                continue
            stage.successes += 1
            breaker.record_success()
            return StageOutcome(
                result, stage.name, position > 0, deadline_exceeded, errors
            )
        # Terminal: effectively free, always answers.
        try:
            result = self.terminal.recommend(session_items, how_many=how_many)
        except Exception:
            errors += 1
            result = []
        return StageOutcome(
            result, self.terminal_name, True, deadline_exceeded, errors
        )

    def breaker_states(self) -> dict[str, BreakerState]:
        return {stage.name: stage.breaker.state for stage in self.stages}

    def close(self) -> None:
        """Close the stage recommenders that own resources (a primary's
        result cache must not outlive the index it was computed from)."""
        for stage in self.stages:
            close = getattr(stage.recommender, "close", None)
            if callable(close):
                close()


@guarded_by("_lock", "counters")
class ResilientRecommender:
    """The deadline-budget wrapper installed as a pod's recommender.

    :meth:`run` is what a pod's ``predict`` calls: it takes the request's
    one :class:`Deadline` and returns the :class:`StageOutcome`, so the
    response is annotated from the value the call returned. It also
    satisfies :class:`~repro.core.predictor.SessionRecommender`
    (:meth:`recommend` mints a deadline from the policy and returns the
    items alone), so it can stand in wherever a model can.
    """

    def __init__(
        self,
        chain: FallbackChain,
        policy: ResiliencePolicy | None = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self.chain = chain
        self.policy = policy or ResiliencePolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self.counters = ResilienceCounters()

    @property
    def primary(self) -> SessionRecommender:
        """The first stage's recommender (for cache introspection)."""
        return self.chain.stages[0].recommender

    def run(
        self,
        session_items: Sequence[ItemId],
        how_many: int,
        deadline: Deadline,
    ) -> StageOutcome:
        """Serve one request through the chain under ``deadline``."""
        outcome = self.chain.run(session_items, how_many, deadline)
        stage = outcome.stage
        with self._lock:
            counters = self.counters
            counters.requests += 1
            if outcome.degraded:
                counters.degraded_requests += 1
            if outcome.deadline_exceeded:
                counters.deadline_timeouts += 1
            if outcome.errors:
                counters.stage_errors += outcome.errors
            served = counters.served_by_stage
            served[stage] = served.get(stage, 0) + 1
        return outcome

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        return self.run(session_items, how_many, self.policy.budget(self._clock)).items

    def recommend_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        return batch_via_loop(self, sessions, how_many=how_many)

    def breaker_states(self) -> dict[str, BreakerState]:
        return self.chain.breaker_states()

    def info(self) -> dict[str, float]:
        """Counter snapshot including breaker short-circuits."""
        with self._lock:
            counters = self.counters
            info = {
                "requests": counters.requests,
                "degraded_requests": counters.degraded_requests,
                "deadline_timeouts": counters.deadline_timeouts,
                "stage_errors": counters.stage_errors,
                "served_by_stage": dict(counters.served_by_stage),
            }
        info["breaker_short_circuits"] = sum(
            stage.breaker.short_circuits for stage in self.chain.stages
        )
        return info

    def close(self) -> None:
        self.chain.close()


# -- admission control / load shedding ---------------------------------------


class AdmissionToken:
    """One admitted request's place in the bounded queue.

    ``shed`` is set by the controller (under its lock) when the token is
    pushed out of the queue; its owner reads it once, right after
    :meth:`AdmissionController.submit`.
    """

    __slots__ = ("session_key", "shed")

    def __init__(self, session_key: str) -> None:
        self.session_key = session_key
        self.shed = False


@guarded_by("_lock", "_queue", "capacity", "shed_count", "admitted_count")
class AdmissionController:
    """A bounded queue in front of the cluster, shedding oldest-first.

    Every request obtains a token before any work happens and releases it
    when done. When the queue exceeds ``capacity``, the *oldest* waiting
    token is marked shed: it has been inside the system longest, so it is
    the least likely to still meet its SLA — turning it into an immediate
    429 frees budget for requests that can. A shed token's owner observes
    ``token.shed`` at its next checkpoint and aborts with
    :class:`Overloaded`.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[AdmissionToken] = deque()
        self._lock = threading.Lock()
        self.shed_count = 0
        self.admitted_count = 0

    def submit(self, session_key: str) -> AdmissionToken:
        """Enter the queue; may shed older requests (or this one) to fit."""
        token = AdmissionToken(session_key)
        with self._lock:
            self._queue.append(token)
            self.admitted_count += 1
            while len(self._queue) > self.capacity:
                oldest = self._queue.popleft()
                oldest.shed = True
                self.shed_count += 1
        return token

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (streaming backpressure drives this).

        Shrinking below the current queue depth sheds oldest-first
        immediately, exactly as :meth:`submit` would — backpressure from
        a lagging index consumer turns into fast 429s rather than stale
        recommendations.
        """
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self.capacity = capacity
            while len(self._queue) > self.capacity:
                oldest = self._queue.popleft()
                oldest.shed = True
                self.shed_count += 1

    def release(self, token: AdmissionToken) -> None:
        with self._lock:
            try:
                self._queue.remove(token)
            except ValueError:
                pass  # already shed out of the queue

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._queue)

    def info(self) -> dict[str, float]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "inflight": len(self._queue),
                "shed": self.shed_count,
                "admitted": self.admitted_count,
            }
