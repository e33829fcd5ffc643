"""The stateful recommendation server (one Serenade pod, §4.1-4.2).

A :class:`RecommendationServer` owns a replica of the session-similarity
index (wrapped in a recommender), a colocated :class:`SessionStore` for
the evolving sessions of the users routed to it, and the business-rule
engine. Handling a request is the paper's steps 2 and 3 in Figure 1:
update the evolving session in the local store, run VMIS-kNN over the
variant's view of the session, apply business rules, return 21 items.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.deadline import Deadline
from repro.core.predictor import SessionRecommender
from repro.core.types import ItemId, ScoredItem
from repro.kvstore.store import Clock
from repro.serving.resilience import ResilientRecommender
from repro.serving.rules import BusinessRules
from repro.serving.session_store import SessionStore
from repro.serving.variants import ServingVariant, session_view

SleepFn = Callable[[float], None]

FRONTEND_SLOT_SIZE = 21  # items required by the product-detail-page UI
OVERFETCH_FACTOR = 2  # fetch extra so business rules, when there are any, can drop some
SERVICE_TIME_WINDOW = 10_000  # service times a pod keeps for percentiles


@dataclass(frozen=True)
class RecommendationRequest:
    """One frontend call: a session update plus a recommendation ask."""

    session_key: str
    item_id: ItemId
    consent: bool = True
    variant: ServingVariant = ServingVariant.HIST
    how_many: int = FRONTEND_SLOT_SIZE


@dataclass(frozen=True)
class RecommendationResponse:
    """The server's answer, including the measured compute time.

    ``degraded``/``served_stage`` report how the guardrail layer answered:
    ``primary`` means the full model ran inside its budget; any other
    stage name means a fallback served the request.
    """

    session_key: str
    items: tuple[ScoredItem, ...]
    served_by: str
    service_seconds: float
    degraded: bool = False
    served_stage: str = "primary"


@dataclass
class ServerStats:
    """Running counters for one pod.

    ``store_seconds`` vs ``predict_seconds`` decomposes the request time
    into the session read-modify-write against the local KV store and the
    VMIS-kNN prediction — the measurement behind the paper's colocation
    argument (§4.2: local session access is microseconds, so prediction
    dominates; a networked store at ~15 ms would dwarf it).
    """

    requests: int = 0
    depersonalised_requests: int = 0
    busy_seconds: float = 0.0
    store_seconds: float = 0.0
    predict_seconds: float = 0.0
    #: the most recent service times only: a window, so that a pod that
    #: runs for weeks holds as much as one that runs for a minute.
    service_times: deque[float] = field(
        default_factory=lambda: deque(maxlen=SERVICE_TIME_WINDOW)
    )


class RecommendationServer:
    """One stateful serving pod."""

    def __init__(
        self,
        pod_id: str,
        recommender: SessionRecommender,
        rules: BusinessRules | None = None,
        session_ttl: float = 30 * 60,
        clock: Clock | None = None,
        wal_path: str | None = None,
        perf_clock: Clock | None = None,
        replicate_sessions: bool = False,
        stall_sleep: SleepFn | None = None,
    ) -> None:
        self.pod_id = pod_id
        self.recommender = recommender
        # ``is None``, not ``or``: an empty rule set is falsy, and the
        # caller may add to the one it passed.
        self.rules = rules if rules is not None else BusinessRules()
        self.sessions = SessionStore(
            ttl_seconds=session_ttl,
            clock=clock,
            wal_path=wal_path,
            replicate=replicate_sessions,
        )
        self.stats = ServerStats()
        # Service-time measurement clock. Injectable so the deterministic
        # simulation layer can measure *virtual* elapsed time instead of
        # real CPU time, making latency assertions exact.
        self._perf = perf_clock if perf_clock is not None else time.perf_counter
        #: chaos fault-injection knob (PodSlowdown): every prediction on
        #: this pod first stalls this long, modelling a straggler replica
        #: (GC pause, noisy neighbour). 0.0 = healthy.
        self.injected_stall_seconds = 0.0
        self._stall_sleep = stall_sleep if stall_sleep is not None else time.sleep

    def replace_recommender(self, recommender: SessionRecommender) -> None:
        """Swap in a freshly built index replica (the daily rollout).

        The outgoing recommender is closed: its result caches and worker
        pools belong to the old index, and a cached recommendation must
        not outlive the index it was computed from. Making this the
        server's job (not the caller's) keeps the invariant under every
        swap path — full rollout, staged rollout, rollback.
        """
        old = self.recommender
        self.recommender = recommender
        if old is not recommender:
            close = getattr(old, "close", None)
            if callable(close):
                close()

    def update_session(self, request: RecommendationRequest) -> list[ItemId]:
        """Step 2 of Figure 1: the session read-modify-write.

        Returns the variant's view of the (possibly updated) session —
        the input to :meth:`predict`. Exposed separately so the ring
        coordinator can run the leader's state update, replicate it, and
        only then race the prediction against a hedge.
        """
        perf = self._perf
        started = perf()
        if request.consent:
            items = self.sessions.append_click(request.session_key, request.item_id)
            visible = session_view(items, request.variant, request.item_id)
        else:
            # No consent: do not touch stored state, recommend from the
            # currently displayed item only (§4.2 depersonalisation).
            self.stats.depersonalised_requests += 1
            visible = session_view(
                [], ServingVariant.DEPERSONALISED, request.item_id
            )
        self.stats.store_seconds += perf() - started
        return visible

    def predict(
        self,
        visible: list[ItemId],
        how_many: int,
        deadline: Deadline | None = None,
    ) -> tuple[list[ScoredItem], bool, str]:
        """Step 3: model + business rules over a session view.

        Honours an injected chaos stall first (a straggler pod is slow at
        *prediction*, not at its local state read). Returns the final item
        list plus the ``(degraded, stage)`` annotation from the guardrail
        layer. A caller-supplied deadline is propagated to a resilient
        recommender so hedged follower calls run under the *remaining*
        request budget instead of a fresh one.
        """
        perf = self._perf
        started = perf()
        if self.injected_stall_seconds > 0.0:
            self._stall_sleep(self.injected_stall_seconds)
        # Read per request: rules can be added to a live pod. Every stage
        # ranks deterministically, so with nothing to drop its top n are
        # the first n of its top 2n.
        fetch = how_many * OVERFETCH_FACTOR if len(self.rules) > 0 else how_many
        if isinstance(self.recommender, ResilientRecommender):
            raw = self.recommender.recommend(
                visible, how_many=fetch, deadline=deadline
            )
        else:
            raw = self.recommender.recommend(visible, how_many=fetch)
        final = self.rules.apply(raw, visible, how_many)
        self.stats.predict_seconds += perf() - started
        # When the resilience layer wraps the recommender, annotate the
        # response with how the request was actually served.
        degraded, stage = False, "primary"
        outcome_probe = getattr(self.recommender, "last_outcome", None)
        if callable(outcome_probe):
            outcome = outcome_probe()
            if outcome is not None:
                degraded, stage = outcome.degraded, outcome.stage
        return final, degraded, stage

    def record_service(self, elapsed: float) -> None:
        """Account one served request against this pod's counters."""
        self.stats.requests += 1
        self.stats.busy_seconds += elapsed
        self.stats.service_times.append(elapsed)

    def handle(self, request: RecommendationRequest) -> RecommendationResponse:
        """Process one request: update state, predict, filter."""
        perf = self._perf
        started = perf()
        visible = self.update_session(request)
        final, degraded, stage = self.predict(visible, request.how_many)
        elapsed = perf() - started
        self.record_service(elapsed)
        return RecommendationResponse(
            session_key=request.session_key,
            items=tuple(final),
            served_by=self.pod_id,
            service_seconds=elapsed,
            degraded=degraded,
            served_stage=stage,
        )

    def revoke_consent(self, session_key: str) -> None:
        """Forget a session when the user revokes personalisation consent."""
        self.sessions.drop_session(session_key)
