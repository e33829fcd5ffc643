"""The stateful recommendation server (one Serenade pod, §4.1-4.2).

A :class:`RecommendationServer` owns a replica of the session-similarity
index (wrapped in a recommender), a colocated :class:`SessionStore` for
the evolving sessions of the users routed to it, and the business-rule
engine. Its two steps are the paper's steps 2 and 3 in Figure 1:
:meth:`~RecommendationServer.update_session` updates the evolving session
in the local store, :meth:`~RecommendationServer.predict` runs VMIS-kNN
over the variant's view of it and applies the business rules. The request
path that calls them, times them and answers is
:meth:`repro.serving.ring.RingCoordinator.handle`, the same for a one-pod
cluster and a replicated ring.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.core.deadline import Deadline
from repro.core.predictor import SessionRecommender
from repro.core.types import ItemId, ScoredItem
from repro.kvstore.store import Clock
from repro.serving.resilience import ResilientRecommender, StageOutcome
from repro.serving.rules import BusinessRules
from repro.serving.session_store import SessionStore
from repro.serving.variants import ServingVariant, session_view

SleepFn = Callable[[float], None]

FRONTEND_SLOT_SIZE = 21  # items required by the product-detail-page UI
OVERFETCH_FACTOR = 2  # fetch extra so business rules, when there are any, can drop some
SERVICE_TIME_WINDOW = 10_000  # service times a pod keeps for percentiles


class RecommendationRequest(NamedTuple):
    """One frontend call: a session update plus a recommendation ask."""

    session_key: str
    item_id: ItemId
    consent: bool = True
    variant: ServingVariant = ServingVariant.HIST
    how_many: int = FRONTEND_SLOT_SIZE


class RecommendationResponse(NamedTuple):
    """The server's answer, including the measured compute time.

    ``degraded``/``served_stage`` report how the guardrail layer answered:
    ``primary`` means the full model ran inside its budget; any other
    stage name means a fallback served the request. Request and response
    are tuples: immutable, and built in one step on every request.
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
    dominates; a networked store at ~15 ms would dwarf it). The request
    path reads the clock once per boundary, so ``store_seconds`` runs from
    the request's start and also holds its admission and ring lookup.
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
    """One stateful serving pod: its index replica, store, rules, stats."""

    def __init__(
        self,
        pod_id: str,
        recommender: SessionRecommender,
        rules: BusinessRules | None = None,
        clock: Clock | None = None,
        wal_path: str | None = None,
        replicate_sessions: bool = False,
        stall_sleep: SleepFn | None = None,
    ) -> None:
        self.pod_id = pod_id
        self.recommender = recommender
        # ``is None``, not ``or``: an empty rule set is falsy, and the
        # caller may add to the one it passed.
        self.rules = rules if rules is not None else BusinessRules()
        self.sessions = SessionStore(
            clock=clock,
            wal_path=wal_path,
            replicate=replicate_sessions,
        )
        self.stats = ServerStats()
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
        the input to :meth:`predict`. Separate from it so the ring
        coordinator can run the leader's state update, replicate it, and
        only then race the prediction against a hedge.
        """
        if request.consent:
            items = self.sessions.append_click(request.session_key, request.item_id)
            return session_view(items, request.variant, request.item_id)
        # No consent: do not touch stored state, recommend from the
        # currently displayed item only (§4.2 depersonalisation).
        self.stats.depersonalised_requests += 1
        return [request.item_id]

    def predict(
        self, visible: list[ItemId], how_many: int, deadline: Deadline
    ) -> StageOutcome:
        """Step 3: model + business rules over a session view.

        Honours an injected chaos stall first (a straggler pod is slow at
        *prediction*, not at its local state read). ``deadline`` is the
        request's one budget, so a hedged follower call runs under what
        is left of it. Returns the final items with the guardrail layer's
        ``(stage, degraded)`` annotation; a pod without guardrails always
        reports its primary.
        """
        if self.injected_stall_seconds > 0.0:
            self._stall_sleep(self.injected_stall_seconds)
        recommender = self.recommender
        rules = self.rules
        # Read per request: rules can be added to a live pod. Every stage
        # ranks deterministically, so with nothing to drop its top n are
        # the first n of its top 2n.
        fetch = how_many * OVERFETCH_FACTOR if len(rules) > 0 else how_many
        if isinstance(recommender, ResilientRecommender):
            outcome = recommender.run(visible, fetch, deadline)
        else:
            items = recommender.recommend(visible, how_many=fetch)
            outcome = StageOutcome(items, "primary", False)
        if fetch == how_many:
            # Every stage answers a list of its own (a cache hit is a
            # copy), so it is served as it came.
            return outcome
        return outcome._replace(items=rules.apply(outcome.items, visible, how_many))

    def revoke_consent(self, session_key: str) -> None:
        """Forget a session when the user revokes personalisation consent."""
        self.sessions.drop_session(session_key)
