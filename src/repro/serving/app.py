"""The Serenade application: a routed cluster of stateful pods (Figure 1).

``ServingCluster`` wires a consistent-hash ring to a set of
:class:`RecommendationServer` pods that each hold a replica of the session
similarity index. It is the in-process equivalent of the Kubernetes
deployment: the shop frontend calls :meth:`handle`, the ring names the
pod leading the session, and the pod answers from machine-local state.
There is one request path, :class:`~repro.serving.ring.RingCoordinator`;
the paper's sticky routing is that path at replication factor 1.

Two batch-engine integrations sit on top of the Figure 1 path:

* ``cache_size > 0`` wraps every pod's recommender in a
  :class:`~repro.core.batch.BatchPredictionEngine` so the single-query
  path answers hot sessions from the LRU result cache;
* :meth:`handle_batch` serves whole batches of raw sessions (offline
  consumers: email campaigns, cache warmers, evaluation replays) through
  a cluster-level engine, bypassing the ring and the per-user session
  stores.

SLA guardrails (:mod:`repro.serving.resilience`) are opt-in via a
:class:`~repro.serving.resilience.ResiliencePolicy`:

* every pod's recommender is wrapped in a deadline-budgeted
  :class:`~repro.serving.resilience.ResilientRecommender` with a fallback
  chain and per-stage circuit breakers;
* :meth:`handle` runs behind an
  :class:`~repro.serving.resilience.AdmissionController` that sheds
  oldest-first with :class:`~repro.serving.resilience.Overloaded` (a 429)
  when the cluster is saturated;
* with a ``wal_dir``, each pod's session store writes a WAL and a
  restarted pod (:meth:`restart_pod`) recovers its evolving sessions.

With or without guardrails, requests routed to a pod that died without
deregistering are re-routed over the surviving pods (the ring is healed
lazily, the way a health check would).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.batch import BatchPredictionEngine
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.predictor import SessionRecommender
from repro.core.types import ItemId, ScoredItem
from repro.core.vmis import VMISKNN
from repro.kvstore.store import Clock
from repro.serving.resilience import (
    AdmissionController,
    CircuitBreaker,
    FallbackChain,
    FallbackStage,
    ResiliencePolicy,
    ResilientRecommender,
    StaticRecommender,
    popularity_from_index,
)
from repro.serving.ring import HashRing, ReplicationPolicy, RingCoordinator
from repro.serving.rules import BusinessRules
from repro.serving.server import (
    RecommendationRequest,
    RecommendationResponse,
    RecommendationServer,
)

RecommenderFactory = Callable[[], SessionRecommender]


class ServingCluster:
    """A fleet of stateful recommendation servers behind the shard ring."""

    def __init__(
        self,
        recommender_factory: RecommenderFactory,
        num_pods: int = 2,
        rules: BusinessRules | None = None,
        clock: Clock | None = None,
        cache_size: int = 0,
        resilience: ResiliencePolicy | None = None,
        fallback_factory: RecommenderFactory | None = None,
        static_items: Sequence[ScoredItem] = (),
        wal_dir: str | Path | None = None,
        index_version: str | None = None,
        replication: ReplicationPolicy | None = None,
    ) -> None:
        """Build the cluster.

        Args:
            recommender_factory: called once per pod — every pod holds its
                *own replica* of the index, the paper's replication choice.
            num_pods: pod count (the production deployment uses two).
            rules: business rules shared by all pods.
            clock: the cluster's time source: session TTLs, service-time
                measurement and the guardrail machinery (deadlines,
                breakers). ``None`` keeps the real clocks (monotonic, and
                ``perf_counter`` for service times); deterministic tests
                inject a :class:`~repro.testing.clock.VirtualClock` here,
                which the chaos injector paces to each arrival.
            cache_size: per-pod LRU result cache capacity on the
                single-query path; 0 disables caching (seed behaviour).
            resilience: enable the SLA guardrail layer with this policy;
                ``None`` keeps the raw path (seed behaviour).
            fallback_factory: builds the mid-chain degraded-mode model per
                pod (e.g. popularity); only used when ``resilience`` is on.
            static_items: the terminal static ranked list; only used when
                ``resilience`` is on.
            wal_dir: directory for per-pod session WALs; ``None`` keeps
                sessions memory-only (a crash loses them, §4.2).
            index_version: label of the index version the factory builds
                (e.g. a registry version id); surfaced per pod in
                ``rollout_info()`` and ``/metrics``.
            replication: the ring's policy: each session gets one leader
                and R-1 followers on the consistent-hash ring, leader
                appends tail-ship to the followers, leader death promotes
                an in-sync follower, and slow leaders are hedged against
                a follower within the deadline budget. ``None`` is
                single-copy sticky routing, the ring at R = 1, with the
                resilience policy's deadline budget when there is one.
        """
        if num_pods < 1:
            raise ValueError("num_pods must be >= 1")
        self._factory = recommender_factory
        if replication is None:
            replication = ReplicationPolicy(
                replication_factor=1,
                budget_ms=(
                    resilience.budget_ms
                    if resilience is not None
                    else ReplicationPolicy.budget_ms
                ),
            )
        self.replication = replication
        #: session key -> pod placement; the coordinator heals it.
        self.router = HashRing(virtual_nodes=replication.virtual_nodes)
        self.pods: dict[str, RecommendationServer] = {}
        self._cache_size = cache_size
        self._batch_engine: BatchPredictionEngine | None = None
        self.resilience = resilience
        self._fallback_factory = fallback_factory
        self._static_items = tuple(static_items)
        self._clock = clock
        self._guard_clock: Clock = clock if clock is not None else time.monotonic
        self.wal_dir = Path(wal_dir) if wal_dir is not None else None
        if self.wal_dir is not None:
            self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.admission: AdmissionController | None = (
            AdmissionController(resilience.queue_capacity)
            if resilience is not None
            else None
        )
        self.recovered_sessions = 0
        self.rerouted_requests = 0
        #: optional streaming ingestion pipeline (see repro.streaming);
        #: attached via :meth:`attach_streaming`, surfaced in /healthz
        #: and /metrics, and allowed to resize admission under lag.
        self.streaming: Any | None = None
        # -- index lifecycle state (see repro.index.lifecycle.rollout) --
        #: the committed version label: what new/restarted pods load.
        self.index_version = index_version
        #: which version each live pod is actually serving.
        self.pod_versions: dict[str, str | None] = {}
        #: completed automatic rollbacks (exported at /metrics).
        self.rollback_count = 0
        #: "idle" | "canary" | "rolling" | "completed" | "rolled_back".
        self.rollout_state = "idle"
        self._rules = rules
        #: the request path: admits, routes, heals, replicates and hedges.
        self.coordinator = RingCoordinator(self, replication, perf_clock=clock)
        for pod_number in range(num_pods):
            self._spawn_pod(f"pod-{pod_number}")
        #: the pods' cap on stored history; handle_batch applies the same.
        self._session_cap = next(iter(self.pods.values())).sessions.max_items

    @property
    def committed_factory(self) -> RecommenderFactory:
        """The factory new and restarted pods currently build from."""
        return self._factory

    def _pod_recommender(
        self, base_factory: RecommenderFactory | None = None
    ) -> SessionRecommender:
        """One pod's recommender: cache-wrapped, then guardrail-wrapped."""
        recommender = (base_factory or self._factory)()
        if self._cache_size > 0:
            recommender = BatchPredictionEngine(
                recommender, cache_size=self._cache_size
            )
        if self.resilience is not None:
            recommender = ResilientRecommender(
                self._build_chain(recommender),
                self.resilience,
                clock=self._guard_clock,
            )
        return recommender

    def _build_chain(self, primary: SessionRecommender) -> FallbackChain:
        policy = self.resilience
        assert policy is not None
        clock = self._guard_clock
        stages = [
            FallbackStage(
                "primary", primary, CircuitBreaker.from_policy(policy, clock)
            )
        ]
        if self._fallback_factory is not None:
            stages.append(
                FallbackStage(
                    "fallback",
                    self._fallback_factory(),
                    CircuitBreaker.from_policy(policy, clock),
                )
            )
        return FallbackChain(
            stages,
            terminal=StaticRecommender(self._static_items),
            reserve_seconds=policy.fallback_reserve_ms / 1000.0,
            clock=clock,
        )

    def _pod_wal_path(self, pod_id: str) -> str | None:
        if self.wal_dir is None:
            return None
        return str(self.wal_dir / f"{pod_id}.wal")

    def _spawn_pod(self, pod_id: str) -> None:
        server = RecommendationServer(
            pod_id,
            self._pod_recommender(),
            rules=self._rules,
            clock=self._clock,
            wal_path=self._pod_wal_path(pod_id),
            # A replication log with no follower to ship to only grows.
            replicate_sessions=self.replication.replication_factor > 1,
            # Chaos stalls must burn *virtual* time when a virtual clock
            # is injected, so the hedge race stays deterministic.
            stall_sleep=getattr(self._clock, "sleep", None),
        )
        self.pods[pod_id] = server
        self.pod_versions[pod_id] = self.index_version
        # A crashed pod may have died without deregistering; its ring entry
        # is still there and must not be duplicated on restart.
        if pod_id not in self.router:
            self.router.add_pod(pod_id)

    @classmethod
    def with_index(
        cls,
        index: SessionIndex | ColumnarSessionIndex,
        num_pods: int = 2,
        m: int = 500,
        k: int = 100,
        engine: str = "columnar",
        **kwargs: Any,
    ) -> "ServingCluster":
        """Cluster of VMIS-kNN pods sharing one prebuilt index object.

        In production every pod loads its own copy; in-process we can share
        the immutable index structure safely. ``engine`` selects the
        scorer: ``"columnar"`` (default) serves through the vectorized
        scorer over a frozen
        :class:`~repro.core.colindex.ColumnarSessionIndex`, taken as it is
        or converted once from a :class:`SessionIndex`; ``"heap"`` keeps
        the original per-item-heap :class:`~repro.core.vmis.VMISKNN` — the
        differential oracle, bit-identical by contract. When a
        :class:`ResiliencePolicy` is passed, the fallback chain is derived
        from the same index: VMIS-kNN → index popularity → static top list.
        """
        if kwargs.get("resilience") is not None:
            popularity = popularity_from_index(index)
            kwargs.setdefault("fallback_factory", lambda: popularity)
            kwargs.setdefault(
                "static_items", popularity.recommend([], how_many=50)
            )
        if engine == "columnar":
            columnar = (
                index
                if isinstance(index, ColumnarSessionIndex)
                else ColumnarSessionIndex.from_session_index(index)
            )
            factory: RecommenderFactory = lambda: VMISKNNColumnar(
                columnar, m=m, k=k, exclude_current_items=True
            )
        elif engine == "heap":
            rows = (
                index.to_session_index()
                if isinstance(index, ColumnarSessionIndex)
                else index
            )
            factory = lambda: VMISKNN(
                rows, m=m, k=k, exclude_current_items=True
            )
        else:
            raise ValueError(
                f"unknown engine {engine!r}; expected 'columnar' or 'heap'"
            )
        return cls(factory, num_pods=num_pods, **kwargs)

    # -- request path --------------------------------------------------------

    def route_live(self, session_key: str) -> str:
        """The live pod leading this session, healing the ring as needed
        (see :meth:`RingCoordinator.live_preferences`)."""
        return self.coordinator.live_preferences(session_key)[0]

    def handle(self, request: RecommendationRequest) -> RecommendationResponse:
        """Serve a frontend request on the pod leading its session.

        The one request path is :meth:`RingCoordinator.handle`: with
        guardrails on, the request first takes a slot in the bounded
        admission queue, and if the cluster is saturated the oldest
        queued request (possibly this one) is shed with
        :class:`Overloaded`.
        """
        return self.coordinator.handle(request)

    def handle_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        """Serve a batch of raw evolving sessions through the batch engine.

        Unlike :meth:`handle`, this does not touch per-user session state
        or business rules — it is the bulk prediction surface, returning
        one ranked list per input session in order. The batch is scored
        on the calling (request) thread. A session is cut to the most
        recent clicks a pod's :class:`SessionStore` would have kept of
        it, so both endpoints score the same view of the same history
        and a request body cannot size the scorer's work.
        """
        cap = self._session_cap
        return self.batch_engine().recommend_batch(
            [
                items[-cap:] if len(items) > cap else items
                for items in sessions
            ],
            how_many=how_many,
        )

    def batch_engine(self) -> BatchPredictionEngine:
        """The lazily built cluster-level batch engine.

        It scores on the calling thread and buys the LRU cache and
        intra-batch deduplication.
        """
        if self._batch_engine is None:
            self._batch_engine = BatchPredictionEngine(
                self._factory(), cache_size=self._cache_size or 4096
            )
        return self._batch_engine

    # -- failure injection / recovery ----------------------------------------

    def kill_pod(self, pod_id: str) -> RecommendationServer:
        """Abruptly kill a pod (machine failure).

        The pod is dropped without deregistering from the ring — a dead
        machine does not announce its death — and without closing its
        session store, so buffered-but-unflushed state behaves exactly as
        a crash would leave it. Returns the dead server for inspection.
        """
        if pod_id not in self.pods:
            raise ValueError(f"cannot kill unknown pod {pod_id!r}")
        self.pod_versions.pop(pod_id, None)
        return self.pods.pop(pod_id)

    def restart_pod(self, pod_id: str) -> RecommendationServer:
        """Restart a killed pod on the same volume.

        With a ``wal_dir``, the fresh session store replays the pod's WAL
        and recovers every evolving session the crash did not lose —
        those are what ``recovered_sessions`` counts; without one nothing
        comes back from disk. Either way the pod's virtual points are
        back on the ring, so the sessions in its segments that the
        survivors kept serving move onto it (a superset of the paper's
        "state dies with the pod"). Returns the new server.
        """
        if pod_id in self.pods:
            raise ValueError(f"pod {pod_id!r} is already running")
        self._spawn_pod(pod_id)
        server = self.pods[pod_id]
        self.recovered_sessions += len(server.sessions)
        self.coordinator.rebalance()
        return server

    def scale_to(self, num_pods: int) -> None:
        """Elastically add/remove pods. Scale-up triggers a
        minimal-movement rebalance onto the new pods. Planned scale-down
        is graceful: the pod deregisters, drains every session to its
        new owners, and only then deletes its WAL (the paper, §4.2,
        accepts losing those sessions; here they move)."""
        if num_pods < 1:
            raise ValueError("num_pods must be >= 1")
        current = len(self.pods)
        for pod_number in range(current, num_pods):
            self._spawn_pod(f"pod-{pod_number}")
        if num_pods > current:
            self.coordinator.rebalance()
        for pod_number in range(num_pods, current):
            pod_id = f"pod-{pod_number}"
            # Drain-then-delete: hand the sessions to the new owners
            # first, only then close and delete the store.
            self.coordinator.decommission(pod_id)
            server = self.pods.pop(pod_id)
            self.pod_versions.pop(pod_id, None)
            server.sessions.close(delete_wal=True)
            self._close_recommender(server.recommender)

    def commit_index(
        self, recommender_factory: RecommenderFactory, version: str | None = None
    ) -> None:
        """Make ``recommender_factory`` the cluster's committed index.

        New pods (scale-up) and restarted pods build from the committed
        factory, so after a commit the fleet *converges* to this version
        regardless of kills and restarts mid-rollout. The cluster batch
        engine belongs to the previous index and is dropped.
        """
        self._factory = recommender_factory
        self.index_version = version
        if self._batch_engine is not None:
            self._batch_engine.close()
            self._batch_engine = None

    def swap_pod_recommender(
        self,
        pod_id: str,
        recommender_factory: RecommenderFactory | None = None,
        version: str | None = None,
    ) -> None:
        """Swap one pod onto a new index replica (one rollout step).

        The pod's result caches are invalidated with the swap (the old
        recommender is closed by ``replace_recommender``) — cached
        recommendations must not outlive the index they came from. With
        no explicit factory the committed one is used.
        """
        if pod_id not in self.pods:
            raise ValueError(f"cannot swap unknown pod {pod_id!r}")
        factory = recommender_factory or self._factory
        self.pods[pod_id].replace_recommender(self._pod_recommender(factory))
        self.pod_versions[pod_id] = (
            version if recommender_factory is not None else self.index_version
        )

    def rollout_index(
        self, recommender_factory: RecommenderFactory, version: str | None = None
    ) -> None:
        """Replicate a freshly built index to every pod (daily refresh).

        The all-at-once path: commit the factory and swap every pod.
        Cached results and the batch engine belong to the old index, so
        both are dropped — stale recommendations must not outlive it.
        For the canary-gated staged path, see
        :class:`repro.index.lifecycle.rollout.RolloutController`.
        """
        self.commit_index(recommender_factory, version)
        for pod_id in list(self.pods):
            self.swap_pod_recommender(pod_id)

    @staticmethod
    def _close_recommender(recommender: SessionRecommender) -> None:
        close = getattr(recommender, "close", None)
        if callable(close):
            close()

    def close(self) -> None:
        """Drop every pod's cached results and the batch path's (idempotent).

        The cluster stays usable: the caches refill as requests come in.
        Session stores are left open; they belong to the pods' lifecycle.
        """
        for server in self.pods.values():
            self._close_recommender(server.recommender)
        if self._batch_engine is not None:
            self._batch_engine.close()

    # -- streaming ingestion -------------------------------------------------

    def attach_streaming(self, pipeline: Any) -> None:
        """Attach a :class:`~repro.streaming.pipeline.StreamingIndexer`.

        The pipeline's consumer lag then shows up in ``/metrics`` and
        ``/healthz``; when the cluster has an admission controller, the
        pipeline should have been built with ``admission=cluster.admission``
        so lag feeds backpressure into the serving path.
        """
        self.streaming = pipeline

    def streaming_info(self) -> dict:
        """Streaming ingestion health for ``/healthz`` and operators."""
        if self.streaming is None:
            return {"enabled": False}
        return {"enabled": True, **self.streaming.health()}

    # -- replication ring ----------------------------------------------------

    def partition(self, pod_a: str, pod_b: str) -> None:
        """Cut the replication link between two pods (NetworkPartition).

        Requests keep flowing to both pods; only leader→follower tail
        shipping stops, so the follower's copies of keys appended during
        the partition go stale and are fenced. At R = 1 no tail crosses
        the link, so cutting it changes nothing.
        """
        self.coordinator.partition(pod_a, pod_b)

    def heal_partition(self, pod_a: str, pod_b: str) -> None:
        """Restore a cut link; the next append ships the catch-up tail."""
        self.coordinator.heal_partition(pod_a, pod_b)

    def ring_info(self) -> dict:
        """Ring state for ``/metrics``, ``/healthz`` and operators."""
        return self.coordinator.info()

    # -- introspection -------------------------------------------------------

    def rollout_info(self) -> dict:
        """Index lifecycle state for ``/metrics`` and operators.

        ``consistent`` is True when every live pod serves the committed
        version — the convergence condition the chaos tests assert after
        a rollout survives kills and rollbacks.
        """
        versions = {
            pod_id: self.pod_versions.get(pod_id)
            for pod_id in sorted(self.pods)
        }
        distinct = {version for version in versions.values()}
        return {
            "committed_version": self.index_version,
            "pod_versions": versions,
            "rollout_state": self.rollout_state,
            "rollback_count": self.rollback_count,
            "consistent": len(distinct) <= 1
            and (not distinct or distinct == {self.index_version}),
        }

    def cache_info(self) -> dict[str, float]:
        """Aggregated result-cache counters across pods and batch engine."""
        totals = {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
        engines = []
        for server in self.pods.values():
            recommender = server.recommender
            if isinstance(recommender, ResilientRecommender):
                recommender = recommender.primary
            if isinstance(recommender, BatchPredictionEngine):
                engines.append(recommender)
        if self._batch_engine is not None:
            engines.append(self._batch_engine)
        for engine in engines:
            info = engine.cache_info()
            for field in totals:
                totals[field] += info[field]
        lookups = totals["hits"] + totals["misses"]
        return {
            **totals,
            "hit_rate": totals["hits"] / lookups if lookups else 0.0,
        }

    def resilience_info(self) -> dict:
        """Aggregated guardrail counters across pods.

        Keys mirror the ``/metrics`` series: degraded/shed request counts,
        deadline timeouts, breaker states per pod and stage, WAL-recovered
        sessions and corrupt-session reads.
        """
        info = {
            "enabled": self.resilience is not None,
            "requests": 0,
            "degraded_requests": 0,
            "deadline_timeouts": 0,
            "stage_errors": 0,
            "breaker_short_circuits": 0,
            "shed_requests": (
                self.admission.shed_count if self.admission is not None else 0
            ),
            "rerouted_requests": self.rerouted_requests,
            "recovered_sessions": self.recovered_sessions,
            "corrupt_sessions": sum(
                server.sessions.corrupt_sessions for server in self.pods.values()
            ),
            "served_by_stage": {},
            "breaker_states": {},
        }
        for pod_id, server in sorted(self.pods.items()):
            recommender = server.recommender
            if not isinstance(recommender, ResilientRecommender):
                continue
            pod_info = recommender.info()
            for key in (
                "requests",
                "degraded_requests",
                "deadline_timeouts",
                "stage_errors",
                "breaker_short_circuits",
            ):
                info[key] += pod_info[key]
            for stage, count in pod_info["served_by_stage"].items():
                info["served_by_stage"][stage] = (
                    info["served_by_stage"].get(stage, 0) + count
                )
            for stage, state in recommender.breaker_states().items():
                info["breaker_states"][f"{pod_id}/{stage}"] = state.value
        return info

    def total_requests(self) -> int:
        return sum(server.stats.requests for server in self.pods.values())

    def all_service_times(self) -> list[float]:
        """Recent service times across pods (each pod keeps a bounded
        window), for latency percentile reporting."""
        times: list[float] = []
        for server in self.pods.values():
            times.extend(server.stats.service_times)
        return times
