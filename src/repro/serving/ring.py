"""The shard ring: the one request path, with R copies of every session.

The paper's deployment (§4.1) pins every session to one pod via
Kubernetes session affinity. That is this ring at R = 1 — the default:
one leader per key, nothing shipped, nothing hedged. It is also the
availability weak spot of the design: kill the pod and its evolving
sessions are gone until WAL replay, and a single straggler pod owns the
p99 of every session routed to it. Raising R adds the tail-at-scale
ingredients on the same path:

* :class:`HashRing` — a consistent-hash ring with virtual nodes. Each pod
  projects ``virtual_nodes`` points onto a 64-bit circle; a session key
  is owned by the first point at or clockwise of its hash. Adding or
  removing a pod moves only the ring segments that pod's points delimit —
  the minimal-movement property routing and the rebalancer build on.
* :class:`ReplicationPolicy` — per-shard replication factor R: the first
  R distinct pods clockwise of a key form its *preference list*; the
  first is the **leader**, the rest are **followers**.
* :class:`RingCoordinator` — the request path over the ring. Session
  appends execute on the leader and replicate to followers by shipping
  the leader's :class:`~repro.serving.session_store.SessionStore`
  replication log tail (WAL-encoded records, acked byte offsets — the
  same machinery that makes crash recovery work). ``kill_pod`` on a
  leader promotes the in-sync follower at the next request for the key,
  with zero acknowledged clicks lost.

**Hedged reads.** If the leader's prediction has not come back within a
deadline-derived hedge delay (``remaining budget × hedge_fraction``, the
classic tail-at-scale recipe), the same prediction fires at a follower
and the first answer wins. On :class:`~repro.testing.clock.VirtualClock`
the race is resolved arithmetically — the effective service time is
``min(leader_elapsed, hedge_delay + follower_elapsed)`` — so hedging is
bit-deterministic under a seed.

**Fencing.** A follower cut off from its leader (``NetworkPartition``)
stops receiving the tail; every key appended during the partition is
marked *stale* on that link. A stale follower is never hedged to for a
stale key, and if it is promoted (leader dies while partitioned) its
stale sessions are dropped before it serves — a partitioned replica may
lose state (that is the paper's accepted trade-off) but never serves a
stale prefix as if it were current.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

# ``hashlib.blake2b`` is this very constructor: hashlib re-exports it from
# ``_blake2`` and never takes BLAKE2 from OpenSSL. Importing hashlib itself
# would load OpenSSL into every pod for nothing.
from _blake2 import blake2b

from repro.core.contracts import happens_before
from repro.core.deadline import Clock, Deadline
from repro.core.locking import guarded_by, holds_lock
from repro.core.types import ItemId
from repro.serving.resilience import Overloaded, hedge_delay_seconds
from repro.serving.server import (
    RecommendationRequest,
    RecommendationResponse,
    RecommendationServer,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports ring)
    from repro.serving.app import ServingCluster

#: Points each pod projects onto the ring. More points = smoother load
#: split and smaller moved segments per membership change, at O(V·P·logVP)
#: ring-maintenance cost. 128 keeps the per-pod load within ~±20% of even.
DEFAULT_VIRTUAL_NODES = 128

_RING_BITS = 64
RING_SIZE = 1 << _RING_BITS


def _hash64(data: str) -> int:
    digest = blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring with virtual nodes over a 64-bit keyspace.

    A key belongs to the pod owning the first virtual point at or
    clockwise of ``hash(key)``. The *preference list* of a key is the
    first ``n`` distinct pods encountered clockwise — replica placement
    à la Dynamo, so replicas of one shard land on distinct pods.
    """

    def __init__(self, virtual_nodes: int = DEFAULT_VIRTUAL_NODES) -> None:
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        self.virtual_nodes = virtual_nodes
        self._pods: list[str] = []  # insertion-ordered, for introspection
        self._points: list[tuple[int, str]] = []  # sorted (point, pod_id)

    # -- membership -----------------------------------------------------------

    @property
    def pods(self) -> list[str]:
        """Registered pod ids, insertion-ordered."""
        return list(self._pods)

    def __len__(self) -> int:
        return len(self._pods)

    def __contains__(self, pod_id: str) -> bool:
        return pod_id in self._pods

    def _pod_points(self, pod_id: str) -> list[int]:
        return [
            _hash64(f"{pod_id}#{replica}")
            for replica in range(self.virtual_nodes)
        ]

    def add_pod(self, pod_id: str) -> None:
        """Project the pod's virtual points onto the ring."""
        if pod_id in self._pods:
            raise ValueError(f"pod {pod_id!r} already registered")
        self._pods.append(pod_id)
        # A new list, never an in-place edit: lookups run without a lock
        # and must see either the old ring or the new one.
        self._points = sorted(
            self._points + [(point, pod_id) for point in self._pod_points(pod_id)]
        )

    def remove_pod(self, pod_id: str) -> None:
        """Withdraw the pod's points; its segments fall to their clockwise
        successors, and no other segment moves."""
        if pod_id not in self._pods:
            raise ValueError(f"pod {pod_id!r} is not registered")
        self._pods.remove(pod_id)
        self._points = [
            entry for entry in self._points if entry[1] != pod_id
        ]

    # -- lookup ---------------------------------------------------------------

    def primary(self, session_key: str) -> str:
        """The leader pod for this key."""
        return self.preference_list(session_key, 1)[0]

    def preference_list(self, session_key: str, n: int) -> list[str]:
        """The first ``n`` distinct pods clockwise of the key's point.

        Fewer than ``n`` pods registered returns them all; an empty ring
        raises ``RuntimeError``.
        """
        points = self._points  # one snapshot: membership may change under us
        if not points:
            raise RuntimeError("no pods registered")
        start = bisect.bisect_left(points, (_hash64(session_key), ""))
        prefs: list[str] = []
        total = len(points)
        for step in range(total):
            _, pod_id = points[(start + step) % total]
            if pod_id not in prefs:
                prefs.append(pod_id)
                if len(prefs) == n:
                    break
        return prefs

    # -- introspection --------------------------------------------------------

    def owned_fraction(self, pod_id: str) -> float:
        """Fraction of the keyspace whose *primary* is this pod.

        This is exactly the expected fraction of sessions that move when
        the pod joins or leaves — the bound the minimal-movement property
        test asserts against.
        """
        if pod_id not in self._pods:
            raise ValueError(f"pod {pod_id!r} is not registered")
        if len(self._pods) == 1:
            return 1.0
        owned = 0
        total = len(self._points)
        for index, (point, owner) in enumerate(self._points):
            if owner != pod_id:
                continue
            prev_point = self._points[index - 1][0]
            # Arc (prev_point, point], wrapping at index 0.
            owned += (point - prev_point) % RING_SIZE
        return owned / RING_SIZE


@dataclass(frozen=True)
class ReplicationPolicy:
    """Knobs of the ring (defaults match the paper's 50 ms SLA)."""

    #: copies per shard: one leader + R-1 followers. 1 is single-copy
    #: sticky routing (what a cluster built without a policy runs): no
    #: replication log, no hedge; healing and rebalancing still apply.
    replication_factor: int = 2
    #: virtual points per pod on the ring.
    virtual_nodes: int = DEFAULT_VIRTUAL_NODES
    #: fire a follower read when the leader is slower than the hedge delay.
    hedge_enabled: bool = True
    #: hedge delay = remaining budget × this fraction. 0.25 of a fresh
    #: 50 ms budget fires at 12.5 ms — late enough to spare followers the
    #: common case, early enough to beat a 200 ms straggler by 10x.
    hedge_fraction: float = 0.25
    #: request budget used when the caller did not bring a deadline.
    budget_ms: float = 50.0

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.virtual_nodes < 1:
            raise ValueError("virtual_nodes must be >= 1")
        if not 0.0 < self.hedge_fraction < 1.0:
            raise ValueError("hedge_fraction must be in (0, 1)")
        if self.budget_ms <= 0.0:
            raise ValueError("budget_ms must be > 0")


@dataclass
class ReplicationLink:
    """Leader→follower shipping state for one ordered pod pair."""

    leader_id: str
    follower_id: str
    #: byte offset in the leader's replication log the follower has
    #: applied; the next ship sends ``tail_bytes(acked_offset)``.
    acked_offset: int = 0
    #: True while a NetworkPartition cuts this link: nothing ships.
    partitioned: bool = False
    #: keys appended at the leader while the link was cut. The follower's
    #: copy of these is a stale prefix — fenced from hedges and dropped
    #: on promotion until the link heals and the tail catches up.
    stale_keys: set[str] = field(default_factory=set)

    def lag(self, leader_offset: int) -> int:
        return max(0, leader_offset - self.acked_offset)


@happens_before("update_session", "predict")
@guarded_by(
    "_lock",
    "hedges_fired",
    "hedge_wins",
    "fenced_hedges",
    "fenced_sessions",
    "failovers",
    "rebalanced_sessions",
    "drained_sessions",
)
class RingCoordinator:
    """The request path over a :class:`ServingCluster`'s ring.

    The coordinator owns no session state itself: leaders and followers
    are ordinary :class:`RecommendationServer` pods, and all state flows
    through their :class:`~repro.serving.session_store.SessionStore`
    replication logs. What the coordinator holds is the *link* state
    (acked offsets, partition flags, stale-key fences) and the tail
    counters exported at ``/metrics``.
    """

    def __init__(
        self,
        cluster: "ServingCluster",
        policy: ReplicationPolicy,
        perf_clock: Clock | None = None,
    ) -> None:
        self._cluster = cluster
        self.policy = policy
        self._links: dict[tuple[str, str], ReplicationLink] = {}
        self._lock = threading.Lock()
        # Injectable so hedge races resolve on virtual time in simulation.
        self._perf: Clock = (
            perf_clock if perf_clock is not None else time.perf_counter
        )
        self._budget_seconds = policy.budget_ms / 1000.0
        self.hedges_fired = 0
        self.hedge_wins = 0
        self.fenced_hedges = 0
        self.fenced_sessions = 0
        self.failovers = 0
        self.rebalanced_sessions = 0
        self.drained_sessions = 0

    # -- link state -----------------------------------------------------------

    def _link(self, leader_id: str, follower_id: str) -> ReplicationLink:
        key = (leader_id, follower_id)
        link = self._links.get(key)
        if link is None:
            # A fresh link acks from offset 0, so the first ship replays
            # the leader's snapshot + full log: a (re)joined follower
            # catches up without a dedicated bootstrap path.
            link = ReplicationLink(leader_id, follower_id)
            self._links[key] = link
        return link

    def _drop_links(self, pod_id: str) -> None:
        for key in [k for k in list(self._links) if pod_id in k]:
            del self._links[key]

    def partition(self, pod_a: str, pod_b: str) -> None:
        """Cut the replication link between two pods (both directions)."""
        for leader_id, follower_id in ((pod_a, pod_b), (pod_b, pod_a)):
            self._link(leader_id, follower_id).partitioned = True

    def heal_partition(self, pod_a: str, pod_b: str) -> None:
        """Restore the link; the next append ships the catch-up tail."""
        for key in ((pod_a, pod_b), (pod_b, pod_a)):
            link = self._links.get(key)
            if link is not None:
                link.partitioned = False

    # -- membership / failover ------------------------------------------------

    def live_preferences(self, session_key: str) -> list[str]:
        """The key's preference list over *live* pods, healing the ring.

        A pod that died abruptly (machine failure) never deregistered;
        the first request whose preference list names it discovers the
        death and takes the stale entry off the ring — consistent
        hashing guarantees only the dead pod's sessions move. The
        healthy path takes no lock.
        """
        prefs = self._cluster.router.preference_list(
            session_key, self.policy.replication_factor
        )
        live = self._cluster.pods
        for pod_id in prefs:
            if pod_id not in live:
                return self._heal(session_key)
        return prefs

    def _heal(self, session_key: str) -> list[str]:
        """Remove the key's dead pods from the ring, once per death.

        Every request that saw the same dead pod queues on the lock; the
        preference list is read again under it, so the first one in
        removes the pod and counts the death and the rest find a ring
        that is already healed. When the dead pod was the key's leader
        the next live pod is promoted; if its link to the dead leader
        had fenced stale keys, those sessions are dropped before the
        promoted pod serves.
        """
        cluster = self._cluster
        router = cluster.router
        factor = self.policy.replication_factor
        with self._lock:
            while True:
                prefs = router.preference_list(session_key, factor)
                dead = next((p for p in prefs if p not in cluster.pods), None)
                if dead is None:
                    return prefs
                router.remove_pod(dead)
                cluster.rerouted_requests += 1
                if dead == prefs[0]:
                    self.failovers += 1
                    promoted = router.primary(session_key)
                    if promoted in cluster.pods:
                        self._fence_promoted(dead, promoted)
                self._drop_links(dead)

    @holds_lock("_lock")
    def _fence_promoted(self, dead_leader: str, promoted: str) -> None:
        """Drop the promoted follower's stale sessions (fencing rule).

        Keys the dead leader appended while its link to ``promoted`` was
        partitioned exist on the follower only as a stale prefix. Serving
        that prefix as current state would silently rewind the session,
        so the copy is dropped: the session restarts empty, which is
        honest data loss instead of wrong data.
        """
        link = self._links.get((dead_leader, promoted))
        if link is None or not link.stale_keys:
            return
        store = self._cluster.pods[promoted].sessions
        for stale_key in sorted(link.stale_keys):
            if store.drop_session(stale_key):
                self.fenced_sessions += 1
        link.stale_keys.clear()

    # -- replication ----------------------------------------------------------

    def _owned_by(
        self, follower_id: str, session_key: str
    ) -> Callable[[str], bool]:
        """Which records of a tail shipped for ``session_key`` the
        follower keeps: that key (it is on its preference list) and any
        other key of the leader's log the follower also replicates."""
        router = self._cluster.router
        factor = self.policy.replication_factor

        def owns(record_key: str) -> bool:
            return record_key == session_key or follower_id in (
                router.preference_list(record_key, factor)
            )

        return owns

    def _replicate(self, prefs: list[str], session_key: str) -> None:
        """Ship the leader's log tail to each live follower of the key."""
        cluster = self._cluster
        leader_id = prefs[0]
        leader = cluster.pods[leader_id]
        for follower_id in prefs[1:]:
            follower = cluster.pods.get(follower_id)
            if follower is None:
                continue  # dead follower heals lazily at its next lookup
            link = self._link(leader_id, follower_id)
            if link.partitioned:
                link.stale_keys.add(session_key)
                continue
            tail = leader.sessions.tail_bytes(link.acked_offset)
            if tail:
                follower.sessions.apply_tail(
                    tail, key_filter=self._owned_by(follower_id, session_key)
                )
            link.acked_offset = leader.sessions.replication_offset
            # Fully caught up: everything appended during any earlier
            # partition has now shipped, so the fence lifts.
            link.stale_keys.clear()

    # -- request path ---------------------------------------------------------

    def handle(
        self,
        request: RecommendationRequest,
        deadline: Deadline | None = None,
    ) -> RecommendationResponse:
        """Serve one request: the cluster's one request path, for every R.

        In one pass: take an admission slot (when the cluster sheds), find
        the key's live leader, update the session there, ship the log tail
        to the followers, predict under the request's one
        :class:`Deadline` — hedging to a follower when the leader is slow
        — and account the service time. The deadline is minted here
        unless the caller brings one; its start is the request's start,
        and the clock is read again only after the session update and
        after the prediction.

        The hedge race is resolved arithmetically so it is exact on
        virtual clocks: the hedged response costs
        ``hedge_delay + follower_elapsed`` (the follower started late),
        and whichever of that and ``leader_elapsed`` is smaller is the
        response the caller would have seen first.
        """
        perf = self._perf
        if deadline is None:
            deadline = Deadline(self._budget_seconds, clock=perf)
        started = deadline.started
        cluster = self._cluster
        # Admission: a bounded queue that sheds oldest-first (HTTP 429).
        admission = cluster.admission
        if admission is not None:
            token = admission.submit(request.session_key)
            if token.shed:
                admission.release(token)
                raise Overloaded()
        try:
            prefs = self.live_preferences(request.session_key)
            leader = cluster.pods[prefs[0]]
            # A single-copy key (R = 1, or one pod left) has nobody to
            # ship to and nobody to hedge against.
            replicated = len(prefs) > 1
            visible = leader.update_session(request)
            if replicated and request.consent:
                self._replicate(prefs, request.session_key)
            store_done = perf()
            # The hedge delay is fixed *before* the leader runs — it
            # models the timer armed when the request is dispatched.
            hedge_delay = (
                hedge_delay_seconds(deadline, self.policy.hedge_fraction)
                if replicated and self.policy.hedge_enabled
                else None
            )
            outcome = leader.predict(visible, request.how_many, deadline)
            leader_elapsed = perf() - store_done
            stats = leader.stats
            stats.store_seconds += store_done - started
            stats.predict_seconds += leader_elapsed
            winner = leader
            effective = leader_elapsed
            if hedge_delay is not None and leader_elapsed > hedge_delay:
                follower_id = self._hedge_target(
                    prefs[0], prefs[1:], request.session_key
                )
                if follower_id is not None:
                    with self._lock:
                        self.hedges_fired += 1
                    follower = cluster.pods[follower_id]
                    hedge_started = perf()
                    hedged = follower.predict(visible, request.how_many, deadline)
                    follower_elapsed = perf() - hedge_started
                    follower.stats.predict_seconds += follower_elapsed
                    # The follower started late: its answer arrived at
                    # hedge_delay + follower_elapsed.
                    if hedge_delay + follower_elapsed < leader_elapsed:
                        with self._lock:
                            self.hedge_wins += 1
                        outcome = hedged
                        winner = follower
                        effective = hedge_delay + follower_elapsed
            elapsed = (store_done - started) + effective
            stats = winner.stats
            stats.requests += 1
            stats.busy_seconds += elapsed
            stats.service_times.append(elapsed)
            return RecommendationResponse(
                request.session_key,
                tuple(outcome.items),
                winner.pod_id,
                elapsed,
                outcome.degraded,
                outcome.stage,
            )
        finally:
            if admission is not None:
                admission.release(token)

    def _hedge_target(
        self, leader_id: str, follower_ids: list[str], session_key: str
    ) -> str | None:
        """First live follower safe to serve this key, honouring fences."""
        for follower_id in follower_ids:
            if follower_id not in self._cluster.pods:
                continue
            link = self._links.get((leader_id, follower_id))
            if link is not None and (
                link.partitioned or session_key in link.stale_keys
            ):
                with self._lock:
                    self.fenced_hedges += 1
                continue
            return follower_id
        return None

    # -- rebalancing ----------------------------------------------------------

    def rebalance(self) -> int:
        """Move session copies to match the current ring (pod join path).

        For every live session, the longest copy held anywhere is
        installed on preference-list members that lack it (snapshot +
        catch-up in one shot, since replication records are full-value
        puts), and copies on pods outside the preference list are
        dropped. Only keys whose preference list actually changed do any
        work — the consistent-hash ring guarantees that is just the keys
        in moved segments. Returns the number of copies installed.
        """
        cluster = self._cluster
        router = cluster.router
        if not router.pods:
            return 0
        holders = {
            pod_id: server.sessions.as_dict()
            for pod_id, server in cluster.pods.items()
        }
        moved = 0
        all_keys: set[str] = set()
        for sessions in holders.values():
            all_keys.update(sessions)
        for session_key in sorted(all_keys):
            prefs = [
                pod_id
                for pod_id in router.preference_list(
                    session_key, self.policy.replication_factor
                )
                if pod_id in cluster.pods
            ]
            best: list[ItemId] = []
            for sessions in holders.values():
                items = sessions.get(session_key)
                if items is not None and len(items) > len(best):
                    best = items
            for pod_id in prefs:
                current = holders[pod_id].get(session_key)
                if current is None or len(current) < len(best):
                    cluster.pods[pod_id].sessions.put_session(session_key, best)
                    moved += 1
            for pod_id, sessions in holders.items():
                if session_key in sessions and pod_id not in prefs:
                    cluster.pods[pod_id].sessions.drop_session(session_key)
        # Rebase every store's replication log onto its post-rebalance
        # live state. Without this, a fresh link's full-log resync would
        # replay pre-rebalance records — placement drops and stale puts
        # for keys that have since moved and advanced on another pod —
        # over the new owner's authoritative copy.
        for server in cluster.pods.values():
            server.sessions.snapshot()
        with self._lock:
            self.rebalanced_sessions += moved
        return moved

    def decommission(self, pod_id: str) -> int:
        """Graceful drain for planned scale-down (runs *before* deletion).

        The pod is taken off the ring first, then every session it holds
        is handed to the key's new preference-list members that lack an
        equally long copy. Only after the drain does the caller close the
        store with ``delete_wal=True`` — the drain-then-delete ordering
        the decommission regression test pins. Returns handed-off copies.
        """
        cluster = self._cluster
        server = cluster.pods[pod_id]
        if pod_id in cluster.router:
            cluster.router.remove_pod(pod_id)
        drained = 0
        sessions = server.sessions.as_dict()
        for session_key in sorted(sessions):
            items = sessions[session_key]
            if not len(cluster.router):
                break
            for target_id in cluster.router.preference_list(
                session_key, self.policy.replication_factor
            ):
                target = cluster.pods.get(target_id)
                if target is None or target_id == pod_id:
                    continue
                existing = target.sessions.get_session(session_key)
                if existing is None or len(existing) < len(items):
                    target.sessions.put_session(session_key, items)
                    drained += 1
        self._drop_links(pod_id)
        with self._lock:
            self.drained_sessions += drained
        return drained

    # -- introspection --------------------------------------------------------

    def info(self) -> dict:
        """Ring state for ``/metrics``, ``/healthz`` and the serve CLI.

        Every server exports this on every scrape, so at R = 1 it costs
        O(pods): a single-member preference list makes every entry a
        live pod holds a leader session (entries past their TTL count
        until the store sweeps them). At R > 1 telling leader from
        follower copies hashes every live session key — about 1.7 µs
        per session with the interpreter lock held.
        """
        cluster = self._cluster
        router = cluster.router
        factor = self.policy.replication_factor
        if min(factor, len(router)) <= 1:
            leader_sessions = {
                pod_id: len(server.sessions)
                for pod_id, server in cluster.pods.items()
            }
            follower_sessions = dict.fromkeys(cluster.pods, 0)
        else:
            leader_sessions = dict.fromkeys(cluster.pods, 0)
            follower_sessions = dict.fromkeys(cluster.pods, 0)
            for pod_id, server in cluster.pods.items():
                for session_key in server.sessions.session_keys():
                    prefs = router.preference_list(session_key, factor)
                    if prefs[0] == pod_id:
                        leader_sessions[pod_id] += 1
                    elif pod_id in prefs:
                        follower_sessions[pod_id] += 1
        lags: dict[str, int] = {}
        partitioned: list[str] = []
        for (leader_id, follower_id), link in sorted(self._links.items()):
            leader = cluster.pods.get(leader_id)
            if leader is None:
                continue
            label = f"{leader_id}->{follower_id}"
            lags[label] = link.lag(leader.sessions.replication_offset)
            if link.partitioned:
                partitioned.append(label)
        with self._lock:
            counters = {
                "hedges_fired": self.hedges_fired,
                "hedge_wins": self.hedge_wins,
                "fenced_hedges": self.fenced_hedges,
                "fenced_sessions": self.fenced_sessions,
                "failovers": self.failovers,
                "rebalanced_sessions": self.rebalanced_sessions,
                "drained_sessions": self.drained_sessions,
            }
        return {
            "replication_factor": factor,
            "virtual_nodes": self.policy.virtual_nodes,
            "hedge_enabled": self.policy.hedge_enabled,
            "hedge_fraction": self.policy.hedge_fraction,
            "ring_pods": router.pods,
            "leader_sessions": leader_sessions,
            "follower_sessions": follower_sessions,
            "replication_lag": lags,
            "max_replication_lag": max(lags.values(), default=0),
            "partitioned_links": partitioned,
            **counters,
        }
