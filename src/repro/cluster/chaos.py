"""Fault injection for the serving cluster (§4.2's fault-tolerance story).

The paper's colocation design trades durability of session state for
latency: "the session data could be temporarily lost in cases of machine
failures or elastic scaling", which is acceptable because sessions are
short-lived and the recommender "would quickly collect new interactions".

This module makes that claim testable — and, with the WAL-backed session
stores, measurable in both directions. A :class:`ChaosSchedule` injects
pod kills and restarts at chosen points of a simulated load test, and the
:class:`ChaosReport` quantifies exactly what the paper argues is tolerable:

* how many live sessions were on the killed pod (lost state);
* how routing redistributes those sessions to surviving pods (kills go
  through :meth:`ServingCluster.kill_pod`, so the dead pod's ring entry
  is healed lazily by the re-routing request path, like production);
* how quickly re-routed sessions rebuild enough history to receive
  session-aware recommendations again (the "recovery horizon");
* with a cluster ``wal_dir``, how many sessions a restarted pod recovers
  by WAL replay (``recovered_sessions``) — run the same schedule with and
  without the WAL to price the durability knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.cluster.loadgen import TimedRequest
from repro.cluster.metrics import LatencyRecorder
from repro.serving.app import ServingCluster
from repro.serving.resilience import Overloaded


@dataclass(frozen=True)
class PodKill:
    """Kill (and optionally later restart) one pod at a point in time."""

    at_time: float
    pod_id: str
    restart_at: float | None = None

    def validate(self) -> None:
        if self.restart_at is not None and self.restart_at <= self.at_time:
            raise ValueError("restart_at must be after at_time")


@dataclass(frozen=True)
class PodSlowdown:
    """Make one pod a straggler: its predictions stall for a fixed delay.

    Models the tail-at-scale reality (GC pause, noisy neighbour, cold
    cache) that request hedging exists to absorb. The stall applies from
    ``at_time`` until ``until`` (forever if ``None``) and burns virtual
    time under simulation, so hedge races stay deterministic.
    """

    at_time: float
    pod_id: str
    delay_seconds: float
    until: float | None = None

    def validate(self) -> None:
        if self.delay_seconds <= 0.0:
            raise ValueError("delay_seconds must be > 0")
        if self.until is not None and self.until <= self.at_time:
            raise ValueError("until must be after at_time")


@dataclass(frozen=True)
class NetworkPartition:
    """Cut the replication link between two pods.

    Both pods keep serving; only leader↔follower tail shipping across the
    pair stops. Keys appended during the partition make the follower's
    copy stale, which the coordinator fences: the stale replica is never
    hedged to for those keys, and loses them on promotion rather than
    serving a rewound session.
    """

    at_time: float
    pod_a: str
    pod_b: str
    heal_at: float | None = None

    def validate(self) -> None:
        if self.pod_a == self.pod_b:
            raise ValueError("cannot partition a pod from itself")
        if self.heal_at is not None and self.heal_at <= self.at_time:
            raise ValueError("heal_at must be after at_time")


@dataclass(frozen=True)
class ConsumerCrash:
    """Crash the cluster's streaming index consumer (and restart it later).

    The crash kills the consumer mid-whatever-it-was-doing: buffered
    unsealed sessions and uncommitted poll progress are lost, exactly the
    state the commit low-watermark protects. On restart the consumer
    rejoins its group and replays from the committed offsets.
    """

    at_time: float
    restart_at: float | None = None

    def validate(self) -> None:
        if self.restart_at is not None and self.restart_at <= self.at_time:
            raise ValueError("restart_at must be after at_time")


@dataclass(frozen=True)
class ChaosSchedule:
    """A validated plan of kills, stragglers, partitions and stream faults."""

    kills: tuple[PodKill, ...]
    stream_faults: tuple[ConsumerCrash, ...]
    slowdowns: tuple[PodSlowdown, ...]
    partitions: tuple[NetworkPartition, ...]

    def __init__(
        self,
        kills: Iterable[PodKill] = (),
        stream_faults: Iterable[ConsumerCrash] = (),
        slowdowns: Iterable[PodSlowdown] = (),
        partitions: Iterable[NetworkPartition] = (),
    ) -> None:
        ordered = tuple(sorted(kills, key=lambda kill: kill.at_time))
        for kill in ordered:
            kill.validate()
        object.__setattr__(self, "kills", ordered)
        crashes = tuple(sorted(stream_faults, key=lambda fault: fault.at_time))
        for fault in crashes:
            fault.validate()
        object.__setattr__(self, "stream_faults", crashes)
        stalls = tuple(sorted(slowdowns, key=lambda fault: fault.at_time))
        for fault in stalls:
            fault.validate()
        object.__setattr__(self, "slowdowns", stalls)
        cuts = tuple(sorted(partitions, key=lambda fault: fault.at_time))
        for fault in cuts:
            fault.validate()
        object.__setattr__(self, "partitions", cuts)

    def __iter__(self) -> Iterator[PodKill]:
        return iter(self.kills)

    def __len__(self) -> int:
        return (
            len(self.kills)
            + len(self.stream_faults)
            + len(self.slowdowns)
            + len(self.partitions)
        )


@dataclass
class ChaosEventOutcome:
    """What one injected failure actually did."""

    at_time: float
    pod_id: str
    sessions_lost: int
    restarted_at: float | None = None
    #: sessions the restarted pod recovered by WAL replay (0 without WAL).
    sessions_recovered: int = 0

    @property
    def recovery_rate(self) -> float:
        """Fraction of the killed pod's live sessions its WAL restored."""
        if self.sessions_lost == 0:
            return 1.0
        return self.sessions_recovered / self.sessions_lost


@dataclass
class ChaosReport:
    """Aggregate outcome of a chaos run."""

    total_requests: int
    failed_requests: int
    events: list[ChaosEventOutcome]
    latency: LatencyRecorder
    # Requests whose session state was lost and that were answered with
    # less history than the client had actually generated.
    degraded_requests: int = 0
    # Of those, how many had already re-accumulated >= 2 items of history
    # (i.e. full serenade-hist context) by the time they were served.
    recovered_requests: int = 0
    # Requests shed by admission control (not failures: the 429 is the
    # guardrail doing its job).
    shed_requests: int = 0
    # Sessions restored from the WAL across all restarts.
    recovered_sessions: int = 0
    session_moves: dict[str, str] = field(default_factory=dict)
    # Per displaced session: seconds from the kill until a request saw
    # >= 2 items of stored history again (the paper's recovery claim).
    recovery_horizon: dict[str, float] = field(default_factory=dict)
    # Streaming-ingestion faults applied (ConsumerCrash events).
    consumer_crashes: int = 0
    consumer_restarts: int = 0
    # Straggler / partition faults applied (and partitions later healed).
    slowdowns_applied: int = 0
    partitions_applied: int = 0
    partitions_healed: int = 0
    # Final ring snapshot: failover/hedge/fence/rebalance counters for
    # the chaos assertions.
    ring: dict = field(default_factory=dict)
    # (arrival time, streaming lag in events) sampled at every arrival
    # while a streaming pipeline is attached — the lag trajectory the
    # determinism tests compare bit-for-bit across seeded replays.
    lag_trajectory: list[tuple[float, int]] = field(default_factory=list)
    # Final streaming health snapshot (empty without a pipeline).
    streaming: dict = field(default_factory=dict)

    @property
    def max_lag_events(self) -> int:
        if not self.lag_trajectory:
            return 0
        return max(lag for _, lag in self.lag_trajectory)

    @property
    def availability(self) -> float:
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.failed_requests / self.total_requests

    @property
    def mean_recovery_horizon(self) -> float | None:
        """Mean seconds for a displaced session to regain full context."""
        if not self.recovery_horizon:
            return None
        return sum(self.recovery_horizon.values()) / len(self.recovery_horizon)


class ChaosInjector:
    """Drives a cluster through arrivals while killing/restarting pods.

    Unlike :class:`~repro.cluster.simulation.ClusterSimulator`, which
    models queueing, the injector focuses on state: every request is
    served for real through :meth:`ServingCluster.handle` (admission
    control, re-routing and fallbacks included when the cluster has
    guardrails), and the injector tracks per-session history length to
    detect degradation and recovery after a kill.
    """

    def __init__(
        self,
        cluster: ServingCluster,
        kills: ChaosSchedule | Iterable[PodKill],
    ) -> None:
        self.cluster = cluster
        self.schedule = (
            kills if isinstance(kills, ChaosSchedule) else ChaosSchedule(kills)
        )

    def run(self, arrivals: Iterable[TimedRequest]) -> ChaosReport:
        pending = list(self.schedule)
        restarts: list[tuple[float, str, ChaosEventOutcome]] = []
        stream_pending = list(self.schedule.stream_faults)
        stream_restarts: list[float] = []
        slow_pending = list(self.schedule.slowdowns)
        slow_resets: list[tuple[float, str]] = []
        cut_pending = list(self.schedule.partitions)
        cut_heals: list[tuple[float, str, str]] = []
        latency = LatencyRecorder()
        report = ChaosReport(
            total_requests=0, failed_requests=0, events=[], latency=latency
        )
        # Ground truth: how many clicks each session has actually issued.
        true_history: dict[str, int] = {}
        owner_before_kill: dict[str, str] = {}
        kill_time: dict[str, float] = {}
        streaming = getattr(self.cluster, "streaming", None)
        # On a virtual clock the cluster's time follows the arrivals, so
        # TTLs, breakers and deadlines see the timeline the schedule sees.
        advance_to = getattr(self.cluster._clock, "advance_to", None)

        for timed in arrivals:
            now = timed.arrival_time
            if advance_to is not None:
                advance_to(now)
            self._apply_due_restarts(restarts, now, report)
            self._apply_due_kills(
                pending, restarts, now, report, owner_before_kill, kill_time
            )
            self._apply_due_slowdowns(slow_pending, slow_resets, now, report)
            self._apply_due_partitions(cut_pending, cut_heals, now, report)
            if streaming is not None:
                self._apply_due_stream_faults(
                    stream_pending, stream_restarts, now, report, streaming
                )
                # The supervised consumer polls alongside serving: one
                # step per arrival while alive, none while crashed — so
                # the sampled trajectory shows lag freezing across a
                # crash window and draining again after the restart.
                if not streaming.crashed:
                    streaming.step()
                report.lag_trajectory.append((now, streaming.lag_events()))

            request = timed.request
            true_history[request.session_key] = (
                true_history.get(request.session_key, 0) + 1
            )
            report.total_requests += 1
            try:
                response = self.cluster.handle(request)
            except Overloaded:
                report.shed_requests += 1
                continue
            except Exception:
                report.failed_requests += 1
                continue
            pod_id = response.served_by
            latency.record(response.service_seconds)

            # Detect lost state: the pod's stored history is shorter than
            # what the session actually generated.
            stored = self.cluster.pods[pod_id].sessions.get_session(
                request.session_key
            )
            stored_length = len(stored) if stored else 0
            if stored_length < min(
                true_history[request.session_key],
                self.cluster.pods[pod_id].sessions.max_items,
            ):
                report.degraded_requests += 1
                if stored_length >= 2:
                    report.recovered_requests += 1
            if request.session_key in owner_before_kill:
                report.session_moves[request.session_key] = pod_id
                if (
                    stored_length >= 2
                    and request.session_key not in report.recovery_horizon
                ):
                    report.recovery_horizon[request.session_key] = (
                        now - kill_time[request.session_key]
                    )
        if streaming is not None:
            # Apply faults scheduled after the last arrival, then snapshot.
            horizon = float("inf")
            self._apply_due_stream_faults(
                stream_pending, stream_restarts, horizon, report, streaming
            )
            report.streaming = streaming.health()
        report.ring = self.cluster.ring_info()
        return report

    def _apply_due_slowdowns(self, pending, resets, now, report) -> None:
        """Install/clear straggler stalls per the schedule."""
        while resets and resets[0][0] <= now:
            _, pod_id = resets.pop(0)
            server = self.cluster.pods.get(pod_id)
            if server is not None:
                server.injected_stall_seconds = 0.0
        while pending and pending[0].at_time <= now:
            fault = pending.pop(0)
            server = self.cluster.pods.get(fault.pod_id)
            if server is not None:
                server.injected_stall_seconds = fault.delay_seconds
                report.slowdowns_applied += 1
            if fault.until is not None:
                resets.append((fault.until, fault.pod_id))
                resets.sort(key=lambda entry: entry[0])

    def _apply_due_partitions(self, pending, heals, now, report) -> None:
        """Cut/heal replication links per the schedule."""
        while heals and heals[0][0] <= now:
            _, pod_a, pod_b = heals.pop(0)
            self.cluster.heal_partition(pod_a, pod_b)
            report.partitions_healed += 1
        while pending and pending[0].at_time <= now:
            fault = pending.pop(0)
            self.cluster.partition(fault.pod_a, fault.pod_b)
            report.partitions_applied += 1
            if fault.heal_at is not None:
                heals.append((fault.heal_at, fault.pod_a, fault.pod_b))
                heals.sort(key=lambda entry: entry[0])

    def _apply_due_kills(
        self, pending, restarts, now, report, owner_before_kill, kill_time
    ) -> None:
        while pending and pending[0].at_time <= now:
            kill = pending.pop(0)
            victim = self.cluster.kill_pod(kill.pod_id)
            for session_key in victim.sessions.session_keys():
                owner_before_kill[session_key] = kill.pod_id
                kill_time[session_key] = kill.at_time
            outcome = ChaosEventOutcome(
                at_time=kill.at_time,
                pod_id=kill.pod_id,
                sessions_lost=len(victim.sessions),
                restarted_at=kill.restart_at,
            )
            report.events.append(outcome)
            if kill.restart_at is not None:
                restarts.append((kill.restart_at, kill.pod_id, outcome))
                restarts.sort(key=lambda entry: entry[0])

    def _apply_due_stream_faults(
        self, pending, restarts, now, report, streaming
    ) -> None:
        """Crash/restart the streaming consumer per the schedule."""
        while restarts and restarts[0] <= now:
            restarts.pop(0)
            streaming.restart()
            report.consumer_restarts += 1
        while pending and pending[0].at_time <= now:
            fault = pending.pop(0)
            streaming.crash()
            report.consumer_crashes += 1
            if fault.restart_at is not None:
                if fault.restart_at <= now:
                    streaming.restart()
                    report.consumer_restarts += 1
                else:
                    restarts.append(fault.restart_at)
                    restarts.sort()

    def _apply_due_restarts(self, restarts, now, report) -> None:
        while restarts and restarts[0][0] <= now:
            _, pod_id, outcome = restarts.pop(0)
            # Recovered means replayed from the pod's WAL. What the ring
            # then moves back onto the pod from the survivors is
            # ``ring["rebalanced_sessions"]``, a separate number.
            before = self.cluster.recovered_sessions
            self.cluster.restart_pod(pod_id)
            outcome.sessions_recovered = self.cluster.recovered_sessions - before
            report.recovered_sessions += outcome.sessions_recovered
