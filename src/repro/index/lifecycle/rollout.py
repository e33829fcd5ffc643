"""Staged rolling rollout of a new index across the serving cluster.

`ServingCluster.rollout_index` swaps every pod at once — fine when the
artifact is known-good, fleet-threatening when it is not. The
:class:`RolloutController` replaces the blind swap with the standard
production discipline:

1. **canary** — a fraction of pods (at least one) loads the candidate
   first. Each load retries with jittered exponential backoff (shared
   storage hiccups are transient) and must pass a local health check
   before the pod is swapped.
2. **observe** — synthetic canary traffic is driven through the real
   request path (consent-off, so probe sessions never pollute session
   stores) and split by routing into canary-served and baseline-served
   groups. A canary error rate above the budget, degraded answers, or a
   p90 latency regression beyond the allowed factor fails the canary.
3. **roll** — on a healthy canary the candidate factory is *committed*
   (new and restarted pods build from it — that is what makes the fleet
   converge under kills mid-rollout), then remaining pods swap one at a
   time, each with the same retry + health-check treatment.
4. **rollback** — any failure in 1–3 swaps every already-swapped pod
   back to the previous factory, restores the committed version, and
   counts the rollback on the cluster (exported at ``/metrics``).

Version skew mid-rollout is tolerated by construction: each pod serves
its own replica, ring routing keeps any one session on one pod, so
a session sees one version consistently; pods killed mid-rollout are
skipped and converge to the committed version on restart.
"""

from __future__ import annotations

import enum
import logging
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.deadline import percentile
from repro.core.predictor import SessionRecommender
from repro.serving.app import RecommenderFactory, ServingCluster
from repro.serving.server import RecommendationRequest

logger = logging.getLogger(__name__)


class RolloutState(enum.Enum):
    IDLE = "idle"
    CANARY = "canary"
    ROLLING = "rolling"
    COMPLETED = "completed"
    ROLLED_BACK = "rolled_back"


class RolloutError(RuntimeError):
    """A rollout invariant was violated (bad policy, no pods)."""


@dataclass(frozen=True)
class RolloutPolicy:
    """Knobs for the staged rollout."""

    #: fraction of pods swapped in the canary stage (>= 1 pod always).
    canary_fraction: float = 0.25
    #: artifact/replica load retries per pod.
    max_load_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    #: +/- fraction of jitter applied to every backoff delay.
    backoff_jitter: float = 0.5
    #: sessions the local health check probes on a freshly loaded replica.
    health_check_sessions: tuple[tuple[int, ...], ...] = ((0,), (1, 2))
    #: synthetic requests per group when observing the canary.
    canary_probe_requests: int = 40
    #: item ids cycled through by the synthetic canary traffic.
    probe_item_ids: tuple[int, ...] = tuple(range(8))
    #: fraction of canary probes that may fail (error or degraded).
    max_canary_error_rate: float = 0.02
    #: canary p90 may not exceed baseline p90 times this factor.
    max_p90_regression: float = 3.0
    #: latency comparison needs at least this many samples per group.
    min_latency_samples: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError("canary_fraction must be in (0, 1]")
        if self.max_load_attempts < 1:
            raise ValueError("max_load_attempts must be >= 1")
        if self.max_p90_regression < 1.0:
            raise ValueError("max_p90_regression must be >= 1.0")


@dataclass
class CanaryStats:
    """Outcome of the canary observation stage."""

    canary_requests: int = 0
    canary_failures: int = 0
    baseline_requests: int = 0
    baseline_failures: int = 0
    canary_p90: float | None = None
    baseline_p90: float | None = None

    @property
    def canary_error_rate(self) -> float:
        if self.canary_requests == 0:
            return 0.0
        return self.canary_failures / self.canary_requests


@dataclass
class RolloutReport:
    """Everything one rollout attempt did."""

    from_version: str | None
    to_version: str | None
    state: RolloutState = RolloutState.IDLE
    canary_pods: list[str] = field(default_factory=list)
    swapped_pods: list[str] = field(default_factory=list)
    #: pods that were dead when their turn came (they converge on restart).
    skipped_pods: list[str] = field(default_factory=list)
    load_retries: int = 0
    rollback_reason: str | None = None
    canary: CanaryStats | None = None

    @property
    def succeeded(self) -> bool:
        return self.state is RolloutState.COMPLETED


#: optional custom canary probe: (cluster, canary_pods) -> CanaryStats.
CanaryProbe = Callable[[ServingCluster, Sequence[str]], CanaryStats]


class RolloutController:
    """Drives one candidate index through canary → rolling → commit."""

    def __init__(
        self,
        cluster: ServingCluster,
        policy: RolloutPolicy | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.cluster = cluster
        self.policy = policy or RolloutPolicy()
        self._rng = rng or random.Random()
        self._sleep = sleep

    # -- the rollout ----------------------------------------------------------

    def run(
        self,
        factory: RecommenderFactory,
        version: str | None = None,
        canary_probe: CanaryProbe | None = None,
    ) -> RolloutReport:
        """Roll ``factory`` across the cluster; never raises on bad builds.

        Returns a :class:`RolloutReport`; on any failure the cluster is
        left on its previous version with the rollback counted.
        """
        cluster = self.cluster
        old_factory = cluster.committed_factory
        old_version = cluster.index_version
        report = RolloutReport(from_version=old_version, to_version=version)
        pods = sorted(cluster.pods)
        if not pods:
            raise RolloutError("cluster has no pods to roll out to")
        canary_count = max(1, math.ceil(self.policy.canary_fraction * len(pods)))
        report.canary_pods = pods[:canary_count]

        self._set_state(report, RolloutState.CANARY)
        for pod_id in report.canary_pods:
            if not self._swap_pod(pod_id, factory, version, report):
                return self._rollback(report, old_factory, old_version)

        probe = canary_probe or self._default_canary_probe
        report.canary = probe(cluster, report.canary_pods)
        verdict = self._judge_canary(report.canary)
        if verdict is not None:
            report.rollback_reason = verdict
            return self._rollback(report, old_factory, old_version)

        # Canary is healthy: commit, so pods restarted or scaled up from
        # here on build the new version — the convergence guarantee.
        self._set_state(report, RolloutState.ROLLING)
        cluster.commit_index(factory, version)
        for pod_id in pods[canary_count:]:
            if pod_id not in cluster.pods:
                report.skipped_pods.append(pod_id)
                continue
            if not self._swap_pod(pod_id, factory, version, report):
                return self._rollback(report, old_factory, old_version)

        self._set_state(report, RolloutState.COMPLETED)
        return report

    def _set_state(self, report: RolloutReport, state: RolloutState) -> None:
        report.state = state
        self.cluster.rollout_state = state.value

    # -- per-pod swap with retries and health check ---------------------------

    def _swap_pod(
        self,
        pod_id: str,
        factory: RecommenderFactory,
        version: str | None,
        report: RolloutReport,
    ) -> bool:
        if pod_id not in self.cluster.pods:
            report.skipped_pods.append(pod_id)
            return True
        replica = self._load_with_retries(factory, report)
        if replica is None or not self._healthy(replica):
            report.rollback_reason = (
                f"pod {pod_id}: replica failed to load or failed health check"
            )
            return False
        self.cluster.swap_pod_recommender(pod_id, lambda: replica, version)
        report.swapped_pods.append(pod_id)
        return True

    def _load_with_retries(
        self, factory: RecommenderFactory, report: RolloutReport
    ) -> SessionRecommender | None:
        policy = self.policy
        delay = policy.backoff_base_seconds
        for attempt in range(1, policy.max_load_attempts + 1):
            try:
                return factory()
            except Exception:
                if attempt == policy.max_load_attempts:
                    return None
                report.load_retries += 1
                jitter = 1.0 + policy.backoff_jitter * (
                    2.0 * self._rng.random() - 1.0
                )
                self._sleep(max(0.0, delay * jitter))
                delay *= policy.backoff_multiplier
        return None

    def _healthy(self, replica: SessionRecommender) -> bool:
        """A loaded replica must answer probe sessions without crashing."""
        try:
            for session in self.policy.health_check_sessions:
                ranked = replica.recommend(list(session), how_many=5)
                if not isinstance(ranked, list):
                    return False
        except Exception:
            logger.warning(
                "health check failed: probe session crashed the replica",
                exc_info=True,
            )
            return False
        return True

    # -- canary observation ---------------------------------------------------

    def _default_canary_probe(
        self, cluster: ServingCluster, canary_pods: Sequence[str]
    ) -> CanaryStats:
        """Drive synthetic traffic and split outcomes by serving pod.

        Probes are consent-off so they never pollute per-user session
        state; keys are generated until both groups have their sample or
        the key budget runs out (a fully-canaried cluster simply has no
        baseline group, which disables the relative latency check).
        """
        policy = self.policy
        stats = CanaryStats()
        canary = set(canary_pods)
        canary_latencies: list[float] = []
        baseline_latencies: list[float] = []
        target = policy.canary_probe_requests
        budget = target * max(2, len(cluster.pods)) * 4
        for attempt in range(budget):
            if stats.canary_requests >= target and (
                stats.baseline_requests >= target
                or len(cluster.pods) == len(canary)
            ):
                break
            key = f"canary-probe-{attempt}"
            pod_id = cluster.route_live(key)
            is_canary = pod_id in canary
            if (stats.canary_requests >= target and is_canary) or (
                stats.baseline_requests >= target and not is_canary
            ):
                continue
            item = policy.probe_item_ids[attempt % len(policy.probe_item_ids)]
            request = RecommendationRequest(key, item, consent=False)
            failed = False
            elapsed = None
            try:
                response = cluster.handle(request)
                failed = response.degraded
                elapsed = response.service_seconds
            except Exception:
                logger.debug(
                    "canary probe request failed on pod %s",
                    pod_id,
                    exc_info=True,
                )
                failed = True
            if is_canary:
                stats.canary_requests += 1
                stats.canary_failures += failed
                if elapsed is not None:
                    canary_latencies.append(elapsed)
            else:
                stats.baseline_requests += 1
                stats.baseline_failures += failed
                if elapsed is not None:
                    baseline_latencies.append(elapsed)
        if len(canary_latencies) >= policy.min_latency_samples:
            stats.canary_p90 = percentile(canary_latencies, 90)
        if len(baseline_latencies) >= policy.min_latency_samples:
            stats.baseline_p90 = percentile(baseline_latencies, 90)
        return stats

    def _judge_canary(self, stats: CanaryStats) -> str | None:
        """None when the canary is healthy, else the refusal reason."""
        policy = self.policy
        if stats.canary_requests == 0:
            return "canary received no probe traffic"
        if stats.canary_error_rate > policy.max_canary_error_rate:
            return (
                f"canary error rate {stats.canary_error_rate:.1%} exceeds "
                f"{policy.max_canary_error_rate:.1%}"
            )
        if (
            stats.canary_p90 is not None
            and stats.baseline_p90 is not None
            and stats.baseline_p90 > 0
            and stats.canary_p90 > stats.baseline_p90 * policy.max_p90_regression
        ):
            return (
                f"canary p90 {stats.canary_p90 * 1e3:.2f} ms regressed beyond "
                f"{policy.max_p90_regression:.1f}x baseline "
                f"{stats.baseline_p90 * 1e3:.2f} ms"
            )
        return None

    # -- rollback -------------------------------------------------------------

    def _rollback(
        self,
        report: RolloutReport,
        old_factory: RecommenderFactory,
        old_version: str | None,
    ) -> RolloutReport:
        """Swap every already-swapped pod back and restore the commit."""
        cluster = self.cluster
        cluster.commit_index(old_factory, old_version)
        for pod_id in report.swapped_pods:
            if pod_id in cluster.pods:
                cluster.swap_pod_recommender(pod_id, old_factory, old_version)
        report.swapped_pods = []
        cluster.rollback_count += 1
        self._set_state(report, RolloutState.ROLLED_BACK)
        return report
