"""Reactive autoscaling policy for the serving fleet (§4.2/§7).

Serenade deliberately over-provisions: each pod gets three cores but uses
about one, "to be prepared for peak loads, e.g., during denial-of-service
attacks" (§7), and elastic scaling of the pod pool is possible but loses
the sessions of removed pods (§4.2). This module makes the trade-off
explorable:

* :class:`AutoscalePolicy` — hysteresis thresholds on observed core
  usage, with cooldown and min/max pod bounds (a Kubernetes HPA, in
  miniature);
* :class:`AutoscalingSimulator` — a load-test loop that evaluates the
  policy at a fixed cadence, scales the real cluster and records every
  scaling action together with the latency timeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable

from repro.cluster.loadgen import TimedRequest
from repro.cluster.metrics import LatencyRecorder
from repro.serving.app import ServingCluster


@dataclass(frozen=True)
class AutoscalePolicy:
    """Hysteresis scaling rule over average per-pod core usage."""

    scale_up_at: float = 0.60  # avg busy fraction per provisioned core
    scale_down_at: float = 0.15
    min_pods: int = 2
    max_pods: int = 10
    cooldown_seconds: float = 60.0

    def validate(self) -> None:
        if not 0.0 < self.scale_down_at < self.scale_up_at <= 1.0:
            raise ValueError(
                "need 0 < scale_down_at < scale_up_at <= 1, got "
                f"{self.scale_down_at} / {self.scale_up_at}"
            )
        if not 1 <= self.min_pods <= self.max_pods:
            raise ValueError("need 1 <= min_pods <= max_pods")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")

    def decide(self, usage_fraction: float, current_pods: int) -> int:
        """Target pod count given the observed usage."""
        if usage_fraction > self.scale_up_at and current_pods < self.max_pods:
            return current_pods + 1
        if usage_fraction < self.scale_down_at and current_pods > self.min_pods:
            return current_pods - 1
        return current_pods


@dataclass(frozen=True)
class ScalingAction:
    """One executed scaling decision."""

    at_time: float
    from_pods: int
    to_pods: int
    observed_usage: float


@dataclass
class AutoscaleRunResult:
    """Outcome of a policy-driven load run."""

    total_requests: int
    latency: LatencyRecorder
    actions: list[ScalingAction] = field(default_factory=list)
    pods_over_time: list[tuple[float, int]] = field(default_factory=list)

    @property
    def max_pods_used(self) -> int:
        return max((pods for _, pods in self.pods_over_time), default=0)


class AutoscalingSimulator:
    """Drives a cluster through arrivals, scaling by the policy.

    Uses the same hybrid model as the load-test simulator (real compute,
    simulated multi-core queueing); usage is evaluated once per
    ``evaluation_interval`` of simulated time over the trailing window.
    """

    def __init__(
        self,
        cluster: ServingCluster,
        policy: AutoscalePolicy,
        cores_per_pod: int = 3,
        evaluation_interval: float = 10.0,
    ) -> None:
        policy.validate()
        if cores_per_pod < 1:
            raise ValueError("cores_per_pod must be >= 1")
        if evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")
        self.cluster = cluster
        self.policy = policy
        self.cores_per_pod = cores_per_pod
        self.evaluation_interval = evaluation_interval

    def run(self, arrivals: Iterable[TimedRequest]) -> AutoscaleRunResult:
        result = AutoscaleRunResult(total_requests=0, latency=LatencyRecorder())
        free_at: dict[str, list[float]] = {
            pod: [0.0] * self.cores_per_pod for pod in self.cluster.pods
        }
        window_busy = 0.0
        window_start = 0.0
        last_scale_time = -self.policy.cooldown_seconds
        result.pods_over_time.append((0.0, len(self.cluster.pods)))

        for timed in arrivals:
            now = timed.arrival_time
            # Policy evaluation at a fixed cadence.
            while now - window_start >= self.evaluation_interval:
                usage = window_busy / (
                    self.evaluation_interval
                    * self.cores_per_pod
                    * len(self.cluster.pods)
                )
                current = len(self.cluster.pods)
                target = self.policy.decide(usage, current)
                if (
                    target != current
                    and window_start - last_scale_time
                    >= self.policy.cooldown_seconds
                ):
                    self.cluster.scale_to(target)
                    for pod in self.cluster.pods:
                        free_at.setdefault(pod, [window_start] * self.cores_per_pod)
                    for pod in list(free_at):
                        if pod not in self.cluster.pods:
                            del free_at[pod]
                    result.actions.append(
                        ScalingAction(
                            at_time=window_start + self.evaluation_interval,
                            from_pods=current,
                            to_pods=target,
                            observed_usage=usage,
                        )
                    )
                    last_scale_time = window_start
                    result.pods_over_time.append(
                        (window_start + self.evaluation_interval, target)
                    )
                window_busy = 0.0
                window_start += self.evaluation_interval

            # Scaling flows through rebalance/decommission and the
            # coordinator routes, replicates and hedges; its service
            # time already resolves the hedge race.
            response = self.cluster.handle(timed.request)
            pod_id = response.served_by
            service = response.service_seconds
            window_busy += service

            cores = free_at[pod_id]
            start_time = max(now, cores[0])
            completion = start_time + service
            heapq.heapreplace(cores, completion)
            result.latency.record(completion - now)
            result.total_requests += 1

        result.pods_over_time.append(
            (window_start + self.evaluation_interval, len(self.cluster.pods))
        )
        return result
