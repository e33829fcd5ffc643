"""Discrete-event simulation of the serving cluster under load (§5.2.2, §7).

The paper's load test measures end-to-end response latency of two
Kubernetes pods (three cores each) under replayed traffic. We reproduce it
with a hybrid simulator:

* **compute is real** — every simulated request is served by
  :meth:`ServingCluster.handle` (admission, ring routing, session update
  in the KV store, VMIS-kNN prediction, business rules) and the service
  time the response reports becomes the station's service time;
* **queueing is simulated** — each pod is a multi-core FCFS station; a
  request waits until one of its pod's cores is free, so response latency
  is queueing delay plus real service time, exactly the M/G/c behaviour a
  loaded pod exhibits;
* **the fleet may scale** — given an
  :class:`~repro.cluster.autoscaler.AutoscalePolicy`, the same loop
  evaluates it once per ``evaluation_interval`` of simulated time over the
  core usage of the trailing window and scales the real cluster (the §7
  over-provisioning trade-off). Without one the fleet is fixed.

This lets a single process observe latency percentiles and core
utilisation for nominal loads far beyond what it could serve in real time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.cluster.autoscaler import AutoscalePolicy, ScalingAction
from repro.cluster.loadgen import TimedRequest
from repro.cluster.metrics import BucketStats, LatencyRecorder, TimelineAggregator
from repro.serving.app import ServingCluster


@dataclass
class LoadTestResult:
    """Outcome of one simulated load test."""

    total_requests: int
    latency: LatencyRecorder
    timeline: list[BucketStats]
    sla_millis: float
    sla_violations: int
    #: scaling decisions the policy executed (none for a fixed fleet).
    actions: list[ScalingAction] = field(default_factory=list)
    #: (simulated time, pod count) at the start, at every action and, with
    #: a policy, at the end of the last evaluation window.
    pods_over_time: list[tuple[float, int]] = field(default_factory=list)

    @property
    def sla_attainment(self) -> float:
        """Fraction of requests answered within the SLA."""
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.sla_violations / self.total_requests

    @property
    def max_pods_used(self) -> int:
        return max((pods for _, pods in self.pods_over_time), default=0)


class ClusterSimulator:
    """Drives a :class:`ServingCluster` with simulated arrivals."""

    def __init__(
        self,
        cluster: ServingCluster,
        cores_per_pod: int = 3,
        sla_millis: float = 50.0,
        policy: AutoscalePolicy | None = None,
    ) -> None:
        """Args:
        cluster: the serving cluster under test (real code). Service
            time is measured on its ``clock``: real compute by
            default; deterministic tests build the cluster on a
            :class:`~repro.testing.clock.VirtualClock` and model service
            time by advancing it inside the recommender.
        cores_per_pod: cores provisioned per pod (the paper uses three).
        sla_millis: the business SLA — 50 ms at bol.com.
        policy: scales the cluster during the run; ``None`` keeps the
            fleet fixed.
        """
        if cores_per_pod < 1:
            raise ValueError("cores_per_pod must be >= 1")
        if policy is not None:
            policy.validate()
        self.cluster = cluster
        self.cores_per_pod = cores_per_pod
        self.sla_millis = sla_millis
        self.policy = policy

    def run(
        self,
        arrivals: Iterable[TimedRequest],
        bucket_seconds: float = 60.0,
        observed_fraction: float = 1.0,
    ) -> LoadTestResult:
        """Process all arrivals and aggregate the outcome.

        Each pod's cores are modelled as a min-heap of free-at times; a
        request starts at ``max(arrival, earliest free core)``. A policy
        is evaluated before the first arrival past each window's end;
        pods it adds are free from that window's start, pods it removes
        are dropped.
        """
        cluster = self.cluster
        cores_per_pod = self.cores_per_pod
        policy = self.policy
        free_at: dict[str, list[float]] = {
            pod_id: [0.0] * cores_per_pod for pod_id in cluster.pods
        }
        latency = LatencyRecorder()
        timeline = TimelineAggregator(bucket_seconds, observed_fraction)
        sla_seconds = self.sla_millis / 1e3
        violations = 0
        total = 0
        actions: list[ScalingAction] = []
        pods_over_time = [(0.0, len(cluster.pods))]
        window_start = 0.0
        window_busy = 0.0
        last_scale_time = -math.inf

        for timed in arrivals:
            now = timed.arrival_time
            while (
                policy is not None
                and now - window_start >= policy.evaluation_interval
            ):
                interval = policy.evaluation_interval
                current = len(cluster.pods)
                usage = window_busy / (interval * cores_per_pod * current)
                target = policy.decide(usage, current)
                if (
                    target != current
                    and window_start - last_scale_time >= policy.cooldown_seconds
                ):
                    # Scale-up rebalances, scale-down drains through the
                    # ring coordinator before the pod goes.
                    cluster.scale_to(target)
                    free_at = {
                        pod_id: free_at.get(pod_id) or [window_start] * cores_per_pod
                        for pod_id in cluster.pods
                    }
                    at_time = window_start + interval
                    actions.append(ScalingAction(at_time, current, target, usage))
                    pods_over_time.append((at_time, target))
                    last_scale_time = window_start
                window_busy = 0.0
                window_start += interval

            response = cluster.handle(timed.request)
            pod_id = response.served_by
            service = response.service_seconds
            window_busy += service

            cores = free_at[pod_id]
            start_time = max(now, cores[0])
            completion = start_time + service
            heapq.heapreplace(cores, completion)

            response_latency = completion - now
            latency.record(response_latency)
            timeline.record_request(now, response_latency, pod_id, service)
            if response_latency > sla_seconds:
                violations += 1
            total += 1

        if policy is not None:
            pods_over_time.append(
                (window_start + policy.evaluation_interval, len(cluster.pods))
            )
        return LoadTestResult(
            total_requests=total,
            latency=latency,
            timeline=timeline.buckets(cores_per_pod),
            sla_millis=self.sla_millis,
            sla_violations=violations,
            actions=actions,
            pods_over_time=pods_over_time,
        )


def format_timeline(buckets: list[BucketStats]) -> str:
    """Render a load-test timeline as an aligned text table."""
    lines = [
        f"{'t(s)':>8}  {'rps':>7}  {'p75ms':>7}  {'p90ms':>7}  {'p99.5ms':>8}  core-usage"
    ]
    for bucket in buckets:
        usage = ", ".join(
            f"{pod}={pct:.0f}%"
            for pod, pct in sorted(bucket.core_usage_percent.items())
        )
        lines.append(
            f"{bucket.start:>8.0f}  {bucket.requests_per_second:>7.1f}  "
            f"{bucket.latency_p75_ms:>7.2f}  {bucket.latency_p90_ms:>7.2f}  "
            f"{bucket.latency_p995_ms:>8.2f}  {usage}"
        )
    return "\n".join(lines)
