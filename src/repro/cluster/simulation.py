"""Discrete-event simulation of the serving cluster under load (§5.2.2).

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
  loaded pod exhibits.

This lets a single process observe latency percentiles and core
utilisation for nominal loads far beyond what it could serve in real time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

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

    @property
    def sla_attainment(self) -> float:
        """Fraction of requests answered within the SLA."""
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.sla_violations / self.total_requests


class ClusterSimulator:
    """Drives a :class:`ServingCluster` with simulated arrivals."""

    def __init__(
        self,
        cluster: ServingCluster,
        cores_per_pod: int = 3,
        sla_millis: float = 50.0,
    ) -> None:
        """Args:
        cluster: the serving cluster under test (real code). Service
            time is measured on its ``clock``: real compute by
            default; deterministic tests build the cluster on a
            :class:`~repro.testing.clock.VirtualClock` and model service
            time by advancing it inside the recommender.
        cores_per_pod: cores provisioned per pod (the paper uses three).
        sla_millis: the business SLA — 50 ms at bol.com.
        """
        if cores_per_pod < 1:
            raise ValueError("cores_per_pod must be >= 1")
        self.cluster = cluster
        self.cores_per_pod = cores_per_pod
        self.sla_millis = sla_millis

    def run(
        self,
        arrivals: Iterable[TimedRequest],
        bucket_seconds: float = 60.0,
        observed_fraction: float = 1.0,
    ) -> LoadTestResult:
        """Process all arrivals and aggregate the outcome.

        Each pod's cores are modelled as a min-heap of free-at times; a
        request starts at ``max(arrival, earliest free core)``.
        """
        free_at: dict[str, list[float]] = {
            pod_id: [0.0] * self.cores_per_pod for pod_id in self.cluster.pods
        }
        latency = LatencyRecorder()
        timeline = TimelineAggregator(bucket_seconds, observed_fraction)
        sla_seconds = self.sla_millis / 1e3
        violations = 0
        total = 0

        for timed in arrivals:
            response = self.cluster.handle(timed.request)
            pod_id = response.served_by
            service = response.service_seconds

            cores = free_at[pod_id]
            start_time = max(timed.arrival_time, cores[0])
            completion = start_time + service
            heapq.heapreplace(cores, completion)

            response_latency = completion - timed.arrival_time
            latency.record(response_latency)
            timeline.record_request(
                timed.arrival_time, response_latency, pod_id, service
            )
            if response_latency > sla_seconds:
                violations += 1
            total += 1

        return LoadTestResult(
            total_requests=total,
            latency=latency,
            timeline=timeline.buckets(self.cores_per_pod),
            sla_millis=self.sla_millis,
            sla_violations=violations,
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
