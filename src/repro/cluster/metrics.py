"""Latency and utilisation metrics for the load-test and A/B figures.

Figures 3(b) and 3(c) plot requests per second, per-pod core usage and the
p75/p90/p99.5 response-latency percentiles over time. These helpers
accumulate raw samples and aggregate them into the time buckets those
plots are drawn from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.deadline import percentile


@dataclass
class LatencyRecorder:
    """Collects latency samples and answers percentile queries."""

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    def percentile(self, q: float) -> float:
        return percentile(self.samples, q)

    def fraction_within(self, seconds: float) -> float:
        """Share of requests answered within ``seconds`` (SLA attainment).

        The guardrail layer's success criterion: with a 50 ms budget,
        ``fraction_within(0.050)`` should stay at 1.0 even when the
        primary model misbehaves.
        """
        if not self.samples:
            raise ValueError("no samples")
        within = sum(1 for sample in self.samples if sample <= seconds)
        return within / len(self.samples)

    def summary_ms(self) -> dict[str, float]:
        """The paper's three headline percentiles, in milliseconds."""
        return {
            "p75": percentile(self.samples, 75) * 1e3,
            "p90": percentile(self.samples, 90) * 1e3,
            "p99.5": percentile(self.samples, 99.5) * 1e3,
        }

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class BucketStats:
    """One time bucket of a load test / A/B timeline."""

    start: float
    requests_per_second: float
    latency_p75_ms: float
    latency_p90_ms: float
    latency_p995_ms: float
    core_usage_percent: dict[str, float]


class TimelineAggregator:
    """Buckets request completions into fixed windows (one plot point each).

    ``observed_fraction`` supports scaled-down replay: if only a sample of
    the nominal traffic is actually executed (e.g. 1 in 100 requests of a
    600 rps day), the reported requests-per-second are scaled back up while
    latency percentiles come from the executed sample.
    """

    def __init__(self, bucket_seconds: float, observed_fraction: float = 1.0) -> None:
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        if not 0.0 < observed_fraction <= 1.0:
            raise ValueError("observed_fraction must be in (0, 1]")
        self.bucket_seconds = bucket_seconds
        self.observed_fraction = observed_fraction
        self._latencies: dict[int, list[float]] = {}
        self._busy: dict[int, dict[str, float]] = {}

    def record_request(
        self, arrival_time: float, latency_seconds: float, pod_id: str,
        service_seconds: float,
    ) -> None:
        bucket = int(arrival_time // self.bucket_seconds)
        self._latencies.setdefault(bucket, []).append(latency_seconds)
        busy = self._busy.setdefault(bucket, {})
        busy[pod_id] = busy.get(pod_id, 0.0) + service_seconds

    def buckets(self, cores_per_pod: int = 1) -> list[BucketStats]:
        """Aggregate all buckets, in time order."""
        stats = []
        for bucket in sorted(self._latencies):
            latencies = self._latencies[bucket]
            usage = {
                pod: 100.0
                * busy
                / (self.bucket_seconds * self.observed_fraction * cores_per_pod)
                for pod, busy in self._busy.get(bucket, {}).items()
            }
            stats.append(
                BucketStats(
                    start=bucket * self.bucket_seconds,
                    requests_per_second=len(latencies)
                    / (self.bucket_seconds * self.observed_fraction),
                    latency_p75_ms=percentile(latencies, 75) * 1e3,
                    latency_p90_ms=percentile(latencies, 90) * 1e3,
                    latency_p995_ms=percentile(latencies, 99.5) * 1e3,
                    core_usage_percent=usage,
                )
            )
        return stats
