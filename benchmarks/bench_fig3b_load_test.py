"""F3b — Figure 3(b): offline load test at more than 1,000 rps.

The paper deploys two pods (three cores each), ramps replayed traffic past
1,000 requests per second and observes: p90 latency below 7 ms, p99.5
below 15 ms, and each pod using roughly one of its three cores.

We reproduce the setup with the discrete-event cluster simulator: the
compute path is the real serving code; the nominal rate ramps from 200 to
1,200 rps (executing a thinned sample so a single process can keep up).

Shapes under test: p90 under the 50 ms SLA with wide margin, p99.5 above
p90 but bounded, and per-pod core usage well below 100% of one core.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster.loadgen import TrafficGenerator, ramp_rate
from repro.cluster.simulation import ClusterSimulator, format_timeline
from repro.core.batch import BatchPredictionEngine
from repro.core.vmis import VMISKNN
from repro.serving.app import ServingCluster
from repro.serving.server import RecommendationRequest
from repro.serving.variants import ServingVariant, session_view

from repro.bench.report import BenchReport, HIGHER

from conftest import publish

SAMPLE_FRACTION = 0.05
DURATION = 120.0
CORES_PER_POD = 3
REPLAY_EPOCHS = 3
BATCH_SIZE = 256


@pytest.fixture(scope="module")
def load_test_result(bench_index_m500, bench_split):
    cluster = ServingCluster.with_index(
        bench_index_m500, num_pods=2, m=500, k=100
    )
    generator = TrafficGenerator(bench_split.test, seed=17)
    simulator = ClusterSimulator(cluster, cores_per_pod=CORES_PER_POD)
    arrivals = generator.generate(
        ramp_rate(200, 1200, DURATION * 0.8),
        duration=DURATION,
        sample_fraction=SAMPLE_FRACTION,
    )
    return simulator.run(
        arrivals, bucket_seconds=30.0, observed_fraction=SAMPLE_FRACTION
    )


def test_fig3b_load_test(benchmark, load_test_result, bench_index_m500):
    cluster = ServingCluster.with_index(bench_index_m500, num_pods=2, m=500, k=100)

    def handle_hundred_requests():
        for i in range(100):
            cluster.handle(RecommendationRequest(f"bench-user-{i % 10}", i % 500))

    benchmark(handle_hundred_requests)

    result = load_test_result
    summary = result.latency.summary_ms()
    peak_rps = max(b.requests_per_second for b in result.timeline)
    peak_usage = max(
        max(b.core_usage_percent.values()) for b in result.timeline
    )
    # §5.2.3: "well-behaved linear scaling (with a gentle slope) of the
    # core usage with the number of requests per second".
    rps_series = [b.requests_per_second for b in result.timeline]
    usage_series = [
        sum(b.core_usage_percent.values()) / max(len(b.core_usage_percent), 1)
        for b in result.timeline
    ]
    usage_rps_correlation = float(np.corrcoef(rps_series, usage_series)[0, 1])
    slope = float(np.polyfit(rps_series, usage_series, 1)[0])

    report = BenchReport(
        "fig3b_load_test",
        metadata={
            "sample_fraction": SAMPLE_FRACTION,
            "duration_s": DURATION,
            "cores_per_pod": CORES_PER_POD,
            "pods": 2,
        },
    )
    report.note(format_timeline(result.timeline))
    report.note()
    report.note(
        f"core usage vs rps: correlation {usage_rps_correlation:.3f}, "
        f"slope {slope * 1000:.1f}% per 1000 rps "
        "(paper: linear with a gentle slope)"
    )
    report.note(
        f"total requests executed: {result.total_requests} "
        f"(sampled at {SAMPLE_FRACTION:.0%} of nominal load)"
    )
    report.note(f"peak nominal load: {peak_rps:.0f} rps (paper: >1000 rps)")
    report.note(
        f"latency p75={summary['p75']:.2f} ms p90={summary['p90']:.2f} ms "
        f"p99.5={summary['p99.5']:.2f} ms (paper: p90 < 7 ms, p99.5 < 15 ms)"
    )
    report.note(f"SLA (50 ms) attainment: {result.sla_attainment:.4f}")
    report.note(
        f"peak per-pod core usage: {peak_usage:.0f}% of {CORES_PER_POD} cores "
        "(paper: about one core of three in use)"
    )
    report.metric("peak_nominal_rps", peak_rps, "rps", HIGHER)
    report.metric("latency_p90_ms", summary["p90"], "ms")
    report.metric("sla_attainment", result.sla_attainment, "", HIGHER)
    publish(report)

    assert peak_rps > 1000
    assert summary["p90"] < 50.0
    assert summary["p90"] <= summary["p99.5"]
    assert result.sla_attainment > 0.99
    assert peak_usage < 100.0 * CORES_PER_POD
    assert usage_rps_correlation > 0.9  # linear scaling of core usage


def test_fig3b_batched_throughput(bench_index_m500, bench_split):
    """The batched arm: sustained hot-session traffic through the engine.

    The production workload is the *serenade-hist* variant — every request
    sees only the last two session items, so sustained traffic repeats the
    same small set of suffixes over and over. We replay the held-out day's
    prediction steps through that view for ``REPLAY_EPOCHS`` passes, once
    serially through ``recommend`` and once through a cached
    :class:`BatchPredictionEngine`, and compare throughput.

    The engine scores on the calling thread, so the speedup comes from the
    LRU result cache and intra-batch deduplication (the report states the
    hit rate).
    """
    model = VMISKNN(bench_index_m500, m=500, k=100, exclude_current_items=True)

    views: list[list[int]] = []
    for sequence in bench_split.test_sequences().values():
        for cut in range(1, len(sequence)):
            views.append(session_view(sequence[:cut], ServingVariant.HIST))
    views = views[:4000] * REPLAY_EPOCHS
    how_many = 21

    started = time.perf_counter()
    serial_results = [model.recommend(view, how_many=how_many) for view in views]
    serial_seconds = time.perf_counter() - started

    with BatchPredictionEngine(model, cache_size=8192) as engine:
        started = time.perf_counter()
        batched_results: list = []
        for start in range(0, len(views), BATCH_SIZE):
            batched_results.extend(
                engine.recommend_batch(
                    views[start : start + BATCH_SIZE], how_many=how_many
                )
            )
        batched_seconds = time.perf_counter() - started
        cache = engine.cache_info()

    assert batched_results == serial_results  # bit-identical to the loop

    serial_rps = len(views) / serial_seconds
    batched_rps = len(views) / batched_seconds
    speedup = batched_rps / serial_rps
    report = BenchReport(
        "fig3b_batched_throughput",
        metadata={
            "requests": len(views),
            "replay_epochs": REPLAY_EPOCHS,
            "batch_size": BATCH_SIZE,
            "variant": "serenade-hist",
        },
    )
    report.note(
        f"workload: {len(views)} serenade-hist requests "
        f"({len(views) // REPLAY_EPOCHS} steps x {REPLAY_EPOCHS} epochs)"
    )
    report.note(
        f"serial recommend(): {serial_rps:,.0f} rps ({serial_seconds:.2f} s)"
    )
    report.note(
        f"batched engine (cache 8192): {batched_rps:,.0f} rps "
        f"({batched_seconds:.2f} s)"
    )
    report.note(
        f"throughput: {speedup:.1f}x serial "
        f"(cache hit rate {cache['hit_rate']:.1%}, "
        f"{cache['hits']}/{cache['hits'] + cache['misses']} lookups; "
        "the gain is cache-driven)"
    )
    report.metric("serial_rps", serial_rps, "rps", HIGHER)
    report.metric("batched_rps", batched_rps, "rps", HIGHER)
    report.metric("batched_speedup", speedup, "x", HIGHER)
    report.metric("cache_hit_rate", cache["hit_rate"], "", HIGHER)
    publish(report)

    assert speedup >= 2.0
    assert cache["hit_rate"] > 0.5


def test_fig3b_degraded_mode(bench_index_m500):
    """The guardrail arm: a primary that goes sick under the 50 ms SLA.

    Each pod's primary answers normally for its first ``HEALTHY_CALLS``
    calls and then stalls 200 ms on every call (a deterministic stand-in
    for a replica that has started swapping). Stages run on the request
    thread, so a stalled call cannot be abandoned: it overruns, and is
    counted. What the guardrails buy is everything after: a pod's breaker
    opens once overruns fill half its 20-call window and the popularity
    stage answers inside the budget, where the raw path misses the SLA on
    every request from the first stall on.
    """
    from repro.cluster.metrics import LatencyRecorder
    from repro.serving.resilience import ResiliencePolicy, popularity_from_index

    HEALTHY_CALLS = 50
    SLOW_SECONDS = 0.2
    REQUESTS = 300
    PODS = 2

    class SickeningVMIS:
        """Healthy for ``HEALTHY_CALLS`` calls, stalling ever after."""

        def __init__(self):
            self._model = VMISKNN(
                bench_index_m500, m=500, k=100, exclude_current_items=True
            )
            self.calls = 0

        def recommend(self, session_items, how_many=21):
            self.calls += 1
            if self.calls > HEALTHY_CALLS:
                time.sleep(SLOW_SECONDS)
            return self._model.recommend(session_items, how_many=how_many)

        def recommend_batch(self, sessions, how_many=21):
            return [self.recommend(s, how_many) for s in sessions]

    def run_arm(resilience):
        popularity = popularity_from_index(bench_index_m500)
        cluster = ServingCluster(
            SickeningVMIS,
            num_pods=PODS,
            resilience=resilience,
            fallback_factory=(lambda: popularity) if resilience else None,
            static_items=(
                popularity.recommend([], how_many=50) if resilience else ()
            ),
        )
        latency = LatencyRecorder()
        degraded = 0
        for i in range(REQUESTS):
            started = time.perf_counter()
            response = cluster.handle(
                RecommendationRequest(f"deg-user-{i % 20}", i % 500)
            )
            latency.record(time.perf_counter() - started)
            if response.degraded:
                degraded += 1
        return latency, degraded, cluster.resilience_info()

    policy = ResiliencePolicy(budget_ms=50.0, fallback_reserve_ms=10.0)
    raw_latency, _, _ = run_arm(None)
    guarded_latency, guarded_degraded, info = run_arm(policy)

    raw_sla = raw_latency.fraction_within(0.050)
    guarded_sla = guarded_latency.fraction_within(0.050)
    overruns = info["deadline_timeouts"]
    guarded_p90 = guarded_latency.percentile(90) * 1e3
    # The slowest request that was not one of the overruns.
    others_max = sorted(guarded_latency.samples)[REQUESTS - overruns - 1] * 1e3

    report = BenchReport(
        "fig3b_degraded_mode",
        metadata={
            "requests": REQUESTS,
            "healthy_calls_per_pod": HEALTHY_CALLS,
            "slow_seconds": SLOW_SECONDS,
            "budget_ms": 50.0,
        },
    )
    report.note(
        f"workload: {REQUESTS} requests over {PODS} pods; each pod's primary "
        f"stalls {SLOW_SECONDS * 1e3:.0f} ms on every call after its first "
        f"{HEALTHY_CALLS}"
    )
    report.note(
        f"guardrails off: p90={raw_latency.percentile(90) * 1e3:.2f} ms "
        f"SLA(50ms) attainment={raw_sla:.3f} degraded=0"
    )
    report.note(
        f"guardrails on (50 ms budget): p90={guarded_p90:.2f} ms "
        f"SLA(50ms) attainment={guarded_sla:.3f} overruns={overruns} "
        f"degraded={guarded_degraded}/{REQUESTS} "
        f"({guarded_degraded / REQUESTS:.1%})"
    )
    report.note(
        f"the {overruns} stalled calls that opened the breakers overran "
        f"(stages run on the request thread); every other request was "
        f"answered within {others_max:.1f} ms"
    )
    report.metric("guarded_p90_ms", guarded_p90, "ms")
    report.metric("guarded_sla", guarded_sla, "", HIGHER)
    report.metric("degraded_fraction", guarded_degraded / REQUESTS, "")
    publish(report)

    assert raw_sla < 0.6  # the raw path misses the SLA from the first stall on
    assert overruns == PODS * round(
        policy.breaker_window * policy.breaker_failure_threshold
    )
    assert guarded_sla == (REQUESTS - overruns) / REQUESTS
    assert others_max < 50.0
    assert guarded_degraded >= REQUESTS - PODS * HEALTHY_CALLS - overruns
