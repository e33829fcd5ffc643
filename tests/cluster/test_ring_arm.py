"""The flash-sale straggler regime, hedged vs unhedged, deterministically.

``repro bench`` no longer records this regime: on the virtual clock its
latencies are arithmetic, not measurements. What the regime shows is
asserted here instead. Every pod stalls 5 ms and one stalls 200 ms.
Hedged, the tail is the hedge delay plus a follower's stall (12.5 + 5 ms,
inside the 50 ms SLA); unhedged, it is the straggler's 200 ms. A
same-seed replay repeats every sample and ring counter, and another seed
replays another trace.
"""

from __future__ import annotations

import pytest

from repro.cluster.chaos import ChaosInjector, ChaosSchedule, PodSlowdown
from repro.cluster.loadgen import TimedRequest
from repro.core.index import SessionIndex
from repro.serving.app import ServingCluster
from repro.serving.ring import ReplicationPolicy
from repro.serving.server import RecommendationRequest
from repro.testing.clock import VirtualClock
from repro.testing.generators import WorkloadGenerator

pytestmark = pytest.mark.chaos

SLA_BUDGET_SECONDS = 0.05
PODS = 5
STRAGGLER_SECONDS = 0.2
BASE_STALL_SECONDS = 0.005
SEED = 2022


def flash_sale_trace(log, seed, duration=20.0, rate=12.0, clients=8):
    """The workload generator's flash-sale arrivals, dealt round-robin to
    ``clients`` concurrent visitors who each walk one logged session: a
    pure function of ``(log, seed)``."""
    arrivals = WorkloadGenerator(seed=seed).flash_sale_arrival_times(duration, rate)
    sequences = [s for s in log.session_item_sequences().values() if len(s) >= 2]
    walkers: dict[int, tuple[str, list[int], int]] = {}
    started = 0
    trace = []
    for number, arrival in enumerate(arrivals):
        client = number % clients
        if client not in walkers:
            walkers[client] = (f"s{started}", sequences[started % len(sequences)], 0)
            started += 1
        key, sequence, position = walkers[client]
        trace.append(TimedRequest(arrival, RecommendationRequest(key, sequence[position])))
        if position + 1 < len(sequence):
            walkers[client] = (key, sequence, position + 1)
        else:
            del walkers[client]
    return trace


@pytest.fixture(scope="module")
def replay(small_log):
    index = SessionIndex.from_clicks(small_log, max_sessions_per_item=100)
    schedule = ChaosSchedule(
        slowdowns=[
            PodSlowdown(
                at_time=0.0,
                pod_id=f"pod-{pod}",
                delay_seconds=STRAGGLER_SECONDS if pod == 0 else BASE_STALL_SECONDS,
            )
            for pod in range(PODS)
        ]
    )

    def run(seed, hedge_enabled=True):
        policy = ReplicationPolicy(replication_factor=2, hedge_enabled=hedge_enabled)
        cluster = ServingCluster.with_index(
            index, num_pods=PODS, m=100, k=50, clock=VirtualClock(), replication=policy
        )
        return ChaosInjector(cluster, schedule).run(flash_sale_trace(small_log, seed))

    return run


@pytest.fixture(scope="module")
def hedged(replay):
    return replay(SEED)


@pytest.fixture(scope="module")
def unhedged(replay):
    return replay(SEED, hedge_enabled=False)


class TestMetrics:
    def test_hedging_holds_the_sla_under_stragglers(self, hedged, unhedged):
        """Hedged p99 inside the 50 ms SLA and at least 2x better than
        unhedged, which misses it; no request fails either way."""
        assert hedged.failed_requests == unhedged.failed_requests == 0
        hedged_p99 = hedged.latency.percentile(99)
        unhedged_p99 = unhedged.latency.percentile(99)
        assert hedged_p99 <= SLA_BUDGET_SECONDS
        assert hedged.latency.fraction_within(SLA_BUDGET_SECONDS) == 1.0
        assert unhedged_p99 > SLA_BUDGET_SECONDS
        assert unhedged_p99 / hedged_p99 >= 2.0
        assert hedged.ring["hedges_fired"] > 0
        assert hedged.ring["hedge_wins"] > 0
        assert unhedged.ring["hedges_fired"] == 0

    def test_hedge_race_resolves_at_the_derived_delay(self, hedged, unhedged):
        """hedge delay (12.5 ms) + follower base stall (5 ms) exactly:
        the virtual-clock race is arithmetic, not a measurement."""
        assert hedged.latency.percentile(99) == pytest.approx(0.0175)
        assert unhedged.latency.percentile(99) == pytest.approx(STRAGGLER_SECONDS)


class TestDeterminism:
    def test_identical_runs_modulo_memory(self, replay, hedged):
        """Same seed => identical latency samples and ring counters
        (memory is not measured on the virtual clock)."""
        again = replay(SEED)
        assert again.latency.samples == hedged.latency.samples
        assert again.ring == hedged.ring
        assert again.failed_requests == hedged.failed_requests

    def test_seed_changes_the_trace(self, replay, hedged):
        other = replay(7)
        assert len(other.latency.samples) != len(hedged.latency.samples)
