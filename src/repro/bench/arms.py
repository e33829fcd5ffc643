"""The gate arms: fig3a / fig3b / capacity as plain callables.

Each arm wraps one of the paper-reproduction benchmark regimes (the same
workload shapes the pytest suite under ``benchmarks/`` measures) in a
function the structured runner can execute outside pytest:

* **fig3a** — the Figure 3(a) microbenchmark regime: heavy posting
  lists, VMIS-kNN ``find_neighbors`` latency, plus the VS-kNN speedup
  ratio the paper headlines;
* **fig3b** — the Figure 3(b) serving regime: serenade-hist request
  replay, per-request latency and SLA attainment, batched-engine
  throughput with the LRU result cache;
* **capacity** — the §4.2 memory regime: index build peak memory and
  the capacity model's extrapolation to production scale;
* **streaming** — the §7-future-work ingestion regime: clicks published
  through the partitioned event log in chunks, each chunk's
  commit-to-visible latency (publish ack → index catch-up) measured
  end to end, plus the event-time staleness the sealing policy leaves
  behind;
* **ring** — the tail-at-scale regime: a replicated shard ring serving
  a flash-sale trace with one straggler pod, replayed twice (hedging
  on / off) on a virtual clock to price deadline-derived hedged reads.

Arms follow the repo's timing discipline (CONTRIBUTING): interleaved
rounds with per-call best-of merging, warm-up before measurement, and
memory probes never active while latencies are being taken. Every knob
that grows the workload lives in :class:`BenchProfile`, so the quick CI
profile, the full profile and the smoke profile used by tests are data,
not code paths.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Mapping

from repro.bench.probes import LatencyProbe, MemoryProbe
from repro.bench.schema import HIGHER, LOWER, Metric
from repro.cluster.chaos import ChaosReport, ChaosSchedule, PodSlowdown
from repro.cluster.loadgen import TimedRequest
from repro.core.batch import BatchPredictionEngine
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
from repro.core.vsknn import VSKNN
from repro.data.split import TrainTestSplit, temporal_split
from repro.data.synthetic import generate_clickstream
from repro.index.capacity import NATIVE, extrapolate, measure_index
from repro.index.maintenance import IncrementalIndexer
from repro.serving.ring import ReplicationPolicy
from repro.serving.server import RecommendationRequest
from repro.serving.variants import ServingVariant, session_view
from repro.streaming import (
    ClickProducer,
    PartitionedLog,
    StreamingIndexer,
    StreamingPolicy,
)
from repro.testing.clock import VirtualClock
from repro.testing.generators import WorkloadGenerator
from repro.testing.simulation import SimulatedCluster

Clock = Callable[[], float]

#: The serving SLA every arm reports attainment against (PR 2's budget).
SLA_BUDGET_MS = 50.0

#: The paper's production scale (§4.2), targets of the capacity arm.
PAPER_SESSIONS = 111_000_000
PAPER_ITEMS = 6_500_000


@dataclass(frozen=True)
class BenchProfile:
    """Workload sizes of one run regime (quick CI / full / test smoke)."""

    name: str
    rounds: int
    fig3a_sessions: int
    fig3a_items: int
    fig3a_queries: int
    fig3b_sessions: int
    fig3b_items: int
    fig3b_steps: int
    fig3b_epochs: int
    capacity_sessions: int
    capacity_items: int
    capacity_queries: int
    streaming_sessions: int
    streaming_items: int
    #: clicks published per chunk; one commit-to-visible sample per chunk.
    streaming_chunk: int
    # -- ring arm (appended with defaults: older profiles stay valid) --
    ring_sessions: int = 4_000
    ring_items: int = 800
    ring_pods: int = 10
    #: simulated seconds of flash-sale traffic and its off-spike rate.
    ring_duration: float = 60.0
    ring_rate: float = 30.0
    #: every pod stalls this much (baseline jitter floor)...
    ring_base_stall_ms: float = 5.0
    #: ...except one straggler pod, which stalls this much (the GC-pause
    #: regime hedging exists for: 1 of ring_pods ≈ 10% of requests).
    ring_straggler_ms: float = 200.0


PROFILES: dict[str, BenchProfile] = {
    # The CI gate regime: small enough to finish in seconds, large
    # enough that percentiles are not dominated by a handful of calls.
    "quick": BenchProfile(
        name="quick",
        rounds=3,
        fig3a_sessions=8_000,
        fig3a_items=800,
        fig3a_queries=120,
        fig3b_sessions=6_000,
        fig3b_items=1_200,
        fig3b_steps=2_000,
        fig3b_epochs=3,
        capacity_sessions=20_000,
        capacity_items=9_000,
        capacity_queries=80,
        streaming_sessions=4_000,
        streaming_items=800,
        streaming_chunk=512,
        ring_sessions=4_000,
        ring_items=800,
        ring_duration=60.0,
        ring_rate=30.0,
    ),
    # Mirrors the pytest benchmark arms' workload sizes.
    "full": BenchProfile(
        name="full",
        rounds=3,
        fig3a_sessions=50_000,
        fig3a_items=1_200,
        fig3a_queries=150,
        fig3b_sessions=25_000,
        fig3b_items=3_000,
        fig3b_steps=4_000,
        fig3b_epochs=3,
        capacity_sessions=60_000,
        capacity_items=35_000,
        capacity_queries=100,
        streaming_sessions=20_000,
        streaming_items=2_500,
        streaming_chunk=1_024,
        ring_sessions=12_000,
        ring_items=1_500,
        ring_duration=120.0,
        ring_rate=50.0,
    ),
    # Sub-second sizes for the test suite; never use for real baselines.
    "smoke": BenchProfile(
        name="smoke",
        rounds=2,
        fig3a_sessions=1_200,
        fig3a_items=300,
        fig3a_queries=40,
        fig3b_sessions=1_000,
        fig3b_items=400,
        fig3b_steps=300,
        fig3b_epochs=2,
        capacity_sessions=4_000,
        capacity_items=2_000,
        capacity_queries=30,
        streaming_sessions=600,
        streaming_items=200,
        streaming_chunk=256,
        ring_sessions=800,
        ring_items=200,
        ring_duration=20.0,
        ring_rate=12.0,
    ),
}


@dataclass(frozen=True)
class ArmResult:
    """What one arm hands back to the runner for record assembly."""

    metrics: Mapping[str, Metric]
    workload: Mapping[str, object]
    notes: tuple[str, ...] = ()


def _prediction_prefixes(split: TrainTestSplit, limit: int) -> list[list[int]]:
    """Growing-session prediction inputs from the held-out day."""
    prefixes: list[list[int]] = []
    for sequence in split.test_sequences().values():
        for cut in range(1, len(sequence)):
            prefixes.append(sequence[:cut])
    return prefixes[:limit]


def _find_neighbors(model: Any, prefix: list[int]) -> object:
    return model.find_neighbors(prefix)


def _recommend_slot(model: Any, prefix: list[int]) -> object:
    """The whole scorer: neighbour search + item scoring, one page slot."""
    return model.recommend(prefix, 21)


def _interleaved_best(
    models: Mapping[str, object],
    prefixes: list[list[int]],
    rounds: int,
    clock: Clock,
    call: Callable[[Any, list[int]], object] = _find_neighbors,
) -> dict[str, LatencyProbe]:
    """Per-call best-of-N latencies, every round timing every model."""
    for model in models.values():
        for prefix in prefixes[: min(20, len(prefixes))]:
            call(model, prefix)
    best: dict[str, LatencyProbe] = {}
    for _ in range(rounds):
        for name, model in models.items():
            probe = LatencyProbe(clock)
            for prefix in prefixes:
                probe.sample(lambda p=prefix: call(model, p))
            if name in best:
                best[name].merge_best(probe)
            else:
                best[name] = probe
    return best


def _latency_metrics(probe: LatencyProbe) -> dict[str, Metric]:
    return {
        "latency_p50_ms": Metric(probe.percentile_ms(50), "ms", LOWER),
        "latency_p90_ms": Metric(probe.percentile_ms(90), "ms", LOWER),
        "latency_p99_ms": Metric(probe.percentile_ms(99), "ms", LOWER),
        "sla_attainment": Metric(
            probe.sla_attainment(SLA_BUDGET_MS), "fraction", HIGHER
        ),
    }


def run_fig3a(
    profile: BenchProfile, seed: int, clock: Clock = time.perf_counter
) -> ArmResult:
    """Figure 3(a) regime: neighbour-search latency, VMIS vs VS-kNN."""
    log = generate_clickstream(
        num_sessions=profile.fig3a_sessions,
        num_items=profile.fig3a_items,
        num_categories=40,
        mean_session_length=8.0,
        length_tail=0.2,
        days=14,
        seed=seed,
    )
    split = temporal_split(log, test_days=1)
    with MemoryProbe() as memory:
        index = SessionIndex.from_clicks(
            split.train, max_sessions_per_item=2**62
        )
        models = {
            "vmis": VMISKNN(index, m=500, k=100),
            "vsknn": VSKNN(index, m=500, k=100),
        }
    prefixes = _prediction_prefixes(split, profile.fig3a_queries)
    probes = _interleaved_best(models, prefixes, profile.rounds, clock)
    vmis = probes["vmis"]
    speedup = probes["vsknn"].total_seconds() / vmis.total_seconds()
    metrics = dict(_latency_metrics(vmis))
    metrics["throughput_rps"] = Metric(vmis.throughput_rps(), "rps", HIGHER)
    metrics["peak_memory_bytes"] = Metric(
        float(memory.peak_bytes), "bytes", LOWER
    )
    metrics["vsknn_speedup"] = Metric(speedup, "x", HIGHER)
    return ArmResult(
        metrics=metrics,
        workload={
            "regime": "fig3a-microbenchmark",
            "sessions": profile.fig3a_sessions,
            "items": profile.fig3a_items,
            "queries": len(prefixes),
            "rounds": profile.rounds,
            "m": 500,
            "k": 100,
        },
        notes=(
            f"VMIS-kNN find_neighbors over {len(prefixes)} growing-session "
            f"prefixes, best of {profile.rounds} interleaved rounds",
            f"VS-kNN/VMIS-kNN aggregate speedup {speedup:.2f}x",
        ),
    )


def run_fig3a_vec(
    profile: BenchProfile, seed: int, clock: Clock = time.perf_counter
) -> ArmResult:
    """Figure 3(a) vectorized sub-arm: columnar scorer vs the heap path.

    Identical workload, index contents and hyperparameters to ``fig3a``;
    the only variable is the scoring implementation —
    :class:`VMISKNNColumnar` over struct-of-arrays numpy buffers against
    the interpreted d-ary-heap ``VMISKNN``. The two are bit-identical
    (the differential oracle enforces it; this arm spot-checks every
    prefix once before timing), so the speedup is pure implementation.

    The core latency/throughput metrics and the two speedups time
    ``find_neighbors`` alone, like ``fig3a``. ``recommend_p50_ms`` and
    ``recommend_throughput_rps`` time the whole columnar scorer — the
    neighbour search plus item scoring of ``recommend(prefix, 21)`` — on
    the same prefixes, which is what a served request pays.
    """
    log = generate_clickstream(
        num_sessions=profile.fig3a_sessions,
        num_items=profile.fig3a_items,
        num_categories=40,
        mean_session_length=8.0,
        length_tail=0.2,
        days=14,
        seed=seed,
    )
    split = temporal_split(log, test_days=1)
    with MemoryProbe() as memory:
        index = SessionIndex.from_clicks(
            split.train, max_sessions_per_item=2**62
        )
        columnar = ColumnarSessionIndex.from_session_index(index)
    models = {
        "vmis-columnar": VMISKNNColumnar(columnar, m=500, k=100),
        "vmis": VMISKNN(index, m=500, k=100),
    }
    prefixes = _prediction_prefixes(split, profile.fig3a_queries)
    heap_model = models["vmis"]
    vector_model = models["vmis-columnar"]
    mismatches = sum(
        1
        for prefix in prefixes
        if vector_model.find_neighbors(prefix)
        != heap_model.find_neighbors(prefix)
        or vector_model.recommend(prefix, 21) != heap_model.recommend(prefix, 21)
    )
    if mismatches:
        raise AssertionError(
            f"columnar scorer diverged from the heap path on "
            f"{mismatches}/{len(prefixes)} prefixes"
        )
    probes = _interleaved_best(models, prefixes, profile.rounds, clock)
    vector = probes["vmis-columnar"]
    heap = probes["vmis"]
    scorer = _interleaved_best(
        {"vmis-columnar": vector_model},
        prefixes,
        profile.rounds,
        clock,
        call=_recommend_slot,
    )["vmis-columnar"]
    p50_speedup = heap.percentile_ms(50) / vector.percentile_ms(50)
    total_speedup = heap.total_seconds() / vector.total_seconds()
    scorer_p50_ms = scorer.percentile_ms(50)
    scorer_rps = scorer.throughput_rps()
    metrics = dict(_latency_metrics(vector))
    metrics["throughput_rps"] = Metric(vector.throughput_rps(), "rps", HIGHER)
    metrics["peak_memory_bytes"] = Metric(
        float(memory.peak_bytes), "bytes", LOWER
    )
    metrics["vectorized_p50_speedup"] = Metric(p50_speedup, "x", HIGHER)
    metrics["vectorized_speedup"] = Metric(total_speedup, "x", HIGHER)
    metrics["recommend_p50_ms"] = Metric(scorer_p50_ms, "ms", LOWER)
    metrics["recommend_throughput_rps"] = Metric(scorer_rps, "rps", HIGHER)
    return ArmResult(
        metrics=metrics,
        workload={
            "regime": "fig3a-vectorized",
            "sessions": profile.fig3a_sessions,
            "items": profile.fig3a_items,
            "queries": len(prefixes),
            "rounds": profile.rounds,
            "m": 500,
            "k": 100,
        },
        notes=(
            f"columnar find_neighbors over {len(prefixes)} prefixes, "
            f"best of {profile.rounds} interleaved rounds; find_neighbors "
            f"and recommend bit-equal to the heap path on all "
            f"{len(prefixes)} prefixes",
            f"heap-path/columnar p50 speedup {p50_speedup:.1f}x "
            f"(aggregate {total_speedup:.1f}x)",
            f"whole scorer, recommend(prefix, 21): p50 "
            f"{scorer_p50_ms:.3f} ms, {scorer_rps:.0f} rps",
        ),
    )


def run_fig3b(
    profile: BenchProfile, seed: int, clock: Clock = time.perf_counter
) -> ArmResult:
    """Figure 3(b) regime: serenade-hist replay, cache-backed throughput."""
    log = generate_clickstream(
        num_sessions=profile.fig3b_sessions,
        num_items=profile.fig3b_items,
        num_categories=120,
        days=14,
        seed=seed,
    )
    split = temporal_split(log, test_days=1)
    with MemoryProbe() as memory:
        index = SessionIndex.from_clicks(split.train, max_sessions_per_item=500)
        model = VMISKNN(index, m=500, k=100, exclude_current_items=True)
    views: list[list[int]] = []
    for sequence in split.test_sequences().values():
        for cut in range(1, len(sequence)):
            views.append(session_view(sequence[:cut], ServingVariant.HIST))
    views = views[: profile.fig3b_steps] * profile.fig3b_epochs

    # Per-request latency, serially: this is what the SLA sees.
    for view in views[: min(50, len(views))]:
        model.recommend(view, how_many=21)
    serial: LatencyProbe | None = None
    for _ in range(profile.rounds):
        probe = LatencyProbe(clock)
        for view in views:
            probe.sample(lambda v=view: model.recommend(v, how_many=21))
        if serial is None:
            serial = probe
        else:
            serial.merge_best(probe)
    assert serial is not None

    # Sustained throughput through the cached engine, on this thread.
    batch_size = 256
    with BatchPredictionEngine(model, cache_size=8192) as engine:
        started = clock()
        for start in range(0, len(views), batch_size):
            engine.recommend_batch(views[start : start + batch_size], how_many=21)
        batched_seconds = clock() - started
        cache = engine.cache_info()
    batched_rps = len(views) / batched_seconds
    serial_rps = len(views) / serial.total_seconds()

    metrics = dict(_latency_metrics(serial))
    metrics["throughput_rps"] = Metric(batched_rps, "rps", HIGHER)
    metrics["peak_memory_bytes"] = Metric(float(memory.peak_bytes), "bytes", LOWER)
    metrics["cache_hit_rate"] = Metric(cache["hit_rate"], "fraction", HIGHER)
    metrics["batched_speedup"] = Metric(batched_rps / serial_rps, "x", HIGHER)
    return ArmResult(
        metrics=metrics,
        workload={
            "regime": "fig3b-serenade-hist-replay",
            "sessions": profile.fig3b_sessions,
            "items": profile.fig3b_items,
            "requests": len(views),
            "steps": min(profile.fig3b_steps, len(views)),
            "epochs": profile.fig3b_epochs,
            "rounds": profile.rounds,
            "batch_size": batch_size,
            "m": 500,
            "k": 100,
        },
        notes=(
            f"{len(views)} serenade-hist requests, serial latency best of "
            f"{profile.rounds} rounds; throughput via BatchPredictionEngine "
            f"(inline, cache 8192, hit rate {cache['hit_rate']:.1%})",
        ),
    )


def run_capacity(
    profile: BenchProfile, seed: int, clock: Clock = time.perf_counter
) -> ArmResult:
    """§4.2 regime: build-time peak memory + production extrapolation."""
    log = generate_clickstream(
        num_sessions=profile.capacity_sessions,
        num_items=profile.capacity_items,
        num_categories=1_200,
        mean_session_length=6.6,
        length_tail=0.16,
        days=30,
        seed=seed,
    )
    split = temporal_split(log, test_days=1)
    with MemoryProbe() as memory:
        index = SessionIndex.from_clicks(split.train, max_sessions_per_item=500)
    sample_estimate = measure_index(index, NATIVE)
    production = extrapolate(
        index,
        target_sessions=PAPER_SESSIONS,
        target_items=PAPER_ITEMS,
        schedule=NATIVE,
    )
    model = VMISKNN(index, m=500, k=100)
    prefixes = _prediction_prefixes(split, profile.capacity_queries)
    probes = _interleaved_best({"vmis": model}, prefixes, profile.rounds, clock)
    vmis = probes["vmis"]
    metrics = dict(_latency_metrics(vmis))
    metrics["throughput_rps"] = Metric(vmis.throughput_rps(), "rps", HIGHER)
    metrics["peak_memory_bytes"] = Metric(float(memory.peak_bytes), "bytes", LOWER)
    metrics["extrapolated_gib"] = Metric(
        production.total_gigabytes, "GiB", LOWER
    )
    return ArmResult(
        metrics=metrics,
        workload={
            "regime": "capacity-planning",
            "sessions": profile.capacity_sessions,
            "items": profile.capacity_items,
            "queries": len(prefixes),
            "rounds": profile.rounds,
            "m": 500,
            "target_sessions": PAPER_SESSIONS,
            "target_items": PAPER_ITEMS,
        },
        notes=(
            f"sample index {sample_estimate.total_gigabytes:.3f} GiB "
            f"(native schedule); extrapolated to production "
            f"{production.total_gigabytes:.1f} GiB (paper: ~13 GB)",
        ),
    )


def run_streaming(
    profile: BenchProfile, seed: int, clock: Clock = time.perf_counter
) -> ArmResult:
    """Streaming-ingest regime: commit-to-visible latency and staleness.

    Clicks are published to the in-process partitioned log in fixed-size
    chunks; after each chunk the consumer catches up completely, so one
    latency sample covers the full acked-click → visible-in-index path
    (publish, poll, watermark sealing, incremental apply, offset
    commit). Event-time staleness — how far the indexed head trails the
    log head because sessions are still open — is sampled at every chunk
    boundary; it depends only on the data, so it is identical across
    rounds and machines for a fixed seed.
    """
    log = generate_clickstream(
        num_sessions=profile.streaming_sessions,
        num_items=profile.streaming_items,
        num_categories=60,
        mean_session_length=8.0,
        length_tail=0.2,
        days=7,
        seed=seed,
    )
    clicks = log.clicks
    size = profile.streaming_chunk
    chunks = [clicks[start : start + size] for start in range(0, len(clicks), size)]
    policy = StreamingPolicy()

    def one_pass(probe: LatencyProbe | None, staleness: list[float] | None) -> int:
        stream = PartitionedLog(num_partitions=4)
        try:
            producer = ClickProducer(stream, "bench")
            pipeline = StreamingIndexer(
                stream, IncrementalIndexer(max_sessions_per_item=500), policy=policy
            )
            for chunk in chunks:
                def publish_and_catch_up(chunk: list = chunk) -> None:
                    producer.publish_all(chunk)
                    pipeline.run_until_caught_up()

                if probe is None:
                    publish_and_catch_up()
                else:
                    probe.sample(publish_and_catch_up)
                if staleness is not None:
                    staleness.append(pipeline.staleness_seconds())
            pipeline.flush()
            return pipeline.sessions_applied
        finally:
            stream.close()

    # Memory pass first, untimed: the probe must not overlap latencies.
    staleness_trajectory: list[float] = []
    with MemoryProbe() as memory:
        sessions_applied = one_pass(None, staleness_trajectory)
    best: LatencyProbe | None = None
    for _ in range(profile.rounds):
        probe = LatencyProbe(clock)
        one_pass(probe, None)
        if best is None:
            best = probe
        else:
            best.merge_best(probe)
    assert best is not None
    max_staleness = max(staleness_trajectory, default=0.0)

    metrics = dict(_latency_metrics(best))
    metrics["throughput_rps"] = Metric(
        len(clicks) / best.total_seconds(), "rps", HIGHER
    )
    metrics["peak_memory_bytes"] = Metric(float(memory.peak_bytes), "bytes", LOWER)
    metrics["max_staleness_seconds"] = Metric(max_staleness, "s", LOWER)
    return ArmResult(
        metrics=metrics,
        workload={
            "regime": "streaming-ingest",
            "sessions": profile.streaming_sessions,
            "items": profile.streaming_items,
            "events": len(clicks),
            "chunk": size,
            "chunks": len(chunks),
            "partitions": 4,
            "rounds": profile.rounds,
            "session_gap_seconds": policy.session_gap_seconds,
            "allowed_lateness_seconds": policy.allowed_lateness_seconds,
        },
        notes=(
            f"{len(clicks)} clicks through 4 log partitions in "
            f"{len(chunks)} chunks of {size}; per-chunk commit-to-visible "
            f"latency best of {profile.rounds} rounds",
            f"{sessions_applied} sessions sealed and applied; peak "
            f"event-time staleness {max_staleness:.0f} s "
            f"(gap {policy.session_gap_seconds:.0f} s)",
        ),
    )


def _flash_sale_trace(
    profile: BenchProfile, seed: int, split: TrainTestSplit
) -> list[TimedRequest]:
    """Deterministic flash-sale request trace over held-out sessions.

    Arrival instants come from the workload generator's flash-sale
    process; a fixed pool of concurrent "clients" (client ``i`` takes
    every ``pool_size``-th arrival) walks held-out sessions back to
    back, so the whole trace is a pure function of ``(profile, seed)``.
    """
    generator = WorkloadGenerator(seed=seed)
    arrivals = generator.flash_sale_arrival_times(
        profile.ring_duration, profile.ring_rate
    )
    sequences = [
        items for items in split.test_sequences().values() if len(items) >= 2
    ]
    if not sequences:
        raise ValueError("held-out day has no usable sessions")
    pool_size = 2 * profile.ring_pods
    walkers: dict[int, tuple[str, list[int], int]] = {}
    session_counter = 0
    next_sequence = 0
    trace: list[TimedRequest] = []
    for index, arrival in enumerate(arrivals):
        client = index % pool_size
        if client not in walkers:
            sequence = sequences[next_sequence % len(sequences)]
            next_sequence += 1
            walkers[client] = (f"s{session_counter}", sequence, 0)
            session_counter += 1
        session_key, sequence, position = walkers[client]
        trace.append(
            TimedRequest(
                arrival,
                RecommendationRequest(
                    session_key=session_key, item_id=sequence[position]
                ),
            )
        )
        position += 1
        if position >= len(sequence):
            del walkers[client]
        else:
            walkers[client] = (session_key, sequence, position)
    return trace


def run_ring(
    profile: BenchProfile, seed: int, clock: Clock = time.perf_counter
) -> ArmResult:
    """Replicated-ring regime: hedged vs unhedged tail under a straggler.

    One identical flash-sale trace is replayed twice through a replicated
    ring (R=2) where every pod carries a small base stall and exactly one
    pod is a hard straggler — once with deadline-derived hedged reads,
    once without. Latencies are virtual-clock arithmetic (injected stall
    plus the hedge race), so the record is bit-stable across machines;
    the wall ``clock`` is deliberately unused.
    """
    del clock  # virtual-clock arm: wall time would break determinism
    log = generate_clickstream(
        num_sessions=profile.ring_sessions,
        num_items=profile.ring_items,
        num_categories=60,
        days=14,
        seed=seed,
    )
    split = temporal_split(log, test_days=1)
    with MemoryProbe() as memory:
        index = SessionIndex.from_clicks(split.train, max_sessions_per_item=500)
    trace = _flash_sale_trace(profile, seed, split)
    straggler = "pod-0"
    schedule = ChaosSchedule(
        slowdowns=[
            PodSlowdown(
                at_time=0.0,
                pod_id=f"pod-{pod}",
                delay_seconds=profile.ring_base_stall_ms / 1e3,
            )
            for pod in range(1, profile.ring_pods)
        ]
        + [
            PodSlowdown(
                at_time=0.0,
                pod_id=straggler,
                delay_seconds=profile.ring_straggler_ms / 1e3,
            )
        ],
    )

    def replay(hedge_enabled: bool) -> ChaosReport:
        policy = ReplicationPolicy(
            replication_factor=2,
            hedge_enabled=hedge_enabled,
            budget_ms=SLA_BUDGET_MS,
        )
        simulated = SimulatedCluster.with_index(
            index,
            clock=VirtualClock(),
            num_pods=profile.ring_pods,
            replication=policy,
        )
        return simulated.run(trace, schedule)

    hedged = replay(True)
    unhedged = replay(False)
    recorder = hedged.latency
    p99_ms = recorder.percentile(99) * 1e3
    p99_unhedged_ms = unhedged.latency.percentile(99) * 1e3
    metrics = {
        "latency_p50_ms": Metric(recorder.percentile(50) * 1e3, "ms", LOWER),
        "latency_p90_ms": Metric(recorder.percentile(90) * 1e3, "ms", LOWER),
        "latency_p99_ms": Metric(p99_ms, "ms", LOWER),
        "sla_attainment": Metric(
            recorder.fraction_within(SLA_BUDGET_MS / 1e3), "fraction", HIGHER
        ),
        "throughput_rps": Metric(
            len(recorder.samples) / sum(recorder.samples), "rps", HIGHER
        ),
        "peak_memory_bytes": Metric(float(memory.peak_bytes), "bytes", LOWER),
        "latency_p99_unhedged_ms": Metric(p99_unhedged_ms, "ms", LOWER),
        "hedge_improvement": Metric(p99_unhedged_ms / p99_ms, "x", HIGHER),
    }
    ring = hedged.ring
    return ArmResult(
        metrics=metrics,
        workload={
            "regime": "ring-flash-sale-straggler",
            "sessions": profile.ring_sessions,
            "items": profile.ring_items,
            "pods": profile.ring_pods,
            "requests": len(trace),
            "duration_seconds": profile.ring_duration,
            "base_rate_rps": profile.ring_rate,
            "base_stall_ms": profile.ring_base_stall_ms,
            "straggler": straggler,
            "straggler_ms": profile.ring_straggler_ms,
            "replication_factor": 2,
            "hedge_fraction": ring.get("hedge_fraction"),
            "hedges_fired": ring.get("hedges_fired"),
            "hedge_wins": ring.get("hedge_wins"),
        },
        notes=(
            f"{len(trace)} flash-sale requests over {profile.ring_pods} pods "
            f"(1 straggler at {profile.ring_straggler_ms:.0f} ms), R=2",
            f"hedged p99 {p99_ms:.1f} ms vs unhedged {p99_unhedged_ms:.1f} ms "
            f"({p99_unhedged_ms / p99_ms:.1f}x); "
            f"{ring.get('hedges_fired')} hedges fired, "
            f"{ring.get('hedge_wins')} won",
        ),
    )


@dataclass(frozen=True)
class ArmSpec:
    """One registered arm: name, one-line role, and its runner."""

    name: str
    description: str
    run: Callable[[BenchProfile, int, Clock], ArmResult]


ARMS: dict[str, ArmSpec] = {
    "fig3a": ArmSpec(
        "fig3a",
        "Figure 3(a) microbenchmark: VMIS-kNN neighbour-search latency "
        "and the VS-kNN speedup",
        run_fig3a,
    ),
    "fig3a_vec": ArmSpec(
        "fig3a_vec",
        "Figure 3(a) vectorized sub-arm: columnar numpy scorer vs the "
        "interpreted heap path, bit-equal by construction",
        run_fig3a_vec,
    ),
    "fig3b": ArmSpec(
        "fig3b",
        "Figure 3(b) serving regime: serenade-hist replay latency/SLA "
        "and cached batched throughput",
        run_fig3b,
    ),
    "capacity": ArmSpec(
        "capacity",
        "§4.2 capacity planning: index build peak memory and the "
        "production-scale extrapolation",
        run_capacity,
    ),
    "streaming": ArmSpec(
        "streaming",
        "streaming ingestion: per-chunk commit-to-visible latency "
        "through the partitioned log and event-time staleness",
        run_streaming,
    ),
    "ring": ArmSpec(
        "ring",
        "replicated shard ring: flash-sale trace with one straggler pod, "
        "hedged vs unhedged tail latency on the virtual clock",
        run_ring,
    ),
}


def profile_to_dict(profile: BenchProfile) -> dict[str, object]:
    return asdict(profile)
