"""The gate arms: fig3a / fig3a_vec / streaming as plain callables.

Each arm wraps one micro-benchmark regime in a function the structured
runner can execute outside pytest:

* **fig3a** — the Figure 3(a) microbenchmark regime: heavy posting
  lists, VMIS-kNN ``find_neighbors`` latency, plus the VS-kNN speedup
  ratio the paper headlines;
* **fig3a_vec** — the same workload on the columnar scorer every pod
  serves with, checked bit for bit against the heap path before timing;
* **streaming** — the §7-future-work ingestion regime: clicks published
  through the partitioned event log in chunks, each chunk's
  commit-to-visible latency (publish ack → index catch-up) measured
  end to end, plus the event-time staleness the sealing policy leaves
  behind.

What a request through the front door costs is the serve ledger's
question (``benchmarks/serve/run.py``), not an arm's; ``docs/benchmarks.md``
says which command answers which question.

Arms follow the repo's timing discipline (CONTRIBUTING): interleaved
rounds with per-call best-of merging, warm-up before measurement, and
memory probes never active while latencies are being taken. Every knob
that grows the workload lives in :class:`BenchProfile`, so the quick CI
profile, the full profile and the smoke profile used by tests are data,
not code paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.bench.probes import LatencyProbe, MemoryProbe
from repro.bench.schema import HIGHER, LOWER, Metric
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
from repro.core.vsknn import VSKNN
from repro.data.split import TrainTestSplit, temporal_split
from repro.data.synthetic import generate_clickstream
from repro.index.maintenance import IncrementalIndexer
from repro.streaming import (
    ClickProducer,
    PartitionedLog,
    StreamingIndexer,
    StreamingPolicy,
)

Clock = Callable[[], float]

#: The serving SLA every arm reports attainment against (PR 2's budget).
SLA_BUDGET_MS = 50.0


@dataclass(frozen=True)
class BenchProfile:
    """Workload sizes of one run regime (quick CI / full / test smoke)."""

    name: str
    rounds: int
    fig3a_sessions: int
    fig3a_items: int
    fig3a_queries: int
    streaming_sessions: int
    streaming_items: int
    #: clicks published per chunk; one commit-to-visible sample per chunk.
    streaming_chunk: int


PROFILES: dict[str, BenchProfile] = {
    # The CI gate regime: small enough to finish in seconds, large
    # enough that percentiles are not dominated by a handful of calls.
    "quick": BenchProfile(
        name="quick",
        rounds=3,
        fig3a_sessions=8_000,
        fig3a_items=800,
        fig3a_queries=120,
        streaming_sessions=4_000,
        streaming_items=800,
        streaming_chunk=512,
    ),
    # Mirrors the pytest benchmark arms' workload sizes.
    "full": BenchProfile(
        name="full",
        rounds=3,
        fig3a_sessions=50_000,
        fig3a_items=1_200,
        fig3a_queries=150,
        streaming_sessions=20_000,
        streaming_items=2_500,
        streaming_chunk=1_024,
    ),
    # Sub-second sizes for the test suite; never use for real baselines.
    "smoke": BenchProfile(
        name="smoke",
        rounds=2,
        fig3a_sessions=1_200,
        fig3a_items=300,
        fig3a_queries=40,
        streaming_sessions=600,
        streaming_items=200,
        streaming_chunk=256,
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
    "streaming": ArmSpec(
        "streaming",
        "streaming ingestion: per-chunk commit-to-visible latency "
        "through the partitioned log and event-time staleness",
        run_streaming,
    ),
}

