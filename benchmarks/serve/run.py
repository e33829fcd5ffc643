#!/usr/bin/env python3
"""The serve ledger: a request through the real front door, per layer.

    python3 benchmarks/serve/run.py --seed 2022            # everything
    python3 benchmarks/serve/run.py --workload pdp_closed --seed 1 \\
        --seconds 10 --trace 0                             # one gated run
    python3 benchmarks/serve/run.py --selfcheck | --smoke

See README.md beside this file for the glossary. The last line of
standard output of a ``--workload`` run is the result object the driver
reads; everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
    # Without the program there is nothing to measure; never fall back to
    # some other installed copy of it.
    sys.exit(f"{REPO_ROOT / 'src' / 'repro'} not found: run from a checkout of the repo")
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.cli.main import build_parser  # noqa: E402
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar  # noqa: E402
from repro.core.index import SessionIndex  # noqa: E402
from repro.index.serialization import load_index, save_index  # noqa: E402
from repro.serving.app import ServingCluster  # noqa: E402
from repro.serving.http import SerenadeHTTPServer  # noqa: E402
from repro.serving.resilience import ResiliencePolicy  # noqa: E402
from repro.serving.ring import ReplicationPolicy  # noqa: E402

import reference  # noqa: E402
from childserver import ChildServer, serve_argv  # noqa: E402
from loadgen import (  # noqa: E402
    PhaseReport,
    PhaseResult,
    gc_paused,
    merge_results,
    run_phase,
    split_phase,
    validate,
)
from oracle import Oracle  # noqa: E402
from spans import (  # noqa: E402
    ROOT_SPAN,
    SPAN_NAMES,
    Tracer,
    instrument,
    instrument_model,
    layer_metrics,
)
from workloads import (  # noqa: E402
    FULL_SHAPE,
    SMOKE_SHAPE,
    Dataset,
    WorkloadSpec,
    build_dataset,
    poisson_schedule,
    reference_stream,
)


def split_cpus() -> tuple[set[int], set[int] | None]:
    """Cores for the load generator and for the server under test.

    Left to the scheduler, the two bounce between the cores of a small
    box and every timing swings by tens of percent between identical
    runs. The load generator keeps the first core and the server gets
    the others, as if they were two machines. On one core nothing is
    pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), None
    return {cpus[0]}, set(cpus[1:])


LEDGER = json.loads((HERE / "ledger.json").read_text())
MANIFEST_PATH = REPO_ROOT / "BENCHMARK.json"
WORK_ROOT = REPO_ROOT / ".bench_work"
MAX_SESSIONS_PER_ITEM = LEDGER["dataset"]["max_sessions_per_item"]
SETUP_REPETITIONS = 5
SETUP_CONTROL_CALLS = 4  # heavy control calls before and after each set-up
CLIENT_CPUS, SERVER_CPUS = split_cpus()
_SPEC_FIELDS = {field.name for field in fields(WorkloadSpec)}
SPECS = {
    row["name"]: WorkloadSpec(
        **{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in row.items()
            if key in _SPEC_FIELDS
        }
    )
    for row in LEDGER["workloads"]
}
# ring_r2 is defined and runnable but not gated: see README.md.
GATED = [row["name"] for row in LEDGER["workloads"] if row["gated"]]
END_TO_END = {row["name"]: row for row in LEDGER["end_to_end"]}
PER_LAYER = {
    f"{span['span']}.{metric['suffix']}": metric
    for span in LEDGER["spans"]
    for metric in LEDGER["span_metrics"]
} | {row["name"]: row for row in LEDGER["counters"]}


def manifest() -> dict:
    """BENCHMARK.json, as the ledger defines it."""
    return {
        "command": ["python3", "benchmarks/serve/run.py"],
        "paths": ["benchmarks/serve"],
        "run_seconds": LEDGER["reference_seconds"],
        "workloads": [
            {"name": row["name"], "why": row["why"]}
            for row in LEDGER["workloads"]
            if row["gated"]
        ],
        "end_to_end": [
            {key: row[key] for key in ("name", "unit", "better", "bound")}
            for row in LEDGER["end_to_end"]
        ],
        "per_layer": [
            {"name": name, "unit": row["unit"], "better": row["better"]}
            for name, row in PER_LAYER.items()
        ],
    }


# -- building blocks ---------------------------------------------------------


@dataclass
class Artifact:
    index: SessionIndex
    path: Path
    build_s: float
    size_bytes: int


def build_artifact(dataset: Dataset, workdir: Path) -> Artifact:
    """What the offline job does each day: build the index and save it."""
    started = time.perf_counter()
    index = SessionIndex.from_clicks(
        dataset.train, max_sessions_per_item=MAX_SESSIONS_PER_ITEM
    )
    build_s = time.perf_counter() - started
    path = workdir / "index.vmis"
    size = save_index(index, path)
    return Artifact(index, path, build_s, size)


def scaled(count: int, scale: float) -> int:
    return max(2, round(count * scale))


def schedule_for(spec: WorkloadSpec, dataset: Dataset, count: int) -> list[float] | None:
    if spec.loop != "open":
        return None
    return poisson_schedule(dataset.seed, count, spec.rate)


def percentile_ms(values_s: list[float], percentile: float) -> float:
    return float(np.percentile(values_s, percentile)) * 1e3 if values_s else 0.0


def loadgen_diagnostics(report: PhaseReport) -> dict[str, float]:
    """The ungated numbers the load generator sees on any phase."""
    return {
        "http.connections_opened_per_op": report.connects / report.attempted,
        "http.response_bytes_mean": report.response_bytes / report.ok if report.ok else 0.0,
        "resilience.shed_share": report.shed / report.attempted,
        "resilience.degraded_share": report.degraded / report.ok if report.ok else 0.0,
        "loadgen.send_lateness_p90_ms": percentile_ms(report.lateness_s, 90),
        "loadgen.throughput_rps": report.throughput,
        "loadgen.latency_p90_ms": report.latency_ms(90),
        "loadgen.latency_p99_ms": report.latency_ms(99),
        "loadgen.latency_max_ms": report.latency_ms(100),
        "loadgen.client_cpu_ms_per_op": report.client_cpu_s * 1e3 / report.attempted,
        "loadgen.error_rate": report.error_rate,
        "loadgen.oracle_checked": float(report.oracle_checked),
    }


# -- the end-to-end run ------------------------------------------------------


def segment_reading(result: PhaseResult) -> tuple[float, float]:
    """Median latency (due to body read) and sessions per second of the
    operations of one segment that were answered 200."""
    answered = [
        (op, exchange)
        for op, exchange in zip(result.ops, result.exchanges)
        if exchange.status == 200
    ]
    if not answered:
        return math.nan, 0.0
    return (
        statistics.median(exchange.done - exchange.due for _, exchange in answered),
        sum(op.sessions for op, _ in answered) / result.wall_s,
    )


def run_end_to_end(
    dataset: Dataset,
    spec: WorkloadSpec,
    scale: float,
    workdir: Path,
    setup_repetitions: int = SETUP_REPETITIONS,
) -> tuple[dict[str, float], dict[str, float], PhaseReport]:
    """One workload against a child-process server, tracing off.

    Returns the end-to-end metrics, the diagnostics, and the validated
    phase. Set-up (index build, save, spawn to healthy) is repeated, each
    time between a few heavy calls to the control server; the last server
    spawned is the one measured. The timed phase is sent as short
    segments, each straight after a segment of the same length to the
    control server. The time-based metrics are real / control in the
    control's reference units (see reference.py); their raw values and
    the control's own go to the diagnostics.
    """
    count = scaled(spec.count, scale)
    timed = spec.timed_ops(dataset, count)
    warmup = spec.warmup_ops(dataset, count, scaled(spec.warmup, scale))
    schedule = schedule_for(spec, dataset, count)
    baseline = LEDGER["controls"][spec.control]
    control_ops = reference_stream(spec.segment_ops, baseline["work"])
    # Set-up is compute-bound on every workload, so it is compared with
    # the compute-bound control.
    gear = LEDGER["controls"]["heavy"]
    gear_ops = reference_stream(SETUP_CONTROL_CALLS, gear["work"])
    setups: list[tuple[float, float]] = []  # (set-up, control p50 around it), seconds
    with ChildServer(reference.ARGV, workdir, SERVER_CPUS) as control:
        for repetition in range(setup_repetitions):
            before = run_phase(control.port, gear_ops)
            started = time.perf_counter()
            artifact = build_artifact(dataset, workdir)
            with ChildServer(
                serve_argv(artifact.path, spec.server_flags), workdir, SERVER_CPUS
            ) as server:
                elapsed = time.perf_counter() - started
                around = merge_results([before, run_phase(control.port, gear_ops)])
                setups.append((elapsed, segment_reading(around)[0]))
                if repetition < setup_repetitions - 1:
                    continue
                run_phase(control.port, control_ops * 2)  # untimed, like the warm-up
                run_phase(server.port, warmup, server_alive=server.alive)
                results, control_results = [], []
                with gc_paused():
                    control_cpu_s, cpu_s = -control.cpu_seconds(), -server.cpu_seconds()
                    for segment, arrivals in split_phase(
                        timed, schedule, math.ceil(count / spec.segment_ops)
                    ):
                        control_results.append(run_phase(control.port, control_ops))
                        results.append(
                            run_phase(
                                server.port, segment, spec.connections, arrivals, server.alive
                            )
                        )
                    control_cpu_s += control.cpu_seconds()
                    cpu_s += server.cpu_seconds()
                rss_mb = server.peak_rss_mb()
                try:
                    health = json.loads(server.get("/healthz")[1])
                    scrape_ok = server.get("/metrics")[0] == 200
                except (OSError, ValueError) as failure:
                    # The child is gone; every op it did not answer has
                    # already been counted as failed.
                    print(
                        f"post-run scrape failed: {failure}\n{server.log_tail()}",
                        file=sys.stderr,
                    )
                    health, scrape_ok = {}, False
    result = merge_results(results)
    report = validate(result, Oracle(artifact.index), spec.oracle_every)
    control_result = merge_results(control_results)
    if any(exchange.status != 200 for exchange in control_result.exchanges):
        raise RuntimeError("the control server failed a request: nothing to compare with")
    answered = sum(1 for exchange in result.exchanges if exchange.status)
    pairs = [
        (segment_reading(base), segment_reading(real))
        for base, real in zip(control_results, results)
    ]

    def against_control(field: int) -> float:
        """Median over the segment pairs of real / control (segments the
        real server answered nothing of are failures, not timings)."""
        ratios = [real[field] / base[field] for base, real in pairs if real[1] > 0]
        return statistics.median(ratios) if ratios else math.nan

    raw_cpu_ms = cpu_s * 1e3 / answered if answered else math.nan
    control_cpu_ms = control_cpu_s * 1e3 / len(control_result.exchanges)
    metrics = {
        "latency_p50_ms": baseline["p50_ms"] * against_control(0),
        "throughput_rps": baseline["rps"] * against_control(1),
        "sla_attainment": report.sla_attainment,
        "success_rate": 1.0 - report.error_rate,
        "server_cpu_ms_per_op": baseline["cpu_ms_per_op"] * raw_cpu_ms / control_cpu_ms,
        "server_rss_mb": rss_mb,
        "setup_s": gear["p50_ms"]
        / 1e3
        * statistics.median(elapsed / control_s for elapsed, control_s in setups),
    }
    control_p50_s, control_rps = segment_reading(control_result)
    cache = health.get("result_cache", {})
    diagnostics = {
        "raw.latency_p50_ms": report.latency_ms(50),
        "raw.server_cpu_ms_per_op": raw_cpu_ms,
        "raw.setup_s": statistics.median(elapsed for elapsed, _ in setups),
        "control.latency_p50_ms": control_p50_s * 1e3,
        "control.throughput_rps": control_rps,
        "control.cpu_ms_per_op": control_cpu_ms,
        "control.startup_s": control.startup_s,
    }
    diagnostics |= loadgen_diagnostics(report) | {
        "loadgen.generate_s": dataset.generate_s,
        "samples": float(report.ok),
        "wall_s": report.wall_s,
        "healthz.requests_served": float(health.get("requests_served", math.nan)),
        "healthz.cache_hit_rate": float(cache.get("hit_rate", math.nan)),
        "metrics_scrape_ok": float(scrape_ok),
    }
    return metrics, diagnostics, report


# -- the traced run ----------------------------------------------------------


def build_cluster(artifact_path: Path, flags: tuple[str, ...]) -> ServingCluster:
    """The cluster ``repro serve`` builds, from the CLI's own defaults."""
    args = build_parser().parse_args(["serve", str(artifact_path), *flags])
    index = load_index(args.index)
    resilience = (
        None
        if args.no_guardrails
        else ResiliencePolicy(budget_ms=args.sla_ms, queue_capacity=args.max_inflight)
    )
    replication = (
        ReplicationPolicy(
            replication_factor=args.replication,
            virtual_nodes=args.vnodes,
            hedge_enabled=args.replication >= 2,
            hedge_fraction=args.hedge_fraction,
            budget_ms=args.sla_ms,
        )
        if args.replication >= 1
        else None
    )
    return ServingCluster.with_index(
        index,
        num_pods=args.pods,
        m=args.m,
        k=args.k,
        engine=args.engine,
        cache_size=args.cache_size,
        resilience=resilience,
        wal_dir=args.wal_dir,
        replication=replication,
    )


def close_cluster(cluster: ServingCluster) -> None:
    for server in cluster.pods.values():
        server.recommender.close()
    cluster.batch_engine().close()


def replay_in_process(
    artifact: Artifact,
    spec: WorkloadSpec,
    warmup: list,
    timed: list,
    schedule: list[float] | None,
    oracle: Oracle,
    tracer: Tracer | None,
) -> tuple[PhaseReport, dict[str, float]]:
    """Serve ``timed`` from an in-process stack over a real socket, one
    connection; with a tracer, every layer boundary records a span.
    Returns the validated phase and the counts read off the cluster."""
    cluster = build_cluster(artifact.path, spec.server_flags)
    undo = []
    if tracer is not None:
        base_factory = cluster.committed_factory
        cluster.rollout_index(lambda: instrument_model(tracer, base_factory()))
    http_server = SerenadeHTTPServer(cluster, port=0)
    try:
        if tracer is not None:
            undo = instrument(tracer, http_server)
        http_server.start()
        run_phase(http_server.port, warmup)
        stores = [server.sessions for server in cluster.pods.values()]
        cache_before = cluster.cache_info()
        log_before = sum(store.replication_offset for store in stores)
        hedges_before = cluster.ring_info().get("hedges_fired", 0)
        result = run_phase(
            http_server.port,
            timed,
            schedule=schedule,
            span=tracer.request if tracer is not None else None,
        )
        cache = cluster.cache_info()
        lookups = (
            cache["hits"] + cache["misses"] - cache_before["hits"] - cache_before["misses"]
        )
        writes = sum(1 for op in timed if op.consent)
        started = time.perf_counter()
        http_server.service.render_metrics()
        render_ms = (time.perf_counter() - started) * 1e3
        counts = {
            "batch.cache_hit_rate": (cache["hits"] - cache_before["hits"]) / lookups
            if lookups
            else 0.0,
            "session_store.live_sessions": float(sum(len(store) for store in stores)),
            "ring.repl_log_bytes_per_write": (
                sum(store.replication_offset for store in stores) - log_before
            )
            / writes
            if writes
            else 0.0,
            "ring.hedges_fired_share": (
                cluster.ring_info().get("hedges_fired", 0) - hedges_before
            )
            / len(timed),
            "monitoring.render_metrics_ms": render_ms,
        }
    finally:
        http_server.stop()
        for restore in undo:
            restore()
        close_cluster(cluster)
    return validate(result, oracle, spec.oracle_every), counts


def find_neighbors_replay(
    columnar: ColumnarSessionIndex, tracer: Tracer
) -> tuple[dict[int, float], int]:
    """Time ``find_neighbors`` alone over the views the scorer saw.

    Returns seconds per request (summed over its views) and the call
    count. The scorer reaches its neighbour search through a private
    method, so this is a side replay, not a span of the request tree.
    """
    model = VMISKNNColumnar(columnar, m=500, k=100, exclude_current_items=True)
    per_request: dict[int, float] = {}
    calls = 0
    for span in tracer.spans:
        if span.name != "colindex.recommend":
            continue
        view = list(span.note)
        started = time.perf_counter()
        model.find_neighbors(view)
        elapsed = time.perf_counter() - started
        per_request[span.request] = per_request.get(span.request, 0.0) + elapsed
        calls += 1
    return per_request, calls


def run_traced(
    dataset: Dataset,
    spec: WorkloadSpec,
    scale: float,
    workdir: Path,
    trace_out: Path,
) -> tuple[dict[str, float], list[PhaseReport]]:
    """The per-layer run: an untraced and a traced in-process replay of
    the first ``trace_count`` operations, plus the set-up parts. Returns
    the per-layer metrics and both validated replays."""
    count = scaled(spec.trace_count, scale)
    timed = spec.timed_ops(dataset, count)  # every stream is prefix-stable
    warmup = spec.warmup_ops(dataset, count, scaled(spec.warmup, scale))
    schedule = schedule_for(spec, dataset, count)
    artifact = build_artifact(dataset, workdir)
    with ChildServer(
        serve_argv(artifact.path, spec.server_flags), workdir, SERVER_CPUS
    ) as child:
        startup_s = child.startup_s
    started = time.perf_counter()
    columnar = ColumnarSessionIndex.from_session_index(artifact.index)
    convert_s = time.perf_counter() - started
    index_bytes = sum(
        getattr(columnar, name).nbytes for name in type(columnar).__frozen_buffers__
    )

    oracle = Oracle(artifact.index)  # both replays ask it the same questions
    untraced, _ = replay_in_process(artifact, spec, warmup, timed, schedule, oracle, None)
    tracer = Tracer()
    traced, cluster_counts = replay_in_process(
        artifact, spec, warmup, timed, schedule, oracle, tracer
    )
    tracer.write_jsonl(trace_out)

    metrics = layer_metrics(tracer.spans, SPAN_NAMES)
    roundtrip_s = sum(span.end - span.start for span in tracer.spans if span.name == ROOT_SPAN)
    neighbor_s, neighbor_calls = find_neighbors_replay(columnar, tracer)
    values = list(neighbor_s.values())
    metrics |= {
        "colindex.find_neighbors.calls": float(neighbor_calls),
        "colindex.find_neighbors.self_us_p50": percentile_ms(values, 50) * 1e3,
        "colindex.find_neighbors.self_us_p90": percentile_ms(values, 90) * 1e3,
        "colindex.find_neighbors.share": sum(values) / roundtrip_s if roundtrip_s else 0.0,
    }
    metrics["colindex.item_scoring_us_p50"] = max(
        0.0,
        metrics["colindex.recommend.self_us_p50"]
        - metrics["colindex.find_neighbors.self_us_p50"],
    )
    applied = sum(
        span.note for span in tracer.spans if span.name == "ring.tail_ship" and span.note
    )
    writes = sum(1 for op in timed if op.consent)
    untraced_mean = statistics.fmean(untraced.latencies_s or [math.nan])
    traced_mean = statistics.fmean(traced.latencies_s or [math.nan])
    metrics |= loadgen_diagnostics(untraced)
    metrics |= cluster_counts
    metrics |= {
        "ring.records_applied_per_write": applied / writes if writes else 0.0,
        "index.build_s": artifact.build_s,
        "index.artifact_bytes": float(artifact.size_bytes),
        "colindex.convert_s": convert_s,
        "colindex.index_bytes": float(index_bytes),
        "cli.serve_startup_s": startup_s,
        "loadgen.generate_s": dataset.generate_s,
        "loadgen.trace_overhead_share": (traced_mean - untraced_mean) / untraced_mean,
    }
    return metrics, [untraced, traced]


# -- reporting ---------------------------------------------------------------


def result_object(metrics: dict[str, float], units: dict, reports: list[PhaseReport]) -> dict:
    """The line the driver reads; a traced run answers for both replays."""
    return {
        "correct": all(
            report.oracle_mismatches == 0
            and "malformed body" not in report.failures
            and report.oracle_checked > 0
            for report in reports
        ),
        "attempted": sum(report.attempted for report in reports),
        "failed": sum(report.failed for report in reports),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]["unit"]} for name in units
        },
    }


def print_metrics(workload: str, metrics: dict[str, float], units: dict) -> None:
    for name, value in metrics.items():
        unit = units[name]["unit"] if name in units else ""
        print(f"{workload:<11} {name:<40} {value:>14.4f} {unit}")


def within_error_bound(reports: list[PhaseReport]) -> bool:
    return all(
        report.error_rate <= END_TO_END["success_rate"]["bound"] for report in reports
    )


def report_failures(workload: str, report: PhaseReport) -> None:
    if report.failed:
        print(f"{workload}: {report.failed}/{report.attempted} failed: {report.failures}")


@dataclass
class Session:
    """One invocation: its scale, dataset and scratch directory."""

    scale: float
    dataset: Dataset
    workdir: Path
    setup_repetitions: int = SETUP_REPETITIONS

    def end_to_end(self, workload: str) -> tuple[dict[str, float], list[PhaseReport]]:
        metrics, diagnostics, report = run_end_to_end(
            self.dataset, SPECS[workload], self.scale, self.workdir, self.setup_repetitions
        )
        print_metrics(workload, metrics, END_TO_END)
        print_metrics(workload, diagnostics, PER_LAYER)
        print(
            f"{workload}: {report.attempted} attempted, {report.failed} failed, "
            f"{report.ok} latency samples, "
            f"{report.oracle_checked} answers recomputed by the oracle"
        )
        report_failures(workload, report)
        return metrics, [report]

    def traced(
        self, workload: str, trace_out: Path | None
    ) -> tuple[dict[str, float], list[PhaseReport]]:
        trace_out = trace_out or WORK_ROOT / f"spans-{workload}.jsonl"
        metrics, reports = run_traced(
            self.dataset, SPECS[workload], self.scale, self.workdir, trace_out
        )
        print_metrics(workload, metrics, PER_LAYER)
        tree = sum(
            metrics[f"{name}.share"] for name in SPAN_NAMES if name != "colindex.find_neighbors"
        )
        print(f"{workload}: span shares sum to {tree:.4f}; spans written to {trace_out}")
        for report in reports:
            report_failures(workload, report)
        return metrics, reports


def run_everything(session: Session, trace_out: Path | None) -> tuple[dict, bool]:
    """Every workload end to end, then traced. Returns metrics by
    workload and whether every error rate stayed within its bound."""
    results: dict[str, dict[str, float]] = {}
    healthy = True
    for workload in SPECS:
        metrics, reports = session.end_to_end(workload)
        layers, traced_reports = session.traced(
            workload, trace_out and trace_out.with_name(f"{trace_out.stem}-{workload}.jsonl")
        )
        healthy &= within_error_bound(reports + traced_reports)
        results[workload] = metrics | layers
    return results, healthy


def selfcheck(session: Session) -> bool:
    """Two sets of end-to-end runs of the same code must agree within
    the benchmark's own bounds, on every gated workload."""
    first = {name: session.end_to_end(name)[0] for name in GATED}
    second = {name: session.end_to_end(name)[0] for name in GATED}
    agreed = True
    print(f"{'workload':<11} {'metric':<22} {'first':>12} {'second':>12} {'change':>9} {'bound':>7}")
    for workload in GATED:
        for name, row in END_TO_END.items():
            a, b = first[workload][name], second[workload][name]
            worse = (b - a) / a if row["better"] == "lower" else (a - b) / a
            ok = worse <= row["bound"]
            agreed &= ok
            print(
                f"{workload:<11} {name:<22} {a:>12.4f} {b:>12.4f} {worse:>+9.2%} "
                f"{row['bound']:>7.3f}{'' if ok else '  MISS'}"
            )
    return agreed


def smoke(session: Session) -> bool:
    """Every name of BENCHMARK.json comes out, finite, on every workload."""
    ok = True
    if json.loads(MANIFEST_PATH.read_text()) != manifest():
        print("BENCHMARK.json differs from ledger.json (run --write-manifest)")
        ok = False
    results, healthy = run_everything(session, None)
    for workload, metrics in results.items():
        for name in [*END_TO_END, *PER_LAYER]:
            if not math.isfinite(metrics.get(name, math.nan)):
                print(f"{workload}: {name} is missing or not finite")
                ok = False
    return ok and healthy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(SPECS))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument(
        "--seconds",
        type=float,
        default=LEDGER["reference_seconds"],
        help="run length; operation counts are frozen per second of it, "
        "so a faster server finishes sooner instead of being sent more",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, help="span JSONL path")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--out", type=Path, help="write every metric of a full run as JSON")
    args = parser.parse_args()

    if args.write_manifest:
        MANIFEST_PATH.write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0

    # A terminated run still leaves its ``with`` blocks, which stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.sched_setaffinity(0, CLIENT_CPUS)
    scale = (1 / 20 if args.smoke else 1.0) * args.seconds / LEDGER["reference_seconds"]
    dataset = build_dataset(args.seed, SMOKE_SHAPE if args.smoke else FULL_SHAPE)
    print(
        f"seed {args.seed}: {len(dataset.train)} training clicks, "
        f"{len(dataset.held_out)} held-out sessions, generated in {dataset.generate_s:.2f} s"
    )
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    session = Session(scale, dataset, workdir, 1 if args.smoke else SETUP_REPETITIONS)
    try:
        if args.smoke:
            return 0 if smoke(session) else 1
        if args.selfcheck:
            return 0 if selfcheck(session) else 1
        if args.workload is None:
            results, healthy = run_everything(session, args.trace_out)
            if args.out:
                args.out.write_text(json.dumps(results, indent=2) + "\n")
            return 0 if healthy else 1
        if args.trace:
            metrics, reports = session.traced(args.workload, args.trace_out)
            units = PER_LAYER
        else:
            metrics, reports = session.end_to_end(args.workload)
            units = END_TO_END
        result = result_object(metrics, units, reports)
        if not all(math.isfinite(metric["value"]) for metric in result["metrics"].values()):
            print("a metric could not be measured (failures above): no result line")
            return 1
        print(json.dumps(result, allow_nan=False))
        return 0 if within_error_bound(reports) else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
