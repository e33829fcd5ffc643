"""Command-line interface: the operational surface of the reproduction.

``python -m repro <command>`` drives the full lifecycle a Serenade
operator needs — data generation, the daily index build, offline
evaluation and hyperparameter search, ad-hoc recommendations, and the
HTTP serving component:

.. code-block:: bash

    python -m repro generate --profile ecom-1m-sim --scale 0.01 --out clicks.tsv
    python -m repro stats clicks.tsv
    python -m repro build-index clicks.tsv --m 500 --out daily.vmis
    python -m repro recommend daily.vmis --session 17,42 --count 5
    python -m repro evaluate clicks.tsv --m 500 --k 100
    python -m repro grid-search clicks.tsv --ks 50,100 --ms 100,500
    python -m repro index build clicks.tsv --registry registry/
    python -m repro index promote --registry registry/ --clicks clicks.tsv
    python -m repro index list --registry registry/
    python -m repro bench run --profile quick --out /tmp/bench
    python -m repro bench compare --candidate /tmp/bench
    python -m repro bench list
    python -m repro stream produce clicks.tsv --log-dir events/
    python -m repro stream consume --log-dir events/ --out stream.vmis
    python -m repro stream status --log-dir events/
    python -m repro serve daily.vmis --port 8080
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import Callable, Iterable, Sequence


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# -- arguments, one function per verb ----------------------------------------
#
# A verb's arguments and its command import what that verb needs, inside the
# function: ``python -m repro serve`` builds only the ``serve`` sub-parser
# and so loads the serving stack and nothing else (tests/cli/test_imports.py).

def _generate_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.data.datasets import dataset_names

    parser.add_argument(
        "--profile",
        choices=dataset_names(),
        default=None,
        help="Table 1 dataset profile (default: generic generator)",
    )
    parser.add_argument("--scale", type=float, default=0.01)
    parser.add_argument("--sessions", type=int, default=5_000)
    parser.add_argument("--items", type=int, default=1_000)
    parser.add_argument("--days", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", required=True, help="output TSV path")


def _stats_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("clicks", help="click log TSV")


def _sessionize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("events", help="user event TSV")
    parser.add_argument(
        "--gap", type=int, default=1800, help="inactivity gap in seconds"
    )
    parser.add_argument("--max-length", type=int, default=None)
    parser.add_argument("--out", required=True, help="click log TSV")


def _build_index_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("clicks", help="click log TSV")
    parser.add_argument("--m", type=int, default=500, help="postings per item")
    parser.add_argument("--out", required=True, help="index artifact path")


def _recommend_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("index", help="index artifact (.vmis)")
    parser.add_argument(
        "--session", type=_int_list, required=True, help="comma-separated item ids"
    )
    parser.add_argument("--m", type=int, default=500)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--count", type=int, default=21)


def _evaluate_arguments(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.registry import DEFAULT_MODEL, registered_models

    parser.add_argument("clicks", help="click log TSV")
    parser.add_argument(
        "--model",
        default=DEFAULT_MODEL,
        help=f"registered recommender ({', '.join(registered_models())})",
    )
    parser.add_argument("--m", type=int, default=500)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--cutoff", type=int, default=20)
    parser.add_argument("--test-days", type=float, default=1.0)
    parser.add_argument("--max-predictions", type=int, default=None)
    parser.add_argument(
        "--batch-size",
        type=int,
        default=0,
        help="replay through recommend_batch in chunks (0 = serial)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="batch engine LRU result cache entries (0 = off)",
    )


def _grid_search_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("clicks", help="click log TSV")
    parser.add_argument("--ks", type=_int_list, default=[50, 100, 500])
    parser.add_argument("--ms", type=_int_list, default=[100, 500, 1000])
    parser.add_argument("--metric", default="mrr")
    parser.add_argument("--cutoff", type=int, default=20)
    parser.add_argument("--max-predictions", type=int, default=500)


def _experiment_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="experiment config JSON path")
    parser.add_argument(
        "--out", default=None, help="optional JSON results output path"
    )


def _index_arguments(parser: argparse.ArgumentParser) -> None:
    index_sub = parser.add_subparsers(dest="index_command", required=True)

    index_build = index_sub.add_parser(
        "build", help="validate a click log, build and register a candidate"
    )
    index_build.add_argument("clicks", help="click log TSV")
    index_build.add_argument(
        "--registry", required=True, help="index registry directory"
    )
    index_build.add_argument("--m", type=int, default=500)
    index_build.add_argument(
        "--timestamp-policy",
        choices=["repair", "reject"],
        default="repair",
        help="non-monotonic session timestamps: clamp forward or quarantine",
    )
    index_build.add_argument(
        "--bot-policy",
        choices=["reject", "repair"],
        default="reject",
        help="bot-like sessions: quarantine or truncate to the click cap",
    )
    index_build.add_argument(
        "--max-session-clicks",
        type=int,
        default=200,
        help="sessions longer than this are treated as bots",
    )
    index_build.add_argument(
        "--max-quarantine-rate",
        type=float,
        default=0.25,
        help="refuse the build when more than this fraction is quarantined",
    )

    index_promote = index_sub.add_parser(
        "promote",
        help="canary-gate a registered candidate and move CURRENT on pass",
    )
    index_promote.add_argument(
        "--registry", required=True, help="index registry directory"
    )
    index_promote.add_argument(
        "--version",
        default=None,
        help="candidate version (default: newest registered)",
    )
    index_promote.add_argument(
        "--clicks",
        required=True,
        help="click log TSV providing the holdout slice",
    )
    index_promote.add_argument("--test-days", type=float, default=1.0)
    index_promote.add_argument("--max-recall-drop", type=float, default=0.10)
    index_promote.add_argument("--max-mrr-drop", type=float, default=0.10)
    index_promote.add_argument("--max-predictions", type=int, default=2000)
    index_promote.add_argument("--gate-m", type=int, default=500)
    index_promote.add_argument("--gate-k", type=int, default=100)

    index_rollback = index_sub.add_parser(
        "rollback", help="move CURRENT back to the previous good version"
    )
    index_rollback.add_argument(
        "--registry", required=True, help="index registry directory"
    )

    index_list = index_sub.add_parser(
        "list", help="show registered versions and the CURRENT pointer"
    )
    index_list.add_argument(
        "--registry", required=True, help="index registry directory"
    )


def _bench_arguments(parser: argparse.ArgumentParser) -> None:
    bench_sub = parser.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="run gate arms and write BENCH_<arm>.json records"
    )
    bench_run.add_argument(
        "--arms",
        default="all",
        help="comma-separated arm names, or 'all' (default)",
    )
    bench_run.add_argument(
        "--profile",
        choices=["quick", "full", "smoke"],
        default="quick",
        help="workload sizes: quick (CI gate), full, smoke (tests only)",
    )
    bench_run.add_argument(
        "--seed",
        type=int,
        default=2022,
        help="workload seed (must match the baseline's to be comparable)",
    )
    bench_run.add_argument(
        "--out", default=".", help="directory for BENCH_<arm>.json records"
    )

    bench_compare = bench_sub.add_parser(
        "compare",
        help="gate candidate records against the committed baseline",
    )
    bench_compare.add_argument(
        "--baseline",
        default=".",
        help="directory holding committed BENCH_<arm>.json baselines",
    )
    bench_compare.add_argument(
        "--candidate",
        required=True,
        help="directory holding freshly run BENCH_<arm>.json records",
    )
    bench_compare.add_argument(
        "--arms",
        default=None,
        help="comma-separated arm subset (default: union of both dirs)",
    )
    bench_compare.add_argument(
        "--envelope-file",
        default=None,
        help="JSON noise-envelope overrides "
        '({"metric": {"rel": .., "abs": ..}})',
    )
    bench_compare.add_argument(
        "--update-baseline",
        action="store_true",
        help="ratchet the baseline where the candidate improved beyond "
        "the envelope (shrink-only; refused on any regression)",
    )

    bench_list = bench_sub.add_parser(
        "list", help="show gate arms and committed baseline status"
    )
    bench_list.add_argument(
        "--baseline", default=".", help="baseline directory to inspect"
    )


def _stream_arguments(parser: argparse.ArgumentParser) -> None:
    stream_sub = parser.add_subparsers(dest="stream_command", required=True)

    stream_produce = stream_sub.add_parser(
        "produce",
        help="publish a click log TSV into a file-backed partitioned log",
    )
    stream_produce.add_argument("clicks", help="click log TSV")
    stream_produce.add_argument(
        "--log-dir", required=True, help="partitioned event-log directory"
    )
    stream_produce.add_argument(
        "--partitions",
        type=int,
        default=4,
        help="partition count (fixed at log creation)",
    )
    stream_produce.add_argument(
        "--producer-id",
        default="cli",
        help="idempotent-producer identity (re-running the same producer "
        "over the same log deduplicates, it never double-publishes)",
    )

    stream_consume = stream_sub.add_parser(
        "consume",
        help="consume the log into an incremental index artifact (resumable)",
    )
    stream_consume.add_argument(
        "--log-dir", required=True, help="partitioned event-log directory"
    )
    stream_consume.add_argument(
        "--out", required=True, help="index artifact to write/update (.vmis)"
    )
    stream_consume.add_argument("--m", type=int, default=500)
    stream_consume.add_argument(
        "--group",
        default="indexer",
        help="consumer-group id (committed offsets are stored per group)",
    )
    stream_consume.add_argument(
        "--session-gap",
        type=float,
        default=1800.0,
        help="inactivity seconds after which a session seals",
    )
    stream_consume.add_argument(
        "--lateness",
        type=float,
        default=300.0,
        help="allowed out-of-order lateness (event-time seconds)",
    )
    stream_consume.add_argument(
        "--flush",
        action="store_true",
        help="seal every open session at end of stream (terminal drain); "
        "without it open sessions stay pending and replay on resume",
    )

    stream_status = stream_sub.add_parser(
        "status", help="show partitions, offsets, consumer lag and watermark"
    )
    stream_status.add_argument(
        "--log-dir", required=True, help="partitioned event-log directory"
    )
    stream_status.add_argument(
        "--group",
        default="indexer",
        help="consumer-group id to report committed offsets/lag for",
    )


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("index", help="index artifact (.vmis)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--pods", type=int, default=2)
    parser.add_argument("--m", type=int, default=500)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument(
        "--engine",
        choices=("columnar", "heap"),
        default="columnar",
        help="pod scorer: vectorized columnar (default) or the "
        "per-item-heap differential oracle",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="per-pod LRU result cache entries (0 = off)",
    )
    parser.add_argument(
        "--sla-ms",
        type=float,
        default=50.0,
        help="per-request deadline budget in milliseconds",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission-control capacity before oldest-first shedding (429)",
    )
    parser.add_argument(
        "--wal-dir",
        default=None,
        help="directory for per-pod session WALs (enables crash recovery)",
    )
    parser.add_argument(
        "--no-guardrails",
        action="store_true",
        help="serve the raw path: no deadlines, fallbacks, breakers or shedding",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=0,
        metavar="R",
        help="copies of every session on the shard ring (1 leader + R-1 "
        "followers); 0 and 1 both mean single-copy sticky routing",
    )
    parser.add_argument(
        "--vnodes",
        type=int,
        default=128,
        help="virtual nodes per pod on the consistent-hash ring",
    )
    parser.add_argument(
        "--hedge-fraction",
        type=float,
        default=0.25,
        help="hedge a slow leader after this fraction of the remaining "
        "deadline budget (requires --replication >= 2)",
    )



def cmd_generate(args) -> int:
    from repro.data.datasets import load_dataset
    from repro.data.synthetic import generate_clickstream

    if args.profile is not None:
        log = load_dataset(args.profile, scale=args.scale, seed=args.seed)
    else:
        log = generate_clickstream(
            num_sessions=args.sessions,
            num_items=args.items,
            days=args.days,
            seed=args.seed,
        )
    log.to_tsv(args.out)
    print(
        f"wrote {len(log):,} clicks / {log.num_sessions():,} sessions "
        f"to {args.out}"
    )
    return 0


def cmd_stats(args) -> int:
    from repro.data.clicklog import ClickLog
    from repro.data.stats import dataset_statistics, format_table

    log = ClickLog.from_tsv(args.clicks)
    print(format_table([dataset_statistics(log, name=args.clicks)]))
    return 0


def cmd_sessionize(args) -> int:
    from repro.data.sessionize import UserEvent, sessionize

    events = []
    with open(args.events, "r", encoding="utf-8") as handle:
        header = next(handle, "")
        expected = ["user_id", "item_id", "timestamp"]
        if header.strip().split("\t") != expected:
            raise SystemExit(
                f"bad header {header.strip()!r}; expected {expected}"
            )
        for line in handle:
            line = line.strip()
            if not line:
                continue
            user_id, item_id, timestamp = line.split("\t")
            events.append(UserEvent(int(user_id), int(item_id), int(timestamp)))
    log, report = sessionize(
        events, inactivity_gap=args.gap, max_session_length=args.max_length
    )
    log.to_tsv(args.out)
    print(
        f"cut {report.events:,} events from {report.users:,} users into "
        f"{report.sessions:,} sessions "
        f"({report.sessions_per_user:.2f}/user) -> {args.out}"
    )
    return 0


def cmd_build_index(args) -> int:
    from repro.core.index import SessionIndex
    from repro.data.clicklog import ClickLog
    from repro.index.serialization import save_index

    log = ClickLog.from_tsv(args.clicks)
    started = time.perf_counter()
    try:
        index = SessionIndex.from_clicks(list(log), max_sessions_per_item=args.m)
        elapsed = time.perf_counter() - started
        size = save_index(index, args.out)
    except ValueError as error:
        return _refuse(f"cannot build an index from {args.clicks}: {error}")
    print(
        f"built index over {index.num_sessions:,} sessions / "
        f"{index.num_items:,} items in {elapsed:.1f}s; "
        f"artifact {args.out} ({size / 1024:.0f} KiB)"
    )
    return 0


def _refuse(message: str) -> int:
    """One line on stderr and the usage-error exit code, no traceback."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_recommend(args) -> int:
    from repro.core.colindex import VMISKNNColumnar
    from repro.index.serialization import load_columnar

    try:
        index = load_columnar(args.index)
    except (OSError, ValueError) as error:
        return _refuse(f"cannot open index artifact {args.index}: {error}")
    model = VMISKNNColumnar(index, m=args.m, k=args.k)
    for rank, scored in enumerate(
        model.recommend(args.session, how_many=args.count), start=1
    ):
        print(f"{rank:>3}. item {scored.item_id:>8}  score {scored.score:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    import inspect

    from repro.core.batch import BatchPredictionEngine
    from repro.data.clicklog import ClickLog
    from repro.data.split import temporal_split
    from repro.eval.evaluator import evaluate_next_item, evaluate_next_item_batched
    from repro.experiments.registry import (
        RecommenderConfig,
        build_recommender,
        recommender_class,
    )

    log = ClickLog.from_tsv(args.clicks)
    split = temporal_split(log, test_days=args.test_days)
    params = {"m": args.m, "k": args.k}
    model_class = recommender_class(args.model)
    if model_class is not None:
        # drop knobs the chosen algorithm does not take (e.g. popularity)
        accepted = inspect.signature(model_class.__init__).parameters
        params = {key: value for key, value in params.items() if key in accepted}
    model = build_recommender(
        args.model,
        RecommenderConfig.from_params(params),
        clicks=list(split.train),
    )
    if args.batch_size > 0:
        with BatchPredictionEngine(model, cache_size=args.cache_size) as engine:
            result = evaluate_next_item_batched(
                engine,
                split.test_sequences(),
                cutoff=args.cutoff,
                batch_size=args.batch_size,
                measure_latency=True,
                max_predictions=args.max_predictions,
            )
            cache = engine.cache_info()
    else:
        result = evaluate_next_item(
            model,
            split.test_sequences(),
            cutoff=args.cutoff,
            measure_latency=True,
            max_predictions=args.max_predictions,
        )
        cache = None
    print(f"predictions: {result.predictions}")
    for metric, value in result.summary().items():
        print(f"{metric:<10} {value:.4f}")
    print(f"p90 latency: {result.latency_percentile(90) * 1e3:.2f} ms")
    if cache is not None:
        print(
            f"cache: {cache['hits']}/{cache['hits'] + cache['misses']} hits "
            f"({cache['hit_rate']:.1%})"
        )
    return 0


def cmd_grid_search(args) -> int:
    from repro.data.clicklog import ClickLog
    from repro.data.split import temporal_split
    from repro.eval.gridsearch import grid_search

    log = ClickLog.from_tsv(args.clicks)
    split = temporal_split(log, test_days=1)
    result = grid_search(
        list(split.train),
        split.test_sequences(),
        ks=args.ks,
        ms=args.ms,
        cutoff=args.cutoff,
        max_predictions=args.max_predictions,
    )
    print(result.heatmap(args.metric))
    best = result.best(args.metric)
    print(f"best {args.metric}: k={best.k}, m={best.m} -> {best.metric(args.metric):.4f}")
    return 0


def cmd_experiment(args) -> int:
    from repro.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig.load(args.config)
    report = run_experiment(config)
    print(report.render())
    if args.out:
        report.save_json(args.out)
        print(f"results written to {args.out}")
    return 0


def _cmd_index_build(args) -> int:
    from repro.data.clicklog import ClickLog
    from repro.index.lifecycle import DailyIndexLifecycle, IndexRegistry
    from repro.index.lifecycle.validation import IngestionPolicy

    log, parse_report = ClickLog.from_tsv_with_report(args.clicks)
    if parse_report.skipped:
        print(f"parse: {parse_report.summary()}")
    policy = IngestionPolicy(
        timestamp_policy=args.timestamp_policy,
        bot_policy=args.bot_policy,
        max_session_clicks=args.max_session_clicks,
        max_quarantine_rate=args.max_quarantine_rate,
    )
    lifecycle = DailyIndexLifecycle(
        IndexRegistry(args.registry),
        ingestion_policy=policy,
        max_sessions_per_item=args.m,
    )
    manifest, validation = lifecycle.build_and_register(
        list(log), provenance={"click_log": args.clicks}
    )
    print(f"validation: {validation.summary()}")
    if manifest is None:
        print(
            f"build refused: quarantine rate {validation.quarantine_rate:.1%} "
            f"exceeds {policy.max_quarantine_rate:.1%}"
        )
        return 1
    print(
        f"registered {manifest.version}: {manifest.num_sessions:,} sessions / "
        f"{manifest.num_items:,} items, "
        f"{manifest.artifact_bytes / 1024:.0f} KiB, "
        f"sha256 {manifest.checksum_sha256[:12]}..."
    )
    return 0


def _cmd_index_promote(args) -> int:
    from repro.data.clicklog import ClickLog
    from repro.data.split import temporal_split
    from repro.index.lifecycle import DailyIndexLifecycle, IndexRegistry
    from repro.index.lifecycle.gate import GatePolicy

    registry = IndexRegistry(args.registry)
    versions = registry.versions()
    if not versions:
        print(f"no versions registered under {args.registry}")
        return 1
    version = args.version or versions[-1]
    log = ClickLog.from_tsv(args.clicks)
    split = temporal_split(log, test_days=args.test_days)
    holdout = split.test_sequences()
    lifecycle = DailyIndexLifecycle(
        registry,
        gate_policy=GatePolicy(
            max_recall_drop=args.max_recall_drop,
            max_mrr_drop=args.max_mrr_drop,
            max_predictions=args.max_predictions,
            m=args.gate_m,
            k=args.gate_k,
        ),
    )
    outcome = lifecycle.promote(version, holdout)
    assert outcome.gate is not None
    print(outcome.gate.summary())
    if not outcome.succeeded:
        print(f"promotion refused at {outcome.refused_at}:")
        for reason in outcome.refusal_reasons:
            print(f"  - {reason}")
        return 1
    print(f"promoted {version} (CURRENT -> {registry.current_version()})")
    return 0


def _cmd_index_rollback(args) -> int:
    from repro.index.lifecycle import IndexRegistry
    from repro.index.lifecycle.registry import RegistryError

    registry = IndexRegistry(args.registry)
    before = registry.current_version()
    try:
        after = registry.rollback()
    except RegistryError as error:
        print(f"rollback refused: {error}")
        return 1
    print(f"rolled back {before} -> {after}")
    return 0


def _cmd_index_list(args) -> int:
    from repro.index.lifecycle import IndexRegistry

    registry = IndexRegistry(args.registry)
    versions = registry.versions()
    if not versions:
        print(f"no versions registered under {args.registry}")
        return 0
    current = registry.current_version()
    for version in versions:
        manifest = registry.manifest(version)
        marker = " *CURRENT*" if version == current else ""
        print(
            f"{version}{marker}  {manifest.num_sessions:>8,} sessions  "
            f"{manifest.num_items:>7,} items  "
            f"{manifest.artifact_bytes / 1024:>8.0f} KiB  "
            f"sha256 {manifest.checksum_sha256[:12]}"
        )
    return 0


_INDEX_COMMANDS = {
    "build": _cmd_index_build,
    "promote": _cmd_index_promote,
    "rollback": _cmd_index_rollback,
    "list": _cmd_index_list,
}


def cmd_index(args) -> int:
    return _INDEX_COMMANDS[args.index_command](args)


def _arm_list(text: str | None) -> list[str] | None:
    if text is None or text == "all":
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_bench_run(args) -> int:
    from repro.bench import run_arms, summarize_record

    try:
        published = run_arms(
            _arm_list(args.arms), args.profile, args.out, seed=args.seed
        )
    except ValueError as error:
        print(f"bench run refused: {error}")
        return 2
    for record, path in published:
        print(summarize_record(record))
        print(f"           -> {path}")
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench import (
        BenchSchemaError,
        EnvelopePolicy,
        compare_dirs,
        load_record,
        record_path,
        save_record,
        tighten_baseline,
    )
    from repro.bench.comparator import ARM_ERROR, ARM_REGRESSION

    try:
        policy = (
            EnvelopePolicy.from_json(args.envelope_file)
            if args.envelope_file
            else None
        )
    except BenchSchemaError as error:
        print(f"bench compare refused: {error}")
        return 2
    report = compare_dirs(
        args.baseline, args.candidate, arms=_arm_list(args.arms), policy=policy
    )
    print(report.render())
    if args.update_baseline and report.exit_code == 0:
        for arm in report.arms:
            if arm.status in (ARM_ERROR, ARM_REGRESSION):
                continue
            base_path = record_path(args.baseline, arm.arm)
            cand_path = record_path(args.candidate, arm.arm)
            if not cand_path.exists():
                continue
            if not base_path.exists():
                saved = save_record(load_record(cand_path), args.baseline)
                print(f"new baseline committed: {saved}")
                continue
            tightened = tighten_baseline(
                load_record(base_path), load_record(cand_path), policy
            )
            if tightened is not None:
                saved = save_record(tightened, args.baseline)
                print(f"baseline ratcheted: {saved}")
    return report.exit_code


def _cmd_bench_list(args) -> int:
    from repro.bench import baseline_status

    for line in baseline_status(args.baseline):
        print(line)
    return 0


_BENCH_COMMANDS = {
    "run": _cmd_bench_run,
    "compare": _cmd_bench_compare,
    "list": _cmd_bench_list,
}


def cmd_bench(args) -> int:
    return _BENCH_COMMANDS[args.bench_command](args)


def _cmd_stream_produce(args) -> int:
    from repro.data.clicklog import ClickLog
    from repro.streaming import ClickProducer, PartitionedLog

    clicks = ClickLog.from_tsv(args.clicks)
    try:
        log = PartitionedLog(args.partitions, directory=args.log_dir)
    except ValueError as error:
        print(f"stream produce refused: {error}")
        return 2
    try:
        producer = ClickProducer(log, args.producer_id)
        receipts = producer.publish_all(clicks.clicks)
    finally:
        log.close()
    new = sum(1 for receipt in receipts if not receipt.deduplicated)
    print(
        f"published {len(receipts):,} clicks as producer "
        f"{args.producer_id!r} ({new:,} new, "
        f"{len(receipts) - new:,} deduplicated) -> "
        f"{log.num_partitions} partitions in {args.log_dir}"
    )
    return 0


def _stream_paths(args) -> tuple:
    from pathlib import Path

    log_dir = Path(args.log_dir)
    return log_dir, log_dir / f"offsets-{args.group}.json"


def _cmd_stream_consume(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.index.maintenance import IncrementalIndexer
    from repro.index.serialization import load_index, save_index
    from repro.streaming import (
        CommittedOffsets,
        ConsumerGroup,
        PartitionedLog,
        StreamingIndexer,
        StreamingPolicy,
    )

    try:
        log = PartitionedLog.open(args.log_dir)
    except FileNotFoundError as error:
        print(f"stream consume refused: {error}")
        return 2
    try:
        _, offsets_path = _stream_paths(args)
        out_path = Path(args.out)
        state_path = Path(str(args.out) + ".state.json")
        if out_path.exists() and state_path.exists():
            index = load_index(out_path)
            state = json_module.loads(state_path.read_text(encoding="utf-8"))
            indexer = IncrementalIndexer.restore(index, state)
            resumed = True
        else:
            indexer = IncrementalIndexer(max_sessions_per_item=args.m)
            resumed = False
        group = ConsumerGroup(log, args.group, CommittedOffsets(offsets_path))
        try:
            policy = StreamingPolicy(
                session_gap_seconds=args.session_gap,
                allowed_lateness_seconds=args.lateness,
            )
        except ValueError as error:
            print(f"stream consume refused: {error}")
            return 2
        # Offsets are committed only after the index artifact is durably
        # written below: a crash in between replays, it never loses clicks.
        pipeline = StreamingIndexer(
            log, indexer, group=group, policy=policy, commit_each_step=False
        )
        pipeline.run_until_caught_up()
        if args.flush:
            pipeline.flush()
        save_index(indexer.index, out_path)
        state_path.write_text(
            json_module.dumps(indexer.state_dict()), encoding="utf-8"
        )
        pipeline.commit()
    finally:
        log.close()
    health = pipeline.health()
    print(
        f"{'resumed' if resumed else 'started'} group {args.group!r}: "
        f"applied {pipeline.sessions_applied:,} sessions "
        f"({pipeline.sessions_duplicate:,} duplicate, "
        f"{pipeline.sessions_stale:,} stale, "
        f"{pipeline.too_late_events:,} too-late clicks), "
        f"{health['pending_sessions']} still open"
        f"{' (flushed)' if args.flush else ''}"
    )
    print(
        f"index: {indexer.index.num_sessions:,} sessions, "
        f"{indexer.index.num_items:,} items -> {out_path} "
        f"(+ {state_path.name})"
    )
    return 0


def _cmd_stream_status(args) -> int:
    from repro.streaming import CommittedOffsets, PartitionedLog

    try:
        log = PartitionedLog.open(args.log_dir)
    except FileNotFoundError as error:
        print(f"stream status refused: {error}")
        return 2
    try:
        _, offsets_path = _stream_paths(args)
        offsets = CommittedOffsets(
            offsets_path if offsets_path.exists() else None
        )
        total_lag = 0
        print(f"log {args.log_dir}: {log.num_partitions} partitions, "
              f"{log.total_records():,} records")
        for partition in range(log.num_partitions):
            end = log.end_offset(partition)
            committed = offsets.get(partition)
            lag = max(0, end - committed)
            total_lag += lag
            print(
                f"  partition {partition}: end {end:>8,}  "
                f"committed[{args.group}] {committed:>8,}  lag {lag:>8,}"
            )
        head = log.max_event_time()
        head_text = f"{head}" if head is not None else "n/a"
        print(f"group {args.group!r} lag {total_lag:,} events; "
              f"event-time head {head_text}")
    finally:
        log.close()
    return 0


_STREAM_COMMANDS = {
    "produce": _cmd_stream_produce,
    "consume": _cmd_stream_consume,
    "status": _cmd_stream_status,
}


def cmd_stream(args) -> int:
    return _STREAM_COMMANDS[args.stream_command](args)


def cmd_serve(args) -> int:
    from repro.index.serialization import load_columnar, load_index
    from repro.serving.app import ServingCluster
    from repro.serving.http import SerenadeHTTPServer
    from repro.serving.resilience import ResiliencePolicy
    from repro.serving.ring import ReplicationPolicy

    # The columnar engine decodes the artifact straight into the buffers
    # it serves from; the heap oracle gets the row-oriented index.
    load = load_columnar if args.engine == "columnar" else load_index
    try:
        index = load(args.index)
    except (OSError, ValueError) as error:
        return _refuse(f"cannot open index artifact {args.index}: {error}")
    replication = ReplicationPolicy(
        replication_factor=max(args.replication, 1),
        virtual_nodes=args.vnodes,
        hedge_fraction=args.hedge_fraction,
        budget_ms=args.sla_ms,
    )
    resilience = (
        None
        if args.no_guardrails
        else ResiliencePolicy(
            budget_ms=replication.budget_ms, queue_capacity=args.max_inflight
        )
    )
    cluster = ServingCluster.with_index(
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
    server = SerenadeHTTPServer(cluster, host=args.host, port=args.port)
    server.start()
    guardrails = (
        "guardrails off"
        if resilience is None
        else f"SLA {args.sla_ms:g} ms, max inflight {args.max_inflight}"
    )
    wal = f", WAL {args.wal_dir}" if args.wal_dir else ""
    copies = replication.replication_factor
    hedge = f", hedge {args.hedge_fraction:g}" if copies > 1 else ""
    ring = f", ring R={copies} (vnodes {args.vnodes}{hedge})"
    print(
        f"serving {index.num_items:,} items on "
        f"http://{args.host}:{server.port} "
        f"({args.pods} pods, {args.engine} engine, "
        f"cache {args.cache_size}, {guardrails}{wal}{ring}; "
        f"POST /v1/recommend, POST /v1/recommend_batch, "
        f"GET /healthz, GET /metrics)"
    )
    # SIGTERM (an orchestrator's stop, a parent's terminate()) takes the
    # Ctrl-C path, so in-flight requests are drained either way.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
    return 0


# verb -> (help line, its arguments, its command)
_VERBS: dict[str, tuple[str, Callable, Callable]] = {
    "generate": (
        "generate a synthetic clickstream as TSV",
        _generate_arguments,
        cmd_generate,
    ),
    "stats": (
        "Table 1 statistics of a TSV log",
        _stats_arguments,
        cmd_stats,
    ),
    "sessionize": (
        "cut a raw user-event TSV (user_id, item_id, timestamp) "
        "into sessions by inactivity gap",
        _sessionize_arguments,
        cmd_sessionize,
    ),
    "build-index": (
        "run the offline index build",
        _build_index_arguments,
        cmd_build_index,
    ),
    "recommend": (
        "next-item recommendations from an index artifact",
        _recommend_arguments,
        cmd_recommend,
    ),
    "evaluate": (
        "next-item evaluation with a held-out last day",
        _evaluate_arguments,
        cmd_evaluate,
    ),
    "grid-search": (
        "(k, m) hyperparameter sweep (Figure 2)",
        _grid_search_arguments,
        cmd_grid_search,
    ),
    "experiment": (
        "run a declarative experiment config (JSON)",
        _experiment_arguments,
        cmd_experiment,
    ),
    "index": (
        "hardened daily index lifecycle against a versioned registry",
        _index_arguments,
        cmd_index,
    ),
    "bench": (
        "structured benchmark trajectory and regression gate",
        _bench_arguments,
        cmd_bench,
    ),
    "stream": (
        "fault-tolerant streaming click ingestion (event-bus lifecycle)",
        _stream_arguments,
        cmd_stream,
    ),
    "serve": (
        "start the HTTP serving component",
        _serve_arguments,
        cmd_serve,
    ),
}


def _parser_for(verbs: Iterable[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serenade (SIGMOD 2022) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for verb in verbs:
        help_line, add_arguments, _ = _VERBS[verb]
        add_arguments(commands.add_parser(verb, help=help_line))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole parser: every verb with every flag, default and help text."""
    return _parser_for(_VERBS)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # A command line that names its verb needs that verb's sub-parser
        # only; anything else (``--help``, a typo) gets the whole parser's
        # answer.
        parser = (
            _parser_for(argv[:1]) if argv and argv[0] in _VERBS else build_parser()
        )
        args = parser.parse_args(argv)
        code = _VERBS[args.command][2](args)
        sys.stdout.flush()  # buffered output meets a closed pipe here
        return code
    except BrokenPipeError:
        # The reader of stdout went away (``repro bench list | head -1``):
        # stop without a traceback, and point stdout at the null device so
        # the interpreter's own flush at exit does not fail a second time.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 1


if __name__ == "__main__":
    sys.exit(main())
