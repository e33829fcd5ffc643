"""Inputs of the serve ledger: one dataset per seed, five request streams.

Everything here is a pure function of the seed. The server under test
only ever sees the request bodies built in this module; the seed itself
never crosses the socket.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.data.clicklog import ClickLog
from repro.data.split import temporal_split
from repro.data.synthetic import generate_clickstream

RECOMMEND_PATH = "/v1/recommend"
BATCH_PATH = "/v1/recommend_batch"
SLOT_SIZE = 21  # items per answer, the product-page slot of the paper
BATCH_SESSIONS = 64  # sessions per /v1/recommend_batch call
VISITORS = 64  # concurrent shoppers interleaved in the replay
HOT_ITEMS = 64  # popularity head the anonymous workload draws from
MIN_PREFIX = 3  # shortest session sent to the batch endpoint

# SLA limits an answer must meet to count towards sla_attainment.
RECOMMEND_LIMIT_S = 0.050
BATCH_LIMIT_S = 0.200


@dataclass(frozen=True)
class DatasetShape:
    """Arguments of ``generate_clickstream`` (frozen for the ledger)."""

    num_sessions: int = 40_000
    num_items: int = 800
    num_categories: int = 120
    days: int = 14


FULL_SHAPE = DatasetShape()
# --smoke only checks that every metric name comes out finite, so it
# trades the posting-list fill of the full shape for a 5x faster build.
SMOKE_SHAPE = DatasetShape(num_sessions=8_000)


@dataclass(frozen=True)
class Dataset:
    """Training clicks for the index plus the held-out day to replay."""

    seed: int
    train: ClickLog
    held_out: list[list[int]]  # item sequence per held-out session
    generate_s: float


def build_dataset(seed: int, shape: DatasetShape = FULL_SHAPE) -> Dataset:
    started = time.perf_counter()
    log = generate_clickstream(
        num_sessions=shape.num_sessions,
        num_items=shape.num_items,
        num_categories=shape.num_categories,
        days=shape.days,
        seed=seed,
    )
    split = temporal_split(log, test_days=1)
    held_out = list(split.test.session_item_sequences().values())
    return Dataset(
        seed=seed,
        train=split.train,
        held_out=held_out,
        generate_s=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class Op:
    """One HTTP call and what the oracle needs to recompute its answer.

    ``views`` holds the session view the server must score for a
    ``/v1/recommend`` call (one entry), or every session of a batch call.
    """

    path: str
    body: bytes
    views: tuple[tuple[int, ...], ...]
    consent: bool

    @property
    def is_batch(self) -> bool:
        return self.path == BATCH_PATH

    @property
    def sessions(self) -> int:
        return len(self.views)

    @property
    def limit_s(self) -> float:
        return BATCH_LIMIT_S if self.is_batch else RECOMMEND_LIMIT_S


def _recommend_op(session_id: str, item: int, consent: bool, view: Sequence[int]) -> Op:
    body = json.dumps(
        {
            "session_id": session_id,
            "item_id": item,
            "consent": consent,
            "variant": "serenade-hist",
            "count": SLOT_SIZE,
        }
    ).encode("utf-8")
    return Op(RECOMMEND_PATH, body, (tuple(view),), consent)


def _interleave(sessions: list[list[int]]) -> list[tuple[int, int]]:
    """Replay sessions as ``VISITORS`` concurrent shoppers, round-robin.

    Returns ``(session number, clicked item)`` per click. A finished
    shopper's slot is taken by the next session, so every prefix of the
    stream mixes first clicks with deep ones.
    """
    queue = iter(enumerate(sessions))
    active: list[list] = []  # [session number, items, next position]
    for number, items in queue:
        active.append([number, items, 0])
        if len(active) == VISITORS:
            break
    stream = []
    while active:
        for slot in list(active):
            number, items, position = slot
            stream.append((number, items[position]))
            slot[2] = position + 1
            if slot[2] == len(items):
                replacement = next(queue, None)
                if replacement is None:
                    active.remove(slot)
                else:
                    slot[0], slot[1], slot[2] = replacement[0], replacement[1], 0
    return stream


def pdp_stream(dataset: Dataset, tag: str, count: int, skip: int = 0) -> list[Op]:
    """Consented product-page requests: the held-out day, interleaved.

    ``tag`` namespaces the session ids, so warm-up traffic never leaves
    history behind in a session the timed phase will use.
    """
    stream = _interleave(dataset.held_out)
    if skip + count > len(stream):
        raise ValueError(
            f"held-out day has {len(stream)} clicks, {skip + count} requested"
        )
    # serenade-hist scores the last two clicks the server has stored, and
    # it has stored only what this stream sent (a warm-up stream starts
    # mid-session).
    sent: dict[int, int] = {}
    ops = []
    for number, item in stream[skip : skip + count]:
        previous = sent.get(number)
        view = (item,) if previous is None else (previous, item)
        sent[number] = item
        ops.append(_recommend_op(f"{tag}-{number}", item, True, view))
    return ops


def anon_stream(dataset: Dataset, tag: str, count: int, salt: int = 0) -> list[Op]:
    """Non-consented single-item views over the popularity head."""
    popularity = Counter(item for items in dataset.held_out for item in items)
    hot = [item for item, _ in sorted(popularity.items(), key=lambda kv: (-kv[1], kv[0]))]
    hot = hot[:HOT_ITEMS]
    weights = [1.0 / rank for rank in range(1, len(hot) + 1)]
    rng = random.Random(f"anon-{dataset.seed}-{salt}")
    drawn = rng.choices(hot, weights=weights, k=count)
    return [
        _recommend_op(f"{tag}-{number}", item, False, (item,))
        for number, item in enumerate(drawn)
    ]


def _batch_sessions(dataset: Dataset) -> list[tuple[int, ...]]:
    """Distinct evolving sessions for the batch endpoint, shuffled.

    Prefixes (length >= MIN_PREFIX) of held-out sessions come first; the
    other contiguous windows follow, so a request for more sessions than
    one day has prefixes still never repeats a session.
    """
    prefixes: dict[tuple[int, ...], None] = {}
    windows: dict[tuple[int, ...], None] = {}
    for items in dataset.held_out:
        for end in range(MIN_PREFIX, len(items) + 1):
            prefixes.setdefault(tuple(items[:end]))
    for items in dataset.held_out:
        for start in range(1, len(items)):
            for end in range(start + MIN_PREFIX, len(items) + 1):
                window = tuple(items[start:end])
                if window not in prefixes:
                    windows.setdefault(window)
    rng = random.Random(f"batch-{dataset.seed}")
    first, second = list(prefixes), list(windows)
    rng.shuffle(first)
    rng.shuffle(second)
    return first + second


def batch_stream(dataset: Dataset, calls: int, skip_calls: int = 0) -> list[Op]:
    sessions = _batch_sessions(dataset)
    needed = (skip_calls + calls) * BATCH_SESSIONS
    if needed > len(sessions):
        raise ValueError(f"{len(sessions)} distinct sessions, {needed} requested")
    ops = []
    for call in range(skip_calls, skip_calls + calls):
        chunk = sessions[call * BATCH_SESSIONS : (call + 1) * BATCH_SESSIONS]
        body = json.dumps(
            {"sessions": [list(view) for view in chunk], "count": SLOT_SIZE}
        ).encode("utf-8")
        ops.append(Op(BATCH_PATH, body, tuple(chunk), False))
    return ops


def reference_stream(count: int, work: int) -> list[Op]:
    """Traffic for the control server (reference.py): the same bodies on
    every run and every seed. ``work`` is how many times the control
    repeats its scoring step per request."""
    return [
        Op(
            "/reference",
            json.dumps({"session_id": f"r-{n}", "item_id": n, "work": work}).encode(),
            ((n,),),
            False,
        )
        for n in range(count)
    ]


def poisson_schedule(seed: int, count: int, rate: float) -> list[float]:
    """Due times (seconds from phase start) of a Poisson arrival process."""
    rng = random.Random(f"arrivals-{seed}")
    due, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        due.append(now)
    return due


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of the workload table (counts are frozen in ledger.json)."""

    name: str
    kind: str  # "pdp" | "anon" | "batch"
    count: int  # timed operations at the reference run length
    warmup: int  # untimed operations sent first
    trace_count: int  # operations of the traced run
    server_flags: tuple[str, ...]
    loop: str  # "closed" | "open"
    connections: int
    rate: float | None  # open-loop arrival rate, ops/s
    oracle_every: int  # every n-th op is recomputed by the oracle
    segment_ops: int  # operations per segment of the timed phase
    control: str  # which control (ledger.json "controls") its segments alternate with

    def timed_ops(self, dataset: Dataset, count: int) -> list[Op]:
        if self.kind == "pdp":
            return pdp_stream(dataset, "s", count)
        if self.kind == "anon":
            return anon_stream(dataset, "a", count)
        return batch_stream(dataset, count)

    def warmup_ops(self, dataset: Dataset, timed: int, count: int) -> list[Op]:
        """Traffic disjoint from the timed phase: later clicks, other ids."""
        if self.kind == "pdp":
            return pdp_stream(dataset, "w", count, skip=timed)
        if self.kind == "anon":
            return anon_stream(dataset, "w", count, salt=1)
        return batch_stream(dataset, count, skip_calls=timed)
