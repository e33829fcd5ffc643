"""Batched, sharded prediction engine with a hot-session result cache.

Serenade's headline claim is throughput under load: >1000 rps at
p90 < 7 ms (Figure 3b). Answering every query one session at a time
through ``recommend`` leaves three structural speedups on the table, and
this module implements all of them behind the ordinary
:class:`~repro.core.predictor.SessionRecommender` surface:

* **Batching** — ``recommend_batch`` takes many evolving sessions at
  once, deduplicates identical queries within the batch and fans the
  distinct work out across a ``concurrent.futures`` pool. Threads are the
  default (safe everywhere, effective for cache-heavy workloads);
  processes are opt-in via ``use_processes=True`` and share the read-only
  index state with the workers — by fork-time page sharing where the
  ``fork`` start method exists, by a one-time pickle per worker otherwise.
* **Index sharding** — ``shard_strategy="index"`` partitions the
  :class:`~repro.core.index.SessionIndex` into per-worker shards
  (:func:`shard_index`), runs the bounded similarity accumulation of
  Algorithm 2 independently per shard, and merges the per-shard neighbour
  candidates with the same bounded heaps the serial path uses. Because
  historical sessions are partitioned (never split) across shards, each
  shard's candidate map holds exact global similarities for its sessions,
  and the merge — keep the ``m`` most recent candidates, then the top-k by
  similarity — reproduces the serial result exactly, including on tied
  timestamps and tied similarity scores (both paths break ties on the
  internal session id; the differential oracle in
  :mod:`repro.testing.oracle` holds them to bit-equality).
* **Caching** — an LRU result cache keyed on
  ``(session_items_suffix, how_many)`` with hit/miss counters. The
  default key is the *full* session tuple, so hits are always
  bit-identical to cold calls; ``cache_suffix`` trades exactness for hit
  rate when the recommender provably ignores older history (e.g. VMIS-kNN
  with ``max_session_items``, or the serenade-hist serving variant that
  only ever sees the last two items).

The engine itself satisfies ``SessionRecommender``, so it can replace the
raw recommender anywhere: inside a serving pod (single-query path with
caching), in the evaluator's batch replay, or behind the
``/v1/recommend_batch`` HTTP endpoint.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

from repro.core.deadline import Deadline
from repro.core.heaps import BoundedTopK
from repro.core.index import SessionIndex
from repro.core.locking import guarded_by
from repro.core.predictor import SessionRecommender, batch_via_loop
from repro.core.scoring import score_items, top_n
from repro.core.types import ItemId, ScoredItem, SessionId
from repro.core.vmis import VMISKNN

if TYPE_CHECKING:  # pragma: no cover - the pools are imported by _pool()
    from concurrent.futures import Executor

CacheKey = tuple[tuple[ItemId, ...], int]


@guarded_by("_lock", "_entries", "hits", "misses")
class LRUResultCache:
    """Thread-safe LRU cache over recommendation lists, with counters.

    Keys are ``(session_items_suffix, how_many)``; values are the ranked
    lists returned by the recommender. Values are copied on the way in and
    out so a caller mutating its result list cannot poison the cache.
    """

    def __init__(self, maxsize: int, suffix_length: int | None = None) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if suffix_length is not None and suffix_length < 1:
            raise ValueError("suffix_length must be >= 1 or None")
        self.maxsize = maxsize
        self.suffix_length = suffix_length
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[CacheKey, list[ScoredItem]] = OrderedDict()
        self._lock = threading.Lock()

    def key(self, session_items: Sequence[ItemId], how_many: int) -> CacheKey:
        """The cache key for one query: a session suffix plus the count."""
        if (
            self.suffix_length is not None
            and len(session_items) > self.suffix_length
        ):
            session_items = session_items[-self.suffix_length :]
        return (tuple(session_items), how_many)

    def get(self, key: CacheKey) -> list[ScoredItem] | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return list(value)

    def put(self, key: CacheKey, value: Sequence[ScoredItem]) -> None:
        with self._lock:
            self._entries[key] = list(value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> dict[str, float]:
        """Counters for monitoring: hits, misses, hit rate, occupancy."""
        with self._lock:
            hits, misses, size = self.hits, self.misses, len(self._entries)
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
            "size": size,
            "maxsize": self.maxsize,
        }


def shard_index(index: SessionIndex, num_shards: int) -> list[SessionIndex]:
    """Partition a session index into ``num_shards`` disjoint shards.

    Historical session ``s`` lives in shard ``s % num_shards``; each
    shard's posting lists are the matching subsequences of the full lists,
    so they stay sorted newest-first and their concatenation (as sets) is
    exactly the original posting list. The timestamp array, session item
    sets and document frequencies are *shared by reference* — shards are
    read-only views keyed by the original internal session ids, which is
    what lets per-shard neighbour candidates merge without id translation.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards == 1:
        return [index]
    per_shard_postings: list[dict[ItemId, list[SessionId]]] = [
        {} for _ in range(num_shards)
    ]
    for item, postings in index.item_to_sessions.items():
        for session_id in postings:
            per_shard_postings[session_id % num_shards].setdefault(
                item, []
            ).append(session_id)
    return [
        SessionIndex(
            item_to_sessions=postings,
            session_timestamps=index.session_timestamps,
            session_items=index.session_items,
            item_session_counts=index.item_session_counts,
            max_sessions_per_item=index.max_sessions_per_item,
        )
        for postings in per_shard_postings
    ]


# -- process-pool plumbing ---------------------------------------------------
#
# Worker processes need the recommender without re-shipping it per batch.
# With the ``fork`` start method the parent parks it in ``_FORK_SEEDS``
# before creating the pool; every child inherits that module dict at fork
# time and adopts its engine's entry (copy-on-write, no serialisation).
# Keying by engine id makes this safe when several engines coexist, no
# matter when the executor actually forks its workers. Elsewhere (spawn)
# the recommender is pickled once per worker via ``initargs``.

_FORK_SEEDS: dict[int, SessionRecommender] = {}
_WORKER_RECOMMENDER: SessionRecommender | None = None
_seed_ids = itertools.count()


def _adopt_fork_seed(seed_id: int) -> None:
    global _WORKER_RECOMMENDER
    _WORKER_RECOMMENDER = _FORK_SEEDS[seed_id]


def _adopt_pickled(recommender: SessionRecommender) -> None:
    global _WORKER_RECOMMENDER
    _WORKER_RECOMMENDER = recommender


def _score_list(
    recommender: SessionRecommender,
    sessions: list[list[ItemId]],
    how_many: int,
) -> list[list[ScoredItem]]:
    """One list of sessions through the recommender's own batch method.

    That is where a model fuses work across sessions
    (``VMISKNNColumnar.recommend_batch``); the loop is only for
    recommenders registered at runtime that predate the batch API.
    """
    batch = getattr(recommender, "recommend_batch", None)
    if batch is None:
        return batch_via_loop(recommender, sessions, how_many=how_many)
    return batch(sessions, how_many=how_many)


def _predict_chunk(
    sessions: list[list[ItemId]], how_many: int
) -> list[list[ScoredItem]]:
    assert _WORKER_RECOMMENDER is not None  # adopted by the pool initializer
    return _score_list(_WORKER_RECOMMENDER, sessions, how_many)


# Sessions per deadline check on the inline path: large enough for a
# model's batch method to fuse work across them, small enough that an
# expired deadline sheds most of a long call.
_DEADLINE_SLICE = 16


def _shard_candidates(
    shard_model: VMISKNN, sessions: list[list[ItemId]]
) -> list[dict[SessionId, float]]:
    """One worker's task under index sharding: candidates per session.

    ``sessions`` must already be capped by the coordinator — the shard
    similarity pass never reapplies the evolving-session cap.
    """
    return [shard_model._matching_similarities(items) for items in sessions]


def _chunks(items: list, num_chunks: int) -> list[list]:
    """Split into at most ``num_chunks`` contiguous, near-equal chunks."""
    num_chunks = min(num_chunks, len(items))
    if num_chunks <= 1:
        return [items] if items else []
    size, excess = divmod(len(items), num_chunks)
    out, start = [], 0
    for chunk_number in range(num_chunks):
        end = start + size + (1 if chunk_number < excess else 0)
        out.append(items[start:end])
        start = end
    return out


class BatchPredictionEngine:
    """Parallel, cached ``recommend_batch`` over any recommender.

    Args:
        recommender: the wrapped model. Any ``SessionRecommender`` works
            with the default session sharding; ``shard_strategy="index"``
            requires a fitted :class:`VMISKNN` (it reaches into the
            algorithm to merge per-shard candidates).
        num_workers: pool size. ``0`` or ``1`` computes inline (no pool),
            which still buys caching and intra-batch deduplication.
        use_processes: fan out across processes instead of threads —
            worthwhile for CPU-bound misses on multi-core machines; the
            index is shared read-only with the workers (see module notes).
        shard_strategy: ``"sessions"`` (default) splits the *batch* across
            workers, each running the ordinary serial path — bit-identical
            to ``recommend`` by construction. ``"index"`` splits the
            *index* across workers and merges per-shard neighbour
            candidates with the serial path's bounded heaps — identical
            to the serial result, ties included.
        cache_size: LRU capacity; ``0`` disables caching.
        cache_suffix: cache on the last N items only (``None`` = the full
            session, always exact).
    """

    def __init__(
        self,
        recommender: SessionRecommender,
        num_workers: int = 0,
        use_processes: bool = False,
        shard_strategy: str = "sessions",
        cache_size: int = 4096,
        cache_suffix: int | None = None,
    ) -> None:
        if num_workers < 0:
            raise ValueError(f"num_workers must be >= 0, got {num_workers}")
        if shard_strategy not in ("sessions", "index"):
            raise ValueError(
                f"unknown shard_strategy {shard_strategy!r}; "
                "expected 'sessions' or 'index'"
            )
        self._recommender = recommender
        self.num_workers = num_workers
        self.use_processes = use_processes
        self.shard_strategy = shard_strategy
        self.cache = (
            LRUResultCache(cache_size, suffix_length=cache_suffix)
            if cache_size
            else None
        )
        self._executor: Executor | None = None
        self._seed_id: int | None = None
        self._shards: list[VMISKNN] | None = None
        #: result slots shed because a batch deadline expired first.
        self.deadline_shed = 0

        if shard_strategy == "index":
            if not isinstance(recommender, VMISKNN):
                raise TypeError(
                    "shard_strategy='index' requires a VMISKNN recommender"
                )
            if recommender.index is None:
                raise ValueError(
                    "shard_strategy='index' needs a fitted recommender"
                )
            if use_processes:
                raise ValueError(
                    "shard_strategy='index' runs on threads; per-worker "
                    "shards live in the coordinating process"
                )
            self._shards = [
                VMISKNN(
                    shard,
                    m=recommender.m,
                    k=recommender.k,
                    decay=recommender.decay,
                    match_weight=recommender.match_weight,
                    heap_arity=recommender.heap_arity,
                    early_stopping=recommender.early_stopping,
                    scoring_style=recommender.scoring_style,
                    exclude_current_items=recommender.exclude_current_items,
                    max_session_items=recommender.max_session_items,
                )
                for shard in shard_index(
                    recommender.index, max(num_workers, 1)
                )
            ]

    # -- lifecycle -----------------------------------------------------------

    def _pool(self) -> Executor:
        """The lazily created worker pool.

        ``multiprocessing`` and ``concurrent.futures`` are imported here,
        not with the module: a serving process scores on the request
        thread and never builds a pool, so it never loads them.
        """
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

            if self.use_processes:
                if "fork" in multiprocessing.get_all_start_methods():
                    self._seed_id = next(_seed_ids)
                    _FORK_SEEDS[self._seed_id] = self._recommender
                    self._executor = ProcessPoolExecutor(
                        self.num_workers,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_adopt_fork_seed,
                        initargs=(self._seed_id,),
                    )
                else:
                    self._executor = ProcessPoolExecutor(
                        self.num_workers,
                        initializer=_adopt_pickled,
                        initargs=(self._recommender,),
                    )
            else:
                self._executor = ThreadPoolExecutor(
                    self.num_workers, thread_name_prefix="repro-batch"
                )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down and drop cached results (idempotent).

        The cache is invalidated here because a closed engine's results
        belong to the recommender it wrapped; a rollout swapping that
        recommender must not leave stale recommendations reachable.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._seed_id is not None:
            _FORK_SEEDS.pop(self._seed_id, None)
            self._seed_id = None
        if self.cache is not None:
            self.cache.clear()

    def __enter__(self) -> "BatchPredictionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the SessionRecommender surface --------------------------------------

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        """Single-query path: served from the cache when hot."""
        if self.cache is None:
            return self._recommender.recommend(session_items, how_many=how_many)
        key = self.cache.key(session_items, how_many)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        result = self._recommender.recommend(session_items, how_many=how_many)
        self.cache.put(key, result)
        return result

    def recommend_batch(
        self,
        sessions: Sequence[Sequence[ItemId]],
        how_many: int = 21,
        deadline: Deadline | None = None,
    ) -> list[list[ScoredItem]]:
        """Batch path: cache, deduplicate, then fan out the distinct work.

        With a :class:`~repro.core.deadline.Deadline`, work that has not
        started by expiry is shed: the affected result slots come back as
        empty lists (never cached), and :attr:`deadline_shed` counts them.
        Cache hits and already-computed results are always returned — the
        deadline bounds *new* compute, it never discards finished work.
        """
        sessions = [list(items) for items in sessions]
        results: list[list[ScoredItem] | None] = [None] * len(sessions)

        # Resolve cache hits and collapse duplicate queries: positions is
        # the list of result slots each distinct pending query fills.
        pending: OrderedDict[CacheKey, list[int]] = OrderedDict()
        pending_sessions: dict[CacheKey, list[ItemId]] = {}
        for position, items in enumerate(sessions):
            key = (
                self.cache.key(items, how_many)
                if self.cache is not None
                else (tuple(items), how_many)
            )
            if key in pending:
                pending[key].append(position)
                continue
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[position] = cached
            else:
                pending[key] = [position]
                pending_sessions[key] = items

        if pending:
            distinct = [pending_sessions[key] for key in pending]
            computed = self._compute_batch(distinct, how_many, deadline)
            for key, result in zip(pending, computed):
                shed = result is None
                if shed:
                    self.deadline_shed += len(pending[key])
                    result = []
                elif self.cache is not None:
                    self.cache.put(key, result)
                first, *rest = pending[key]
                results[first] = result
                for position in rest:
                    results[position] = list(result)
        return results  # type: ignore[return-value]

    def cache_info(self) -> dict[str, float]:
        """Cache + shed counters; cache fields zero when caching is off."""
        if self.cache is None:
            info = {
                "hits": 0,
                "misses": 0,
                "hit_rate": 0.0,
                "size": 0,
                "maxsize": 0,
            }
        else:
            info = self.cache.info()
        info["deadline_shed"] = self.deadline_shed
        return info

    # -- execution strategies -------------------------------------------------

    def _compute_batch(
        self,
        sessions: list[list[ItemId]],
        how_many: int,
        deadline: Deadline | None = None,
    ) -> list[list[ScoredItem] | None]:
        """Compute distinct queries; ``None`` marks a deadline-shed slot."""
        if self.shard_strategy == "index":
            return self._compute_index_sharded(sessions, how_many, deadline)
        if self.num_workers <= 1 or len(sessions) <= 1:
            # Without a deadline the whole list is one call. With one it
            # goes in slices, the deadline read before each: a slice that
            # has not started by expiry is shed whole.
            step = len(sessions) if deadline is None else _DEADLINE_SLICE
            out: list[list[ScoredItem] | None] = []
            for start in range(0, len(sessions), step):
                part = sessions[start : start + step]
                if deadline is not None and deadline.expired:
                    out.extend([None] * len(part))
                else:
                    out.extend(_score_list(self._recommender, part, how_many))
            return out
        pool = self._pool()
        from concurrent.futures import TimeoutError as FutureTimeout

        chunks = _chunks(sessions, self.num_workers)
        if self.use_processes:
            futures = [
                pool.submit(_predict_chunk, chunk, how_many) for chunk in chunks
            ]
        else:
            futures = [
                pool.submit(_score_list, self._recommender, chunk, how_many)
                for chunk in chunks
            ]
        out = []
        for chunk, future in zip(chunks, futures):
            # timeout=None (no deadline) blocks indefinitely, matching the
            # bare result() this replaces; with a deadline the remaining
            # budget bounds every chunk join.
            try:
                out.extend(
                    future.result(
                        timeout=None if deadline is None else deadline.remaining()
                    )
                )
            except FutureTimeout:
                future.cancel()
                out.extend([None] * len(chunk))
        return out

    def _compute_index_sharded(
        self,
        sessions: list[list[ItemId]],
        how_many: int,
        deadline: Deadline | None = None,
    ) -> list[list[ScoredItem] | None]:
        """Fan each session over every index shard, then merge candidates.

        The shard fan-out is all-or-nothing per batch, so the deadline is
        checked between per-session merges: sessions whose merge has not
        started by expiry are shed.
        """
        model = self._recommender
        assert isinstance(model, VMISKNN) and self._shards is not None
        capped = [model._capped(items) for items in sessions]
        if self.num_workers <= 1:
            per_shard = [
                _shard_candidates(shard, capped) for shard in self._shards
            ]
        else:
            pool = self._pool()
            from concurrent.futures import TimeoutError as FutureTimeout

            futures = [
                pool.submit(_shard_candidates, shard, capped)
                for shard in self._shards
            ]
            per_shard = []
            try:
                for future in futures:
                    per_shard.append(
                        future.result(
                            timeout=None
                            if deadline is None
                            else deadline.remaining()
                        )
                    )
            except FutureTimeout:
                # The shard fan-out is all-or-nothing: without every
                # shard's candidates no session can be merged, so the
                # whole batch is shed.
                for future in futures:
                    future.cancel()
                return [None] * len(capped)
        out: list[list[ScoredItem] | None] = []
        for position, items in enumerate(capped):
            if deadline is not None and deadline.expired:
                out.append(None)
                continue
            out.append(
                self._merge_candidates(
                    model,
                    items,
                    [candidates[position] for candidates in per_shard],
                    how_many,
                )
            )
        return out

    @staticmethod
    def _merge_candidates(
        model: VMISKNN,
        capped_items: list[ItemId],
        shard_maps: list[dict[SessionId, float]],
        how_many: int,
    ) -> list[ScoredItem]:
        """Serial Algorithm 2 tail over the union of shard candidates.

        Sessions are partitioned across shards, so the maps are disjoint
        and each carries exact global similarities. Keep the ``m`` most
        recent candidates (the global ``b_t`` bound), select the top-k
        with the serial path's bounded heap, then score items.
        """
        merged: dict[SessionId, float] = {}
        for shard_map in shard_maps:
            merged.update(shard_map)
        if len(merged) > model.m:
            # Internal ids ascend with (timestamp, external id) at build
            # time, so ordering by the id alone IS the recency order with
            # its deterministic tie-break: nlargest over a
            # (timestamps[sid], sid) key would select and order the very
            # same ids while paying a timestamp lookup per candidate.
            kept = heapq.nlargest(model.m, merged)
            merged = {sid: merged[sid] for sid in kept}
        # Internal session ids ascend with (timestamp, external id), so the
        # id tiebreak reproduces the serial path's deterministic
        # (similarity, timestamp, id) neighbour order even on exact ties.
        top = BoundedTopK[SessionId](model.k, model.heap_arity)
        for session_id, similarity in merged.items():
            top.offer(similarity, session_id, session_id)
        neighbors = [(sid, sim) for sim, _, sid in top.descending()]
        scores = score_items(
            model.index,
            capped_items,
            neighbors,
            match_weight=model.match_weight,
            style=model.scoring_style,
            exclude_current_items=model.exclude_current_items,
        )
        return top_n(scores, how_many)
