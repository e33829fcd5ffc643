"""Cached, deduplicating batch engine around any recommender.

Serenade's headline claim is throughput under load: >1000 rps at
p90 < 7 ms (Figure 3b). A pod answers each request on the thread that
received it (PAPER.md §1), so this module adds no fan-out; it wraps the
ordinary :class:`~repro.core.predictor.SessionRecommender` surface with
the work a batch can skip:

* **Deduplication** — ``recommend_batch`` collapses identical queries
  within one batch, so each distinct session is scored once and its
  result copied into every slot that asked for it.
* **Caching** — an LRU result cache keyed on ``(session_items,
  how_many)`` with hit/miss counters. The key is the *full* session
  tuple, so hits are always bit-identical to cold calls.
* **Deadline slicing** — with a :class:`~repro.core.deadline.Deadline`
  the distinct sessions are scored in slices of ``_DEADLINE_SLICE``;
  a slice that has not started by expiry is shed and counted.

The distinct sessions go through the recommender's own
``recommend_batch``, where a model fuses work across sessions
(``VMISKNNColumnar.recommend_batch``).

The engine itself satisfies ``SessionRecommender``, so it can replace the
raw recommender anywhere: inside a serving pod (single-query path with
caching), in the evaluator's batch replay, or behind the
``/v1/recommend_batch`` HTTP endpoint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from repro.core.deadline import Deadline
from repro.core.locking import guarded_by
from repro.core.predictor import SessionRecommender, batch_via_loop
from repro.core.types import ItemId, ScoredItem

CacheKey = tuple[tuple[ItemId, ...], int]


@guarded_by("_lock", "_entries", "hits", "misses")
class LRUResultCache:
    """Thread-safe LRU cache over recommendation lists, with counters.

    Keys are ``(session_items, how_many)``; values are the ranked lists
    returned by the recommender. Values are copied on the way in and out
    so a caller mutating its result list cannot poison the cache.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[CacheKey, list[ScoredItem]] = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def key(session_items: Sequence[ItemId], how_many: int) -> CacheKey:
        """The cache key for one query: the session plus the count."""
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


# Sessions per deadline check: large enough for a model's batch method
# to fuse work across them, small enough that an expired deadline sheds
# most of a long call.
_DEADLINE_SLICE = 16


class BatchPredictionEngine:
    """Cached, deduplicated ``recommend_batch`` over any recommender.

    Args:
        recommender: the wrapped model; any ``SessionRecommender``.
        cache_size: LRU capacity; ``0`` disables caching.
    """

    def __init__(
        self, recommender: SessionRecommender, cache_size: int = 4096
    ) -> None:
        self._recommender = recommender
        self.cache = LRUResultCache(cache_size) if cache_size else None
        #: result slots shed because a batch deadline expired first.
        self.deadline_shed = 0

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drop cached results (idempotent).

        The cache is invalidated here because a closed engine's results
        belong to the recommender it wrapped; a rollout swapping that
        recommender must not leave stale recommendations reachable.
        """
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
        """Batch path: cache, deduplicate, then score the distinct work.

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
            key = LRUResultCache.key(items, how_many)
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

    def _compute_batch(
        self,
        sessions: list[list[ItemId]],
        how_many: int,
        deadline: Deadline | None = None,
    ) -> list[list[ScoredItem] | None]:
        """Compute distinct queries; ``None`` marks a deadline-shed slot.

        Without a deadline the whole list is one call. With one it goes
        in slices, the deadline read before each: a slice that has not
        started by expiry is shed whole.
        """
        step = len(sessions) if deadline is None else _DEADLINE_SLICE
        out: list[list[ScoredItem] | None] = []
        for start in range(0, len(sessions), step):
            part = sessions[start : start + step]
            if deadline is not None and deadline.expired:
                out.extend([None] * len(part))
            else:
                out.extend(_score_list(self._recommender, part, how_many))
        return out
