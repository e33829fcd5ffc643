"""Tests for the batch prediction engine and its LRU cache."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import batch as batch_module
from repro.core.batch import BatchPredictionEngine, LRUResultCache
from repro.core.colindex import VMISKNNColumnar
from repro.core.deadline import Deadline
from repro.core.predictor import SessionRecommender, batch_via_loop
from repro.core.types import ScoredItem
from repro.core.vmis import VMISKNN
from repro.data.synthetic import generate_clickstream


@pytest.fixture(scope="module")
def batch_clicks():
    return list(generate_clickstream(num_sessions=400, num_items=120, days=6, seed=9))


@pytest.fixture(scope="module")
def batch_model(batch_clicks):
    return VMISKNN.from_clicks(batch_clicks, m=60, k=30, exclude_current_items=True)


@pytest.fixture(scope="module")
def columnar_model(batch_clicks):
    return VMISKNNColumnar.from_clicks(
        batch_clicks, m=60, k=30, exclude_current_items=True
    )


@pytest.fixture(scope="module")
def query_sessions(batch_clicks):
    """Growing prefixes replayed from the training data, plus edge cases."""
    by_session: dict[int, list[int]] = {}
    for click in batch_clicks:
        by_session.setdefault(click.session_id, []).append(click.item_id)
    sequences = list(by_session.values())[:60]
    queries: list[list[int]] = [[], [10**9]]  # empty + unknown item
    for sequence in sequences:
        for cut in range(1, len(sequence)):
            queries.append(sequence[:cut])
    queries.append(list(queries[5]))  # intra-batch duplicate
    return queries


def scored_pairs(ranked):
    return [(scored.item_id, scored.score) for scored in ranked]


class TestLRUResultCache:
    def test_put_get_roundtrip(self):
        cache = LRUResultCache(maxsize=4)
        key = cache.key([1, 2], 5)
        assert cache.get(key) is None
        cache.put(key, [ScoredItem(7, 1.5)])
        assert cache.get(key) == [ScoredItem(7, 1.5)]
        assert cache.hits == 1 and cache.misses == 1

    def test_returned_list_is_a_copy(self):
        cache = LRUResultCache(maxsize=4)
        key = cache.key([1], 5)
        cache.put(key, [ScoredItem(7, 1.5)])
        cache.get(key).append(ScoredItem(8, 0.1))
        assert cache.get(key) == [ScoredItem(7, 1.5)]

    def test_lru_eviction_order(self):
        cache = LRUResultCache(maxsize=2)
        keys = [cache.key([n], 5) for n in range(3)]
        cache.put(keys[0], [])
        cache.put(keys[1], [])
        cache.get(keys[0])  # refresh 0, making 1 the eviction victim
        cache.put(keys[2], [])
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None
        assert len(cache) == 2

    def test_info_counters(self):
        cache = LRUResultCache(maxsize=8)
        key = cache.key([1], 5)
        cache.get(key)
        cache.put(key, [])
        cache.get(key)
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5
        assert info["size"] == 1 and info["maxsize"] == 8

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            LRUResultCache(maxsize=0)


ENGINE_CONFIGS = [
    pytest.param(dict(), id="inline"),
    pytest.param(dict(cache_size=0), id="no-cache"),
]


class TestBatchPredictionEngine:
    @pytest.mark.parametrize("config", ENGINE_CONFIGS)
    def test_batch_matches_serial_recommend(
        self, batch_model, query_sessions, config
    ):
        serial = [
            scored_pairs(batch_model.recommend(items, how_many=10))
            for items in query_sessions
        ]
        with BatchPredictionEngine(batch_model, **config) as engine:
            batched = engine.recommend_batch(query_sessions, how_many=10)
            assert [scored_pairs(ranked) for ranked in batched] == serial
            # a second pass (all-hot when cached) must be identical too
            again = engine.recommend_batch(query_sessions, how_many=10)
            assert [scored_pairs(ranked) for ranked in again] == serial

    def test_satisfies_protocol(self, batch_model):
        engine = BatchPredictionEngine(batch_model)
        assert isinstance(engine, SessionRecommender)

    def test_single_query_cache_hit_is_identical(self, batch_model, query_sessions):
        with BatchPredictionEngine(batch_model, cache_size=64) as engine:
            query = query_sessions[10]
            cold = engine.recommend(query, how_many=10)
            hot = engine.recommend(query, how_many=10)
            assert scored_pairs(hot) == scored_pairs(cold)
            assert engine.cache_info()["hits"] == 1

    def test_intra_batch_duplicates_computed_once(self, batch_model):
        with BatchPredictionEngine(batch_model, cache_size=64) as engine:
            query = [batch_model.index.session_items[0][0]]
            results = engine.recommend_batch([query, list(query), query])
            assert scored_pairs(results[0]) == scored_pairs(results[1])
            assert scored_pairs(results[1]) == scored_pairs(results[2])
            info = engine.cache_info()
            assert info["misses"] == 1 and info["size"] == 1

    def test_results_are_independent_copies(self, batch_model):
        with BatchPredictionEngine(batch_model, cache_size=64) as engine:
            query = [batch_model.index.session_items[0][0]]
            first, second = engine.recommend_batch([query, list(query)])
            first.clear()
            assert second  # sibling slot unaffected
            assert engine.recommend(query)  # cache unaffected

    def test_cache_disabled_reports_zeros(self, batch_model):
        engine = BatchPredictionEngine(batch_model, cache_size=0)
        engine.recommend([1, 2])
        info = engine.cache_info()
        assert info == {
            "hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0, "maxsize": 0,
            "deadline_shed": 0,
        }

    def test_close_is_idempotent(self, batch_model):
        engine = BatchPredictionEngine(batch_model)
        engine.recommend_batch([[1], [2], [3]])
        engine.close()
        assert engine.cache_info()["size"] == 0  # closing drops the results
        engine.close()

    def test_rejects_bad_arguments(self, batch_model):
        with pytest.raises(ValueError):
            BatchPredictionEngine(batch_model, cache_size=-1)
        # The engine takes a recommender and a cache size, nothing else.
        for knob in ("num_workers", "use_processes", "shard_strategy"):
            with pytest.raises(TypeError):
                BatchPredictionEngine(batch_model, **{knob: 2})

    def test_empty_batch(self, batch_model):
        with BatchPredictionEngine(batch_model) as engine:
            assert engine.recommend_batch([]) == []


def test_batch_via_loop_matches_manual_loop(batch_model, query_sessions):
    queries = query_sessions[:5]
    looped = batch_via_loop(batch_model, queries, how_many=7)
    assert [scored_pairs(r) for r in looped] == [
        scored_pairs(batch_model.recommend(q, how_many=7)) for q in queries
    ]


class TestBatchDeadlines:
    def make_clock(self):
        class FakeClock:
            now = 0.0

            def __call__(self):
                return self.now

        return FakeClock()

    def test_expired_deadline_sheds_all_compute(self, batch_model):
        from repro.core.deadline import Deadline

        clock = self.make_clock()
        with BatchPredictionEngine(batch_model, cache_size=64) as engine:
            results = engine.recommend_batch(
                [[1], [2], [3]], deadline=Deadline(0.0, clock=clock)
            )
            assert results == [[], [], []]
            assert engine.deadline_shed == 3
            assert engine.cache_info()["size"] == 0  # shed slots never cached

    def test_generous_deadline_matches_undeadlined_results(self, batch_model):
        from repro.core.deadline import Deadline

        with BatchPredictionEngine(batch_model, cache_size=0) as engine:
            plain = engine.recommend_batch([[1], [2]], how_many=5)
            timed = engine.recommend_batch(
                [[1], [2]], how_many=5, deadline=Deadline(60.0)
            )
            assert [scored_pairs(r) for r in timed] == [
                scored_pairs(r) for r in plain
            ]
            assert engine.deadline_shed == 0

    def test_cached_results_served_despite_expired_deadline(self, batch_model):
        from repro.core.deadline import Deadline

        clock = self.make_clock()
        with BatchPredictionEngine(batch_model, cache_size=64) as engine:
            warm = engine.recommend_batch([[1]], how_many=5)
            results = engine.recommend_batch(
                [[1]], how_many=5, deadline=Deadline(0.0, clock=clock)
            )
            # Finished work is never discarded; only new compute is shed.
            assert scored_pairs(results[0]) == scored_pairs(warm[0])
            assert engine.deadline_shed == 0


class CountingColumnar(VMISKNNColumnar):
    """Counts the sessions that reach the scorer (one search each): a lone
    session is searched by ``_neighbor_arrays``, the sessions of a batch
    call by one ``_batch_neighbors``."""

    searched = 0

    def _neighbor_arrays(self, session_items):
        self.searched += 1
        return super()._neighbor_arrays(session_items)

    def _batch_neighbors(self, sessions):
        self.searched += len(sessions)
        return super()._batch_neighbors(sessions)


class TestEngineAroundTheFusedScorer:
    """What ``BatchPredictionEngine`` promises around ``recommend_batch``."""

    @pytest.fixture()
    def distinct(self, query_sessions):
        seen = dict.fromkeys(tuple(q) for q in query_sessions if q)
        return [list(q) for q in seen][:40]

    def test_deadline_between_slices_sheds_exactly_the_unstarted(
        self, columnar_model, distinct
    ):
        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        step = batch_module._DEADLINE_SLICE
        assert len(distinct) == 2 * step + 8

        class Ticking(VMISKNNColumnar):
            """Every batch call costs 10 ms of the fake clock."""

            def recommend_batch(self, sessions, how_many=21):
                clock.now += 0.010
                return super().recommend_batch(sessions, how_many=how_many)

        model = Ticking(columnar_model.index, m=60, k=30, exclude_current_items=True)
        with BatchPredictionEngine(model, cache_size=256) as engine:
            # 15 ms: the slices starting at 0 and 10 ms run, the third is shed.
            results = engine.recommend_batch(
                distinct, how_many=10, deadline=Deadline(0.015, clock=clock)
            )
            finished = 2 * step
            assert [scored_pairs(r) for r in results[:finished]] == [
                scored_pairs(columnar_model.recommend(q, how_many=10))
                for q in distinct[:finished]
            ]
            assert results[finished:] == [[]] * 8
            assert all(columnar_model.recommend(q) for q in distinct[finished:])
            assert engine.deadline_shed == 8
            assert engine.cache_info()["size"] == finished  # shed: never cached

    def test_duplicates_and_cache_hits_never_reach_the_scorer(
        self, columnar_model, distinct
    ):
        model = CountingColumnar(
            columnar_model.index, m=60, k=30, exclude_current_items=True
        )
        with BatchPredictionEngine(model, cache_size=256) as engine:
            batch = distinct[:10] + [list(q) for q in distinct[:5]]
            engine.recommend_batch(batch, how_many=10)
            assert model.searched == 10  # five intra-batch duplicates collapsed
            engine.recommend_batch(distinct[:12], how_many=10)
            assert model.searched == 12  # ten hits, two new sessions

    def test_recommender_without_a_batch_method_is_looped(self, columnar_model):
        class Legacy:
            """Predates the batch API: ``recommend`` only."""

            calls = 0

            def recommend(self, session_items, how_many=21):
                self.calls += 1
                return columnar_model.recommend(session_items, how_many=how_many)

        legacy = Legacy()
        queries = [[1], [2], [3, 4]]
        with BatchPredictionEngine(legacy, cache_size=0) as engine:
            results = engine.recommend_batch(queries, how_many=5)
        assert [scored_pairs(r) for r in results] == [
            scored_pairs(columnar_model.recommend(q, how_many=5))
            for q in queries
        ]
        assert legacy.calls == 3

    def test_working_set_does_not_grow_with_the_batch(self, batch_clicks):
        """The fused step is bounded by rows per piece, not by the call:
        sixteen times the sessions must not cost sixteen times the peak."""
        model = VMISKNNColumnar.from_clicks(
            batch_clicks, m=200, k=100, exclude_current_items=True
        )
        by_session: dict[int, list[int]] = {}
        for click in batch_clicks:
            by_session.setdefault(click.session_id, []).append(click.item_id)
        queries = [items[:4] for items in by_session.values()][:256]
        assert len(queries) == 256

        def peak(sessions):
            tracemalloc.start()
            try:
                results = model.recommend_batch(sessions, how_many=21)
                _, high = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # what the call returns is not working set
            return high, sum(len(ranked) for ranked in results)

        peak(queries[:16])  # warm numpy's and the interpreter's own caches
        small, _ = peak(queries[:16])
        large, answers = peak(queries)
        assert answers > 16 * 21
        # 256 sessions hold 16x the result objects; beyond those the peak
        # stays within a small factor (unbounded, the factor is ~16).
        assert large < 3 * small + answers * 200
