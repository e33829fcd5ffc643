"""Edge cases for the columnar index and the vectorized scorer.

The broad bit-equality sweeps live in
``tests/testing/test_columnar_properties.py``; this file pins the narrow
edges by hand — empty posting runs, single-item sessions, ``m`` beyond
the build-time cap, the early-stopping cutoff landing exactly on the
heap-root timestamp, the evolving-session length cap, and the branches
of the array-at-a-time item scoring (zero match weights, repeated and
unknown query items, short result lists, callable match weights).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.types import Click
from repro.core.vmis import VMISKNN
from repro.core.weights import resolve_decay


def bit_pairs(neighbors):
    return [(sid, score.hex()) for sid, score in neighbors]


def bit_scores(ranked):
    return [(scored.item_id, scored.score.hex()) for scored in ranked]


def paired_models(clicks, build_m=50, **kwargs):
    """Heap-path and columnar models over the identical index contents."""
    index = SessionIndex.from_clicks(clicks, max_sessions_per_item=build_m)
    heap = VMISKNN(index, **kwargs)
    columnar = VMISKNNColumnar(
        ColumnarSessionIndex.from_session_index(index), **kwargs
    )
    return heap, columnar


class TestConstructionRoundtrip:
    def test_session_index_roundtrip(self, toy_index):
        columnar = ColumnarSessionIndex.from_session_index(toy_index)
        restored = columnar.to_session_index()
        assert restored.item_to_sessions == toy_index.item_to_sessions
        assert restored.session_items == toy_index.session_items
        assert restored.item_session_counts == toy_index.item_session_counts
        assert restored.max_sessions_per_item == toy_index.max_sessions_per_item
        # The columnar store is float64; integral values come back as the
        # integers they were, so the result can be serialized again.
        assert restored.session_timestamps == toy_index.session_timestamps
        assert all(type(t) is int for t in restored.session_timestamps)

    def test_fractional_timestamps_stay_floats(self):
        columnar = ColumnarSessionIndex.from_clicks(
            [Click(0, 1, 1.5), Click(1, 1, 2.0)], 5
        )
        assert columnar.to_session_index().session_timestamps == [1.5, 2.0]

    def test_timestamps_past_2_to_the_53_are_rounded_not_refused(self):
        """float64 cannot tell 2**53 + 1 from 2**53: the columnar index
        stores the rounded value, and internal ids still carry the order."""
        exact = SessionIndex.from_clicks(
            [Click("a", 1, 2**53), Click("b", 1, 2**53 + 1)], 5
        )
        assert exact.session_timestamps == [2**53, 2**53 + 1]
        columnar = ColumnarSessionIndex.from_session_index(exact)
        assert columnar.session_timestamps.tolist() == [2.0**53, 2.0**53]
        restored = columnar.to_session_index()
        assert restored.session_timestamps == [2**53, 2**53]
        assert restored.item_to_sessions == exact.item_to_sessions

    def test_surface_matches_session_index(self, toy_index):
        columnar = ColumnarSessionIndex.from_session_index(toy_index)
        assert columnar.num_sessions == toy_index.num_sessions
        assert columnar.num_items == toy_index.num_items
        assert columnar.memory_profile() == toy_index.memory_profile()
        for item in list(toy_index.item_to_sessions) + [10**9]:
            assert columnar.sessions_for_item(item) == (
                toy_index.sessions_for_item(item)
            )
            assert columnar.idf(item) == toy_index.idf(item)
        for sid in range(toy_index.num_sessions):
            assert columnar.timestamp_of(sid) == toy_index.timestamp_of(sid)
            assert columnar.items_of(sid) == toy_index.items_of(sid)

    def test_ascending_mirror_reverses_each_run(self, toy_index):
        columnar = ColumnarSessionIndex.from_session_index(toy_index)
        total = columnar.posting_sessions.shape[0]
        offsets = columnar.posting_offsets.tolist()
        for row in range(columnar.num_items):
            start, end = offsets[row], offsets[row + 1]
            run = columnar.posting_sessions[start:end].tolist()
            mirrored = columnar.posting_sessions_asc[
                total - end : total - start
            ].tolist()
            assert mirrored == run[::-1]

    def test_posting_sessions_is_a_view_of_the_mirror(self, toy_index):
        columnar = ColumnarSessionIndex.from_session_index(toy_index)
        stored = columnar.posting_sessions
        assert np.shares_memory(stored, columnar.posting_sessions_asc)
        assert stored.tolist() == columnar.posting_sessions_asc.tolist()[::-1]
        assert not stored.flags.writeable


# ``small_log`` at m = 50: one SHA-256 over what ``sessions_for_item`` (every
# item and one unknown), ``items_of`` (every session), ``to_session_index``
# and ``memory_profile`` returned while the index held the descending runs
# and the item ids of every session as buffers of their own.
SURFACE_SHA256 = "a3009e00c0533149d270fc3e8748a3170db69fbf51dfba2718921d4f3333315f"


def test_read_surface_returns_what_it_did(small_log):
    index = SessionIndex.from_clicks(small_log, max_sessions_per_item=50)
    columnar = ColumnarSessionIndex.from_session_index(index)
    digest = hashlib.sha256()
    items = sorted(index.item_to_sessions) + [10**9]
    digest.update(repr([columnar.sessions_for_item(i) for i in items]).encode())
    digest.update(
        repr([columnar.items_of(s) for s in range(columnar.num_sessions)]).encode()
    )
    back = columnar.to_session_index()
    digest.update(
        repr(
            (
                back.item_to_sessions,
                back.session_timestamps,
                back.session_items,
                back.item_session_counts,
                back.max_sessions_per_item,
            )
        ).encode()
    )
    digest.update(repr(columnar.memory_profile()).encode())
    assert digest.hexdigest() == SURFACE_SHA256
    assert columnar.memory_profile() == index.memory_profile()


class TestConstructionValidation:
    def _kwargs(self, **overrides):
        base = dict(
            item_ids=[1],
            item_frequencies=[2],
            posting_offsets=[0, 2],
            posting_sessions=[1, 0],
            session_timestamps=[100.0, 200.0],
            session_item_offsets=[0, 1, 2],
            session_item_values=[1, 1],
            max_sessions_per_item=10,
        )
        base.update(overrides)
        return base

    def test_valid_baseline_constructs(self):
        ColumnarSessionIndex(**self._kwargs())

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            ColumnarSessionIndex(**self._kwargs(posting_offsets=[1, 2]))

    def test_offsets_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ColumnarSessionIndex(
                **self._kwargs(
                    item_ids=[1, 2],
                    item_frequencies=[2, 1],
                    posting_offsets=[0, 2, 1],
                )
            )

    def test_offsets_must_end_at_payload_length(self):
        with pytest.raises(ValueError, match="payload length"):
            ColumnarSessionIndex(**self._kwargs(posting_offsets=[0, 1]))

    def test_item_ids_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ColumnarSessionIndex(
                **self._kwargs(
                    item_ids=[2, 1],
                    item_frequencies=[1, 1],
                    posting_offsets=[0, 1, 2],
                    posting_sessions=[1, 0],
                    session_item_values=[2, 1],
                )
            )

    def test_posting_ids_must_be_in_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ColumnarSessionIndex(**self._kwargs(posting_sessions=[5, 0]))

    def test_runs_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            ColumnarSessionIndex(**self._kwargs(posting_sessions=[0, 1]))

    def test_runs_must_be_distinct(self):
        with pytest.raises(ValueError, match="descending"):
            ColumnarSessionIndex(**self._kwargs(posting_sessions=[1, 1]))

    def test_session_items_need_a_posting_row(self):
        with pytest.raises(ValueError, match="no posting row"):
            ColumnarSessionIndex(**self._kwargs(session_item_values=[1, 7]))

    @pytest.mark.parametrize(
        "timestamps", [[100.0], [100.0, 200.0, 300.0]], ids=["fewer", "more"]
    )
    def test_one_timestamp_per_session(self, timestamps):
        """Two sessions (three offsets) and not two timestamps: refused,
        not an IndexError from a gather and not a silently short ``t``."""
        with pytest.raises(ValueError, match="session_timestamps"):
            ColumnarSessionIndex(**self._kwargs(session_timestamps=timestamps))


class TestEmptyPostingRuns:
    """An item row whose run is empty (all postings aged out) is legal."""

    def _with_empty_run(self):
        return ColumnarSessionIndex(
            item_ids=[1, 2],
            item_frequencies=[2, 3],
            posting_offsets=[0, 0, 2],  # item 1's run is empty
            posting_sessions=[1, 0],
            session_timestamps=[100.0, 200.0],
            session_item_offsets=[0, 1, 2],
            session_item_values=[2, 2],
            max_sessions_per_item=10,
        )

    def test_empty_run_queries(self):
        index = self._with_empty_run()
        assert index.sessions_for_item(1) == []
        assert index.sessions_for_item(2) == [1, 0]
        model = VMISKNNColumnar(index, m=5, k=5)
        # Query touching only the empty run finds no neighbours at all.
        assert model.find_neighbors([1]) == []
        assert model.recommend([1]) == []
        # Mixed query skips the empty run but scores the populated one.
        assert [sid for sid, _ in model.find_neighbors([1, 2])] == [1, 0]

    def test_leading_empty_run_validates(self):
        # Regression guard: the run-boundary mask must not wrap to -1
        # when the first run is empty.
        index = self._with_empty_run()
        assert index.posting_offsets.tolist() == [0, 0, 2]


class TestSingleItemSessions:
    def test_bit_equal_on_single_item_log(self):
        clicks = [Click(f"s{n}", n % 3, 100 + n) for n in range(9)]
        heap, columnar = paired_models(clicks, m=4, k=4)
        for query in ([0], [1], [2], [0, 1], [2, 0, 1], [9]):
            assert bit_pairs(columnar.find_neighbors(query)) == bit_pairs(
                heap.find_neighbors(query)
            )
            assert bit_scores(columnar.recommend(query)) == bit_scores(
                heap.recommend(query)
            )

    def test_single_item_query_uses_the_fast_path(self, toy_clicks):
        heap, columnar = paired_models(toy_clicks, m=3, k=10)
        for item in range(1, 6):
            assert bit_pairs(columnar.find_neighbors([item])) == bit_pairs(
                heap.find_neighbors([item])
            )


class TestSamplingEdges:
    def test_m_larger_than_build_cap(self, small_log):
        """Scoring m beyond the build-time posting cap must stay exact:
        the bounded window simply never fills."""
        clicks = list(small_log)
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=3)
        heap = VMISKNN(index, m=64, k=20)
        columnar = VMISKNNColumnar(
            ColumnarSessionIndex.from_session_index(index), m=64, k=20
        )
        sequences = list(small_log.session_item_sequences().values())[:15]
        for sequence in sequences:
            prefix = sequence[: max(1, len(sequence) // 2)]
            assert bit_pairs(columnar.find_neighbors(prefix)) == bit_pairs(
                heap.find_neighbors(prefix)
            )
            assert bit_scores(columnar.recommend(prefix)) == bit_scores(
                heap.recommend(prefix)
            )

    def test_early_stop_cutoff_exactly_at_heap_root_timestamp(self):
        """Posting entries whose timestamp ties the heap root exactly must
        still accumulate (the heap path stops on *strictly* older only).

        All four sessions tie on the timestamp, so after item 10 fills
        the m=2 sample the root timestamp equals every remaining posting
        timestamp; item 20's run for retained session 2 lands exactly on
        the cutoff and its weight must be added.
        """
        clicks = [
            Click("a", 10, 100),
            Click("b", 10, 100),
            Click("b", 20, 100),
            Click("c", 10, 100),
            Click("c", 20, 100),
            Click("d", 10, 100),
        ]
        heap, columnar = paired_models(clicks, m=2, k=4)
        query = [20, 10]
        expected = heap.find_neighbors(query)
        got = columnar.find_neighbors(query)
        assert bit_pairs(got) == bit_pairs(expected)
        # Retained = two largest internal ids {2 ("c"), 3 ("d")}; session
        # 2 shares both query items, so both decay weights accumulate.
        decay = resolve_decay("linear")
        w_20, w_10 = decay(1, 2), decay(2, 2)
        assert got == [(2, w_10 + w_20), (3, w_10)]

    def test_max_session_items_truncates_before_scoring(self, toy_clicks):
        heap, columnar = paired_models(
            toy_clicks, m=5, k=5, max_session_items=2
        )
        _, untruncated = paired_models(toy_clicks, m=5, k=5)
        long_query = [1, 3, 2, 4]
        assert bit_pairs(columnar.find_neighbors(long_query)) == bit_pairs(
            heap.find_neighbors(long_query)
        )
        # The cap keeps the *newest* suffix, exactly once.
        assert bit_pairs(columnar.find_neighbors(long_query)) == bit_pairs(
            untruncated.find_neighbors(long_query[-2:])
        )
        assert bit_scores(columnar.recommend(long_query)) == bit_scores(
            heap.recommend(long_query)
        )


class TestItemScoringArrays:
    """The array item-scoring pipeline against the heap path, by bits."""

    @pytest.fixture(scope="class")
    def long_log(self):
        """Sessions over 14 items where every long query still overlaps."""
        clicks = []
        for sid in range(40):
            for offset in range(1 + sid % 5):
                clicks.append(Click(sid, (sid * 3 + offset * 2) % 14, 1000 + sid))
        return clicks

    def assert_bit_equal(self, heap, columnar, query, how_many=21):
        got = columnar.recommend(query, how_many=how_many)
        assert bit_scores(got) == bit_scores(
            heap.recommend(query, how_many=how_many)
        )
        return got

    def test_paper_weight_zero_branch_past_nine_items(self, long_log):
        """Neighbours whose most recent shared item sits at position >= 10
        take the literal 0.0: no contribution, items not marked scored."""
        heap, columnar = paired_models(long_log, m=30, k=30)
        queries = [
            list(range(12)),
            list(range(13, -1, -1)),
            [0, 2, 4, 6, 8, 10, 12, 1, 3, 5, 7],
            [5] * 9 + [0, 1, 2, 3],
        ]
        for query in queries:
            assert len(query) > 9
            self.assert_bit_equal(heap, columnar, query)

    def test_only_zero_weight_neighbours_scores_nothing(self):
        """Every neighbour matches at position 10+: the heap path returns
        an empty list, not items with an accumulated 0.0."""
        clicks = [Click(0, 1, 10), Click(0, 2, 10), Click(1, 1, 20), Click(1, 3, 20)]
        heap, columnar = paired_models(clicks, m=5, k=5)
        query = [7] * 9 + [1]
        assert heap.recommend(query) == []
        assert columnar.recommend(query) == []
        # One position earlier the same neighbours contribute again.
        assert self.assert_bit_equal(heap, columnar, query[1:]) != []

    def test_repeated_and_unknown_query_items(self, toy_clicks):
        for exclude in (False, True):
            heap, columnar = paired_models(
                toy_clicks, m=5, k=5, exclude_current_items=exclude
            )
            for query in (
                [2, 2, 2],
                [1, 2, 1, 2, 1],
                [4, 10**9, 2],
                [10**9, 4, -7, 4],
                [0, 6, 1],  # 0 and 6 sort around the window's rows
                [99, 5],
            ):
                self.assert_bit_equal(heap, columnar, query)

    def test_how_many_beyond_the_scored_items(self, toy_clicks):
        heap, columnar = paired_models(
            toy_clicks, m=5, k=5, exclude_current_items=True
        )
        got = self.assert_bit_equal(heap, columnar, [1, 2], how_many=1000)
        assert 0 < len(got) < 1000
        assert {scored.item_id for scored in got}.isdisjoint({1, 2})
        assert self.assert_bit_equal(heap, columnar, [1, 2], how_many=0) == []

    def test_vsknn_style_with_exclusion_and_cap(self, long_log):
        heap, columnar = paired_models(
            long_log,
            m=30,
            k=30,
            scoring_style="vsknn",
            exclude_current_items=True,
            max_session_items=11,
            match_weight="reciprocal",
        )
        for query in (list(range(14)), [3, 3, 9, 1], [13]):
            self.assert_bit_equal(heap, columnar, query)

    def test_callable_match_weight_runs_once_per_position(self, long_log):
        """A callable lambda is evaluated per distinct most-recent-shared
        position that occurs — never per neighbour."""
        calls: list[int] = []

        def counting_weight(position: int) -> float:
            assert type(position) is int
            calls.append(position)
            return 0.0 if position % 4 == 0 else 1.0 / (1 + position)

        heap, columnar = paired_models(
            long_log, m=30, k=30, match_weight=counting_weight
        )
        for query in ([0, 3, 6], list(range(12)), [5, 5, 8, 5]):
            calls.clear()
            expected = heap.recommend(query)
            heap_positions = set(calls)
            assert len(calls) > len(query)  # the heap path: per neighbour

            calls.clear()
            got = columnar.recommend(query)
            assert bit_scores(got) == bit_scores(expected)
            assert len(calls) <= len(query)
            assert len(calls) == len(set(calls))
            assert set(calls) == heap_positions


class TestScorerContract:
    def test_constructor_rejects_bad_params(self):
        with pytest.raises(ValueError, match="m and k must be >= 1"):
            VMISKNNColumnar(m=0, k=5)
        with pytest.raises(ValueError, match="m and k must be >= 1"):
            VMISKNNColumnar(m=5, k=0)
        with pytest.raises(ValueError, match="max_session_items"):
            VMISKNNColumnar(max_session_items=0)

    def test_unfit_model_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            VMISKNNColumnar().find_neighbors([1])

    def test_unknown_scoring_style_rejected(self, toy_index):
        model = VMISKNNColumnar(
            ColumnarSessionIndex.from_session_index(toy_index),
            scoring_style="cosine",
        )
        with pytest.raises(ValueError, match="unknown scoring style"):
            model.recommend([1])

    def test_empty_and_unknown_queries(self, toy_index):
        model = VMISKNNColumnar(
            ColumnarSessionIndex.from_session_index(toy_index), m=5, k=5
        )
        assert model.find_neighbors([]) == []
        assert model.recommend([]) == []
        assert model.find_neighbors([10**9]) == []
        assert model.recommend([10**9]) == []

    def test_outputs_are_python_scalars(self, toy_index):
        model = VMISKNNColumnar(
            ColumnarSessionIndex.from_session_index(toy_index), m=5, k=5
        )
        for sid, score in model.find_neighbors([1, 2]):
            assert type(sid) is int and type(score) is float
        for scored in model.recommend([1, 2]):
            assert type(scored.item_id) is int
            assert type(scored.score) is float

    def test_fit_builds_with_the_model_m(self, toy_clicks):
        model = VMISKNNColumnar(m=2, k=5).fit(toy_clicks)
        assert model.index is not None
        assert model.index.max_sessions_per_item == 2
        heap = VMISKNN.from_clicks(toy_clicks, m=2, k=5)
        for query in ([1], [2, 4], [5, 2]):
            assert bit_pairs(model.find_neighbors(query)) == bit_pairs(
                heap.find_neighbors(query)
            )
