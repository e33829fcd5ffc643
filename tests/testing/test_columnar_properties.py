"""Property suite: the columnar scorer is bit-equal to the heap path.

Three layers of evidence, from broad to adversarial:

* Hypothesis properties over tiny collision-heavy logs — every draw
  compares ``find_neighbors`` and ``recommend`` float for float (via
  ``float.hex``, so a ulp of drift fails loudly); the fused
  ``recommend_batch`` is held to ``recommend`` the same way, over drawn
  *lists* of sessions and piece bounds.
* The workload-corpus regimes (uniform, skewed, all-tied timestamps,
  bursty, bot-heavy) swept through the differential oracle, which now
  carries ``vmis-columnar`` in its bit-exact family.
* A planted columnar bug — the bounded window copied one entry short —
  demonstrating that the oracle catches a realistic off-by-one and that
  ddmin shrinks it to a readable fixture; the shrunk case is committed
  under ``tests/regressions/`` and replayed by ``test_regressions.py``.
"""

from __future__ import annotations

import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import colindex
from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.types import Click
from repro.core.vmis import VMISKNN
from repro.core.weights import DECAY_FUNCTIONS, MATCH_WEIGHT_FUNCTIONS
from repro.data.synthetic import generate_clickstream
from repro.testing.generators import WorkloadConfig, WorkloadGenerator
from repro.testing.oracle import (
    DifferentialRunner,
    HyperParams,
    load_regression,
    write_regression,
)
from repro.testing.strategies import click_logs, evolving_sessions, hyperparams

REGRESSIONS = Path(__file__).resolve().parent.parent / "regressions"

#: The adversarial regimes the satellite sweep must cover by name.
REGIMES = {
    "uniform": dict(popularity_exponent=0.0, timestamp_granularity=0.0),
    "skewed": dict(popularity_exponent=1.5, timestamp_granularity=100.0),
    "timestamp-tie-dense": dict(timestamp_granularity=10_000.0),
    "bursty": dict(bursty_fraction=0.6, timestamp_granularity=500.0),
    "bot-heavy": dict(bot_fraction=0.3, bot_item_pool=2),
}


def _regime_config(regime: str) -> WorkloadConfig:
    # crc32, not hash(): str hashes are salted per process
    # (PYTHONHASHSEED), and a failing regime must be re-runnable.
    offset = zlib.crc32(regime.encode()) % 97
    return WorkloadConfig(seed=5200 + offset, **REGIMES[regime])


def _paired(clicks, params: HyperParams, **scoring):
    index = SessionIndex.from_clicks(clicks, max_sessions_per_item=params.m)
    kwargs = dict(
        m=params.m,
        k=params.k,
        decay=params.decay,
        match_weight=params.match_weight,
        **scoring,
    )
    heap = VMISKNN(index, **kwargs)
    columnar = VMISKNNColumnar(
        ColumnarSessionIndex.from_session_index(index), **kwargs
    )
    return heap, columnar


def _neighbor_bits(model, query):
    return [(sid, score.hex()) for sid, score in model.find_neighbors(query)]


def _recommend_bits(model, query, how_many=20):
    return [
        (scored.item_id, scored.score.hex())
        for scored in model.recommend(query, how_many=how_many)
    ]


class TestHypothesisBitEquality:
    @given(clicks=click_logs(), query=evolving_sessions(), params=hyperparams())
    def test_find_neighbors_bit_equal(self, clicks, query, params):
        heap, columnar = _paired(clicks, params)
        assert _neighbor_bits(columnar, query) == _neighbor_bits(heap, query)

    @given(clicks=click_logs(), query=evolving_sessions(), params=hyperparams())
    def test_recommend_bit_equal(self, clicks, query, params):
        heap, columnar = _paired(clicks, params)
        assert _recommend_bits(columnar, query) == _recommend_bits(heap, query)

    @given(clicks=click_logs(), query=evolving_sessions(max_length=7))
    @settings(max_examples=25)
    def test_vsknn_style_and_exclusion_bit_equal(self, clicks, query):
        index = SessionIndex.from_clicks(clicks, max_sessions_per_item=3)
        kwargs = dict(
            m=3,
            k=5,
            scoring_style="vsknn",
            exclude_current_items=True,
            max_session_items=3,
        )
        heap = VMISKNN(index, **kwargs)
        columnar = VMISKNNColumnar(
            ColumnarSessionIndex.from_session_index(index), **kwargs
        )
        assert _recommend_bits(columnar, query) == _recommend_bits(heap, query)


def _every_other_position(position: int) -> float:
    """A callable match weight with structural zeros (even positions)."""
    return 0.0 if position % 2 == 0 else 1.0 / position


@st.composite
def session_batches(draw: st.DrawFn) -> list[list[int]]:
    """A list of evolving sessions for one ``recommend_batch`` call.

    ``click_logs`` draws items 0..5, so 6, 7 and 10**9 are unknown: a
    session of those alone has no neighbour. Sessions may be empty, may
    repeat an item, and the batch may repeat a session.
    """
    session = st.lists(
        st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7, 10**9]), max_size=6
    )
    size = draw(st.sampled_from([1, 2, 3, 17]))
    batch = draw(st.lists(session, min_size=size, max_size=size))
    for source in draw(st.lists(st.integers(0, size - 1), max_size=2)):
        batch.append(list(batch[source]))
    return batch


def _batch_bits(ranked_lists):
    return [
        [(scored.item_id, scored.score.hex()) for scored in ranked]
        for ranked in ranked_lists
    ]


class TestRecommendBatchBitEquality:
    """``recommend_batch(qs)[i] == recommend(qs[i])``, every bit."""

    @given(
        clicks=click_logs(),
        batch=session_batches(),
        m=st.integers(1, 8),
        k=st.integers(1, 8),
        decay=st.sampled_from(sorted(DECAY_FUNCTIONS)),
        match_weight=st.sampled_from(
            [*sorted(MATCH_WEIGHT_FUNCTIONS), _every_other_position]
        ),
        scoring_style=st.sampled_from(["vmis", "vsknn"]),
        exclude_current_items=st.booleans(),
        max_session_items=st.sampled_from([None, 1, 3]),
        # The piece bound, on search candidates and on scoring rows alike:
        # 1 closes a piece after every session, 9 after a few, the
        # module's own value keeps these small batches whole.
        piece_rows=st.sampled_from([1, 9, colindex._PIECE_ROWS]),
    )
    def test_recommend_batch_bit_equal(
        self,
        clicks,
        batch,
        m,
        k,
        decay,
        match_weight,
        scoring_style,
        exclude_current_items,
        max_session_items,
        piece_rows,
    ):
        model = VMISKNNColumnar.from_clicks(
            clicks,
            m=m,
            k=k,
            decay=decay,
            match_weight=match_weight,
            scoring_style=scoring_style,
            exclude_current_items=exclude_current_items,
            max_session_items=max_session_items,
        )
        expected = [model.recommend(query, how_many=20) for query in batch]
        with mock.patch.object(colindex, "_PIECE_ROWS", piece_rows):
            fused = model.recommend_batch(batch, how_many=20)
        assert _batch_bits(fused) == _batch_bits(expected)

    def test_one_session_past_the_piece_bound(self):
        """At the module's own bound: a batch that fills one piece exactly
        and a batch one session longer, which opens a second piece."""
        clicks = list(
            generate_clickstream(num_sessions=600, num_items=90, days=5, seed=31)
        )
        model = VMISKNNColumnar.from_clicks(
            clicks, m=80, k=40, exclude_current_items=True
        )
        by_session: dict[int, list[int]] = {}
        for click in clicks:
            by_session.setdefault(click.session_id, []).append(click.item_id)
        queries = [items[:3] for items in by_session.values()][:400]

        pieces: list[int] = []
        score_piece = model._score_piece

        def counting(piece, how_many, results):
            pieces.append(len(piece))
            score_piece(piece, how_many, results)

        with mock.patch.object(model, "_score_piece", counting):
            model.recommend_batch(queries, how_many=20)
        assert len(pieces) > 1, "the batch must cross the bound"
        filled = pieces[0]  # every query here has a neighbour
        for size in (filled, filled + 1):
            pieces.clear()
            with mock.patch.object(model, "_score_piece", counting):
                fused = model.recommend_batch(queries[:size], how_many=20)
            assert pieces == ([filled] if size == filled else [filled, 1])
            assert _batch_bits(fused) == _batch_bits(
                [model.recommend(query, how_many=20) for query in queries[:size]]
            )

    # Explicit cases of the fused neighbour search. Each is checked at
    # every piece bound the property draws.

    @staticmethod
    def _assert_bit_equal(model, batch):
        expected = _batch_bits([model.recommend(q, how_many=20) for q in batch])
        for piece_rows in (1, 9, colindex._PIECE_ROWS):
            with mock.patch.object(colindex, "_PIECE_ROWS", piece_rows):
                fused = model.recommend_batch(batch, how_many=20)
            assert _batch_bits(fused) == expected, piece_rows
        return expected

    @staticmethod
    def _small_log():
        # Five sessions over items 10..14, one per timestamp.
        sessions = [[10, 11], [10, 12], [11, 12, 13], [10, 13], [12, 14, 10]]
        return [
            Click(number, item, number * 10 + position)
            for number, items in enumerate(sessions)
            for position, item in enumerate(items)
        ]

    def test_an_empty_session_and_one_with_no_known_item(self):
        model = VMISKNNColumnar.from_clicks(self._small_log(), m=3, k=3)
        expected = self._assert_bit_equal(
            model, [[], [10, 11], [999, 10**9], [12], []]
        )
        assert expected[0] == expected[2] == expected[4] == []
        assert expected[1] and expected[3]

    def test_a_lone_run_shorter_than_m_sets_no_floor(self):
        # Item 14 has one session and item 13 two, both under m = 4: each
        # of these sessions reads one run, and no run reaches m.
        model = VMISKNNColumnar.from_clicks(self._small_log(), m=4, k=4)
        assert len(model.index.sessions_for_item(13)) == 2 < model.m
        self._assert_bit_equal(model, [[14], [13], [13, 13], [14, 999]])

    def test_m_of_one(self):
        # Every run holds one id, which is also every run's floor.
        model = VMISKNNColumnar.from_clicks(self._small_log(), m=1, k=2)
        self._assert_bit_equal(
            model, [[10, 11, 12], [13, 10], [14], [11, 12, 13, 14], [10]]
        )

    def test_identical_sessions_in_one_call(self):
        model = VMISKNNColumnar.from_clicks(self._small_log(), m=2, k=2)
        expected = self._assert_bit_equal(model, [[10, 12]] * 3 + [[12, 10]])
        assert expected[0] == expected[1] == expected[2]

    def test_adjacent_sessions_own_adjacent_keys(self):
        """The newest id, ``num_sessions - 1``, retained by one session
        and id 0 by the next: their composite keys are neighbours, and a
        key stride one short would make them collide."""
        clicks = [
            Click(1, 20, 1), Click(1, 21, 2),
            Click(2, 30, 3), Click(2, 31, 4),
            Click(3, 40, 5), Click(3, 41, 6),
        ]
        model = VMISKNNColumnar.from_clicks(clicks, m=2, k=2)
        assert model.index.sessions_for_item(40) == [2]
        assert model.index.sessions_for_item(20) == [0]
        windows = []
        real = colindex._window_and_inverse

        def recorded(keys, key_bound):
            window = real(keys, key_bound)
            windows.append(window[0].tolist())
            return window

        with mock.patch.object(colindex, "_window_and_inverse", recorded):
            fused = model.recommend_batch([[40], [20]], how_many=20)
        assert windows[0] == [2, 3]  # 0 * 3 + 2 and 1 * 3 + 0
        assert [[s.item_id for s in ranked] for ranked in fused] == [
            [40, 41],
            [20, 21],
        ]
        self._assert_bit_equal(model, [[40], [20]])

    def test_fewer_than_two_sessions_take_recommend(self):
        model = VMISKNNColumnar.from_clicks(
            [Click(1, 10, 1), Click(1, 11, 2)], m=2, k=2
        )
        with mock.patch.object(model, "_score_piece") as fused:
            assert model.recommend_batch([]) == []
            assert model.recommend_batch([[10]]) == [model.recommend([10])]
        fused.assert_not_called()

    def test_unknown_scoring_style_raises_as_recommend_does(self):
        model = VMISKNNColumnar.from_clicks(
            [Click(1, 10, 1)], m=2, k=2, scoring_style="nope"
        )
        with pytest.raises(ValueError, match="unknown scoring style"):
            model.recommend_batch([[10], [10]])

    def test_window_keys_too_wide_to_pack_take_np_unique(self):
        """Both branches of the window helper agree with ``np.unique``."""
        keys = np.array([7, 3, 7, 0, 3, 3, 9], dtype=np.int64)
        for key_bound in (10, 2**61):
            distinct, inverse = colindex._window_and_inverse(keys, key_bound)
            expected = np.unique(keys, return_inverse=True)
            assert distinct.tolist() == expected[0].tolist()
            assert inverse.tolist() == expected[1].tolist()


class TestRegimeSweep:
    @pytest.mark.parametrize("regime", sorted(REGIMES), ids=str)
    def test_regime_holds_bit_equality(self, regime):
        generator = WorkloadGenerator(_regime_config(regime))
        clicks = generator.clicks()
        queries = generator.query_sessions(4)
        serving = dict(
            scoring_style="vsknn",
            exclude_current_items=True,
            max_session_items=3,
        )
        grid = [
            (HyperParams(m=2, k=3), {}),
            (HyperParams(m=5, k=20, decay="log", match_weight="uniform"), {}),
            (HyperParams(m=64, k=1, decay="quadratic"), {}),
            (HyperParams(m=5, k=20), serving),
            (HyperParams(m=64, k=3, match_weight="reciprocal"), serving),
        ]
        for params, scoring in grid:
            heap, columnar = _paired(clicks, params, **scoring)
            for query in queries:
                assert _neighbor_bits(columnar, query) == _neighbor_bits(
                    heap, query
                ), f"regime {regime} diverged under {params} {scoring}"
                assert _recommend_bits(columnar, query) == _recommend_bits(
                    heap, query
                ), f"regime {regime} diverged under {params} {scoring}"

    @pytest.mark.parametrize("regime", sorted(REGIMES), ids=str)
    def test_regime_workload_is_reproducible(self, regime):
        """Same regime, same workload — in this process and the next."""
        first = WorkloadGenerator(_regime_config(regime))
        second = WorkloadGenerator(_regime_config(regime))
        assert first.config == second.config
        assert first.clicks() == second.clicks()
        assert first.query_sessions(4) == second.query_sessions(4)

    def test_oracle_family_includes_columnar(self):
        assert "vmis-columnar" in DifferentialRunner().implementations


def _buggy_columnar_window(clicks, p: HyperParams) -> VMISKNNColumnar:
    """Planted bug: the columnar build copies each window one entry short.

    The realistic failure mode for the layout: an off-by-one in the
    posting-run copy drops the *oldest* eligible neighbour of every item,
    which only shows on queries whose retained sample reaches the end of
    a run — exactly the cases the oracle's corpus is tuned to hit.
    """
    index = SessionIndex.from_clicks(clicks, max_sessions_per_item=p.m)
    clipped = SessionIndex(
        item_to_sessions={
            item: run[:-1] if len(run) > 1 else list(run)
            for item, run in index.item_to_sessions.items()
        },
        session_timestamps=index.session_timestamps,
        session_items=index.session_items,
        item_session_counts=index.item_session_counts,
        max_sessions_per_item=index.max_sessions_per_item,
    )
    return VMISKNNColumnar(
        ColumnarSessionIndex.from_session_index(clipped),
        m=p.m,
        k=p.k,
        decay=p.decay,
        match_weight=p.match_weight,
    )


class TestPlantedColumnarBug:
    """End-to-end: the planted window bug is caught, shrunk and frozen."""

    def _runner(self) -> DifferentialRunner:
        return DifferentialRunner(
            extra_implementations={
                "buggy-columnar-window": _buggy_columnar_window
            }
        )

    def test_bug_is_caught_and_shrunk(self, tmp_path):
        runner = self._runner()
        report = runner.run_corpus(
            [
                WorkloadConfig(seed=5300 + n, num_sessions=8, num_items=4)
                for n in range(10)
            ],
            grid=[HyperParams(m=2, k=20)],
            stop_on_first=True,
        )
        assert not report.equivalent, "the planted bug must be detected"
        case = next(
            d
            for d in report.divergences
            if d.impl_b == "buggy-columnar-window"
        )
        shrunk = runner.shrink(case)
        assert shrunk.impl_b == "buggy-columnar-window"
        assert len(shrunk.clicks) <= 10, shrunk.describe()
        assert len(shrunk.query) <= 5
        assert runner._still_diverges(shrunk, shrunk.clicks, shrunk.query)

        path = write_regression(shrunk, tmp_path)
        reloaded = load_regression(path)
        assert reloaded.clicks == shrunk.clicks
        assert reloaded.output_a == shrunk.output_a

    def test_committed_fixture_still_reproduces(self):
        """The frozen ddmin fixture keeps demonstrating the planted bug
        (the clean-replay side is covered by test_regressions.py)."""
        fixtures = sorted(
            REGRESSIONS.glob("divergence-buggy-columnar-window-*.json")
        )
        assert fixtures, "the shrunk columnar fixture must stay committed"
        runner = self._runner()
        for path in fixtures:
            case = load_regression(path)
            assert runner._still_diverges(case, case.clicks, case.query), (
                f"{path.name} no longer reproduces its planted divergence"
            )
