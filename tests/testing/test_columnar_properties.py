"""Property suite: the columnar scorer is bit-equal to the heap path.

Three layers of evidence, from broad to adversarial:

* Hypothesis properties over tiny collision-heavy logs — every draw
  compares ``find_neighbors`` and ``recommend`` float for float (via
  ``float.hex``, so a ulp of drift fails loudly).
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

import pytest
from hypothesis import given, settings

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
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
