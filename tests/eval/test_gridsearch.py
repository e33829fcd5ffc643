"""Tests for the (k, m) grid search behind Figure 2."""

from __future__ import annotations

import pytest

from repro.data.split import temporal_split
from repro.eval.gridsearch import grid_search, _unimodal


@pytest.fixture(scope="module")
def split(small_log):
    return temporal_split(small_log)


@pytest.fixture(scope="module")
def result(split):
    return grid_search(
        list(split.train),
        split.test_sequences(),
        ks=[5, 20, 50],
        ms=[10, 50, 100],
        max_predictions=150,
    )


class TestGridSearch:
    def test_evaluates_full_grid(self, result):
        assert len(result.points) == 9
        assert {(p.k, p.m) for p in result.points} == {
            (k, m) for k in (5, 20, 50) for m in (10, 50, 100)
        }

    def test_best_is_maximum(self, result):
        best = result.best("mrr")
        assert all(best.metric("mrr") >= p.metric("mrr") for p in result.points)

    def test_matrix_layout(self, result):
        matrix = result.matrix("mrr")
        assert len(matrix) == 3 and len(matrix[0]) == 3
        assert matrix[0][0] == result.points[0].metric("mrr")

    def test_heatmap_renders(self, result):
        heatmap = result.heatmap("mrr")
        assert "k=5" in heatmap and "m:" in heatmap

    def test_metric_variants(self, result):
        assert result.best("precision").metric("precision") >= 0.0

    def test_unknown_metric_raises(self, result):
        with pytest.raises(ValueError):
            result.best("nope")

    def test_empty_grid_rejected(self, split):
        with pytest.raises(ValueError):
            grid_search(list(split.train), split.test_sequences(), ks=[], ms=[5])


#: Every point of the 3x3 grid above as (k, m, predictions, then MRR, HR,
#: precision, recall and MAP as ``float.hex()``). Recorded when the grid
#: still scored with the heap ``VMISKNN``: the columnar scorer reproduces
#: every metric to the last bit.
GOLDEN_GRID = [
    (5, 10, 150, "0x1.050253d2af548p-2", "0x1.69d0369d0369dp-1", "0x1.27216f70eadadp-3", "0x1.5ccfda0601309p-1", "0x1.4cd3d79666d97p-2"),
    (5, 50, 150, "0x1.f6a93cd0d959fp-3", "0x1.740da740da741p-1", "0x1.2d4fa901ca8a7p-3", "0x1.68ca955996248p-1", "0x1.42d2110bba1e0p-2"),
    (5, 100, 150, "0x1.fa48735a71bcfp-3", "0x1.740da740da741p-1", "0x1.2e57847db3adap-3", "0x1.68ca955996248p-1", "0x1.45d0e73ad5016p-2"),
    (20, 10, 150, "0x1.3a0278bef9796p-2", "0x1.9d0369d0369d0p-1", "0x1.e048d200ab98ap-4", "0x1.84c423eb5c305p-1", "0x1.813857fdc4bd2p-2"),
    (20, 50, 150, "0x1.54607089fb483p-2", "0x1.b4e81b4e81b4fp-1", "0x1.d3cc009b2aa5ap-4", "0x1.a42c3dccdc7e6p-1", "0x1.91f09c129dd1ep-2"),
    (20, 100, 150, "0x1.4e26b51d6f026p-2", "0x1.b4e81b4e81b4fp-1", "0x1.d3cc009b2aa5ap-4", "0x1.a42c3dccdc7e6p-1", "0x1.8d6dbf91ac7d9p-2"),
    (50, 10, 150, "0x1.3a0278bef9796p-2", "0x1.9d0369d0369d0p-1", "0x1.e048d200ab98ap-4", "0x1.84c423eb5c305p-1", "0x1.813857fdc4bd2p-2"),
    (50, 50, 150, "0x1.6bbbff15e5941p-2", "0x1.bf258bf258bf2p-1", "0x1.df05e098bd44fp-4", "0x1.ae59bb18bee3cp-1", "0x1.b68a174c3208ap-2"),
    (50, 100, 150, "0x1.60d927f2b0d17p-2", "0x1.bf258bf258bf2p-1", "0x1.df05e098bd44fp-4", "0x1.ae59bb18bee3cp-1", "0x1.a496fe3f7e6c9p-2"),
]


def test_every_point_matches_the_golden(result):
    assert [
        (
            p.k,
            p.m,
            p.result.predictions,
            p.result.mrr.hex(),
            p.result.hit_rate.hex(),
            p.result.precision.hex(),
            p.result.recall.hex(),
            p.result.map.hex(),
        )
        for p in result.points
    ] == GOLDEN_GRID


class TestUnimodal:
    def test_monotone_is_unimodal(self):
        assert _unimodal([1, 2, 3], 0.0)
        assert _unimodal([3, 2, 1], 0.0)

    def test_peak_in_middle(self):
        assert _unimodal([1, 3, 2], 0.0)

    def test_valley_is_not_unimodal(self):
        assert not _unimodal([3, 1, 4], 0.0)

    def test_tolerance_allows_noise(self):
        assert _unimodal([1.0, 0.99, 2.0, 1.0], 0.05)
