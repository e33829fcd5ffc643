"""Tests for the canary quality gate (repro.index.lifecycle.gate)."""

from __future__ import annotations

import pytest

from repro.core.colindex import ColumnarSessionIndex
from repro.core.types import Click
from repro.data.split import temporal_split
from repro.index.lifecycle.gate import CanaryQualityGate, GatePolicy


@pytest.fixture(scope="module")
def split(small_log):
    return temporal_split(small_log, test_days=1)


@pytest.fixture(scope="module")
def holdout(split):
    return split.test_sequences()


@pytest.fixture(scope="module")
def healthy_index(split):
    return ColumnarSessionIndex.from_clicks(
        list(split.train), max_sessions_per_item=100
    )


@pytest.fixture(scope="module")
def starved_index(split):
    """Built from 5% of the training data: measurably worse."""
    train = list(split.train)
    return ColumnarSessionIndex.from_clicks(
        train[: len(train) // 20], max_sessions_per_item=100
    )


STARVED_POLICY = GatePolicy(
    max_recall_drop=0.05,
    max_mrr_drop=0.05,
    min_coverage_ratio=0.0,
    min_sessions=1,
    min_items=1,
    max_predictions=100,
)


def tiny_index(num_sessions=3, num_items=2):
    clicks = [
        Click(s, i % num_items, s * 100 + i)
        for s in range(num_sessions)
        for i in range(2)
    ]
    return ColumnarSessionIndex.from_clicks(clicks, max_sessions_per_item=10)


class TestPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_recall_drop": -0.1},
            {"max_mrr_drop": 2.0},
            {"min_coverage_ratio": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatePolicy(**kwargs)


class TestStructuralChecks:
    def test_first_build_passes_on_structure_only(self, healthy_index, holdout):
        gate = CanaryQualityGate(GatePolicy(max_predictions=50))
        report = gate.evaluate(healthy_index, holdout, current=None)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "first_build" in names
        assert report.baseline_metrics == {}
        assert report.candidate_metrics["predictions"] > 0

    def test_truncated_export_refused(self, holdout):
        gate = CanaryQualityGate(GatePolicy(min_sessions=10, min_items=5))
        report = gate.evaluate(tiny_index(), holdout, current=None)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert "min_sessions" in failed
        # quality evaluation short-circuits on structural failure
        assert report.candidate_metrics == {}
        assert any("min_sessions" in reason for reason in report.reasons())

    def test_catalogue_loss_refused(self, healthy_index, holdout):
        # candidate covering ~none of the current catalogue
        offset_clicks = [
            Click(s, 100_000 + i, s * 50 + i) for s in range(40) for i in range(3)
        ]
        candidate = ColumnarSessionIndex.from_clicks(
            offset_clicks, max_sessions_per_item=50
        )
        gate = CanaryQualityGate(GatePolicy(min_coverage_ratio=0.5))
        report = gate.evaluate(candidate, holdout, current=healthy_index)
        failed = {c.name for c in report.checks if not c.passed}
        assert "item_coverage" in failed

    def test_posting_bound_violation_refused(self, holdout):
        index = tiny_index(num_sessions=30)
        # simulate a buggy build: posting lists longer than the declared m
        index.max_sessions_per_item = 1
        gate = CanaryQualityGate(GatePolicy(min_sessions=1, min_items=1))
        report = gate.evaluate(index, holdout, current=None)
        failed = {c.name for c in report.checks if not c.passed}
        assert "posting_bounds" in failed


class TestQualityChecks:
    def test_equivalent_candidate_passes(self, healthy_index, holdout):
        gate = CanaryQualityGate(GatePolicy(max_predictions=50))
        report = gate.evaluate(healthy_index, holdout, current=healthy_index)
        assert report.passed
        assert report.candidate_metrics["recall"] == pytest.approx(
            report.baseline_metrics["recall"]
        )

    def test_degraded_candidate_refused(
        self, healthy_index, starved_index, holdout
    ):
        gate = CanaryQualityGate(STARVED_POLICY)
        report = gate.evaluate(starved_index, holdout, current=healthy_index)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.passed}
        assert failed & {"recall_delta", "mrr_delta"}

    def test_summary_shape(self, healthy_index, holdout):
        import json

        gate = CanaryQualityGate(GatePolicy(max_predictions=20))
        report = gate.evaluate(healthy_index, holdout, current=healthy_index)
        payload = json.loads(json.dumps(report.summary()))
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} >= {
            "min_sessions",
            "recall_delta",
            "mrr_delta",
        }


def hexed(summary):
    """``GateReport.summary()`` with every metric spelled ``float.hex()``."""
    return {
        **summary,
        "candidate_metrics": {
            name: value.hex() for name, value in summary["candidate_metrics"].items()
        },
        "baseline_metrics": {
            name: value.hex() for name, value in summary["baseline_metrics"].items()
        },
    }


class TestGoldenReports:
    """The whole report of two fixed decisions, bit for bit.

    Recorded when the gate still scored with the heap ``VMISKNN`` over a
    ``SessionIndex``: the columnar scorer reaches the same decisions with
    the same metrics, to the last bit.
    """

    def test_healthy_against_healthy(self, healthy_index, holdout):
        gate = CanaryQualityGate(GatePolicy(max_predictions=50))
        report = gate.evaluate(healthy_index, holdout, current=healthy_index)
        metrics = {
            "recall": "0x1.2e402bb0cf87ep-1",
            "mrr": "0x1.170e45239f7dfp-2",
            "hit_rate": "0x1.3333333333333p-1",
            "predictions": "0x1.9000000000000p+5",
        }
        assert hexed(report.summary()) == {
            "passed": True,
            "candidate_metrics": metrics,
            "baseline_metrics": metrics,
            "checks": [
                {
                    "name": "min_sessions",
                    "passed": True,
                    "detail": "697 sessions (need >= 10)",
                },
                {
                    "name": "min_items",
                    "passed": True,
                    "detail": "263 items (need >= 5)",
                },
                {
                    "name": "posting_bounds",
                    "passed": True,
                    "detail": "longest posting list 100 (cap m=100)",
                },
                {
                    "name": "item_coverage",
                    "passed": True,
                    "detail": "covers 100.0% of current catalogue (need >= 50%)",
                },
                {
                    "name": "recall_delta",
                    "passed": True,
                    "detail": "candidate 0.5903 vs baseline 0.5903 (floor 0.5313)",
                },
                {
                    "name": "mrr_delta",
                    "passed": True,
                    "detail": "candidate 0.2725 vs baseline 0.2725 (floor 0.2453)",
                },
            ],
        }

    def test_starved_against_healthy(self, healthy_index, starved_index, holdout):
        gate = CanaryQualityGate(STARVED_POLICY)
        report = gate.evaluate(starved_index, holdout, current=healthy_index)
        assert hexed(report.summary()) == {
            "passed": False,
            "candidate_metrics": {
                "recall": "0x1.38a94d242e6bcp-2",
                "mrr": "0x1.b8caf7bd72880p-4",
                "hit_rate": "0x1.147ae147ae148p-2",
                "predictions": "0x1.9000000000000p+6",
            },
            "baseline_metrics": {
                "recall": "0x1.481b4e81b4e80p-1",
                "mrr": "0x1.e7258b7b2944ap-3",
                "hit_rate": "0x1.3851eb851eb85p-1",
                "predictions": "0x1.9000000000000p+6",
            },
            "checks": [
                {
                    "name": "min_sessions",
                    "passed": True,
                    "detail": "30 sessions (need >= 1)",
                },
                {
                    "name": "min_items",
                    "passed": True,
                    "detail": "77 items (need >= 1)",
                },
                {
                    "name": "posting_bounds",
                    "passed": True,
                    "detail": "longest posting list 6 (cap m=100)",
                },
                {
                    "name": "item_coverage",
                    "passed": True,
                    "detail": "covers 29.3% of current catalogue (need >= 0%)",
                },
                {
                    "name": "recall_delta",
                    "passed": False,
                    "detail": "candidate 0.3053 vs baseline 0.6408 (floor 0.6088)",
                },
                {
                    "name": "mrr_delta",
                    "passed": False,
                    "detail": "candidate 0.1076 vs baseline 0.2379 (floor 0.2260)",
                },
            ],
        }
