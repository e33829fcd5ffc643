"""The canary quality gate: measure a candidate index before promoting.

A structurally valid index can still be semantically broken — built from
a half-day of clicks, from a log with its timestamps zeroed, or from the
wrong shop's traffic. Following the session-rec evaluation methodology
(Ludewig & Jannach, arXiv:1803.09587), promotion becomes a measurable
decision: the candidate is evaluated with the standard incremental
next-item protocol on a holdout slice and compared against the currently
promoted index. A candidate that loses more than the configured
Recall@20 / MRR@20 budget — or fails cheap structural sanity bounds —
is refused.

Both indexes are the ``ColumnarSessionIndex`` the registry loads, scored
with ``VMISKNNColumnar``: the gate measures what the pods will serve.

Checks:

* **min_sessions / min_items** — an implausibly small index means the
  upstream export was truncated;
* **coverage ratio** — the candidate must cover at least
  ``min_coverage_ratio`` of the current index's item catalogue (a daily
  build never legitimately loses half the catalogue);
* **posting bounds** — no posting list may exceed the build-time ``m``
  (an inverted-index invariant; violation means a buggy build);
* **quality deltas** — Recall@20 and MRR@20 on the holdout may not drop
  more than the configured relative budget versus the current index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.types import ItemId, SessionId
from repro.eval.evaluator import evaluate_next_item


@dataclass(frozen=True)
class GatePolicy:
    """Thresholds for the canary quality gate."""

    #: maximum tolerated *relative* drop versus the current index
    #: (0.1 = the candidate may lose up to 10% of current Recall@20).
    max_recall_drop: float = 0.10
    max_mrr_drop: float = 0.10
    #: structural sanity bounds.
    min_sessions: int = 10
    min_items: int = 5
    min_coverage_ratio: float = 0.5
    #: evaluation protocol knobs.
    cutoff: int = 20
    max_predictions: int | None = 2000
    #: VMIS-kNN hyperparameters used for the holdout evaluation.
    m: int = 500
    k: int = 100

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_recall_drop <= 1.0:
            raise ValueError("max_recall_drop must be in [0, 1]")
        if not 0.0 <= self.max_mrr_drop <= 1.0:
            raise ValueError("max_mrr_drop must be in [0, 1]")
        if not 0.0 <= self.min_coverage_ratio <= 1.0:
            raise ValueError("min_coverage_ratio must be in [0, 1]")


@dataclass(frozen=True)
class GateCheck:
    """One named check with its verdict and a human-readable detail."""

    name: str
    passed: bool
    detail: str


@dataclass
class GateReport:
    """All checks for one candidate, plus the measured metrics."""

    candidate_metrics: dict[str, float] = field(default_factory=dict)
    baseline_metrics: dict[str, float] = field(default_factory=dict)
    checks: list[GateCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def reasons(self) -> list[str]:
        """Why the candidate was refused (empty when it passed)."""
        return [
            f"{check.name}: {check.detail}"
            for check in self.checks
            if not check.passed
        ]

    def summary(self) -> dict:
        return {
            "passed": self.passed,
            "candidate_metrics": self.candidate_metrics,
            "baseline_metrics": self.baseline_metrics,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


HoldoutSequences = (
    Mapping[SessionId, Sequence[ItemId]] | Sequence[Sequence[ItemId]]
)


class CanaryQualityGate:
    """Decides whether a candidate index may replace the current one."""

    def __init__(self, policy: GatePolicy | None = None) -> None:
        self.policy = policy or GatePolicy()

    def evaluate(
        self,
        candidate: ColumnarSessionIndex,
        holdout: HoldoutSequences,
        current: ColumnarSessionIndex | None = None,
    ) -> GateReport:
        """Run structural checks, then the holdout quality comparison.

        With no ``current`` index (first ever build) only the structural
        checks and an absolute non-degenerate quality check apply.
        """
        policy = self.policy
        report = GateReport()
        self._structural_checks(candidate, current, report)
        if not report.passed:
            # Quality evaluation on a structurally broken index wastes
            # minutes of holdout replay to confirm what we already know.
            return report

        report.candidate_metrics = self._measure(candidate, holdout)
        if current is None:
            report.checks.append(
                GateCheck(
                    "first_build",
                    True,
                    "no current index; structural checks only",
                )
            )
            return report

        report.baseline_metrics = self._measure(current, holdout)
        for metric, budget in (
            ("recall", policy.max_recall_drop),
            ("mrr", policy.max_mrr_drop),
        ):
            base = report.baseline_metrics[metric]
            cand = report.candidate_metrics[metric]
            floor = base * (1.0 - budget)
            report.checks.append(
                GateCheck(
                    f"{metric}_delta",
                    cand >= floor,
                    f"candidate {cand:.4f} vs baseline {base:.4f} "
                    f"(floor {floor:.4f})",
                )
            )
        return report

    def _structural_checks(
        self,
        candidate: ColumnarSessionIndex,
        current: ColumnarSessionIndex | None,
        report: GateReport,
    ) -> None:
        policy = self.policy
        report.checks.append(
            GateCheck(
                "min_sessions",
                candidate.num_sessions >= policy.min_sessions,
                f"{candidate.num_sessions} sessions "
                f"(need >= {policy.min_sessions})",
            )
        )
        report.checks.append(
            GateCheck(
                "min_items",
                candidate.num_items >= policy.min_items,
                f"{candidate.num_items} items (need >= {policy.min_items})",
            )
        )
        longest = int(np.diff(candidate.posting_offsets).max(initial=0))
        report.checks.append(
            GateCheck(
                "posting_bounds",
                longest <= candidate.max_sessions_per_item,
                f"longest posting list {longest} "
                f"(cap m={candidate.max_sessions_per_item})",
            )
        )
        if current is not None and current.num_items > 0:
            covered = np.intersect1d(candidate.item_ids, current.item_ids)
            ratio = covered.shape[0] / current.num_items
            report.checks.append(
                GateCheck(
                    "item_coverage",
                    ratio >= policy.min_coverage_ratio,
                    f"covers {ratio:.1%} of current catalogue "
                    f"(need >= {policy.min_coverage_ratio:.0%})",
                )
            )

    def _measure(
        self, index: ColumnarSessionIndex, holdout: HoldoutSequences
    ) -> dict[str, float]:
        policy = self.policy
        model = VMISKNNColumnar(
            index, m=policy.m, k=policy.k, exclude_current_items=True
        )
        result = evaluate_next_item(
            model,
            holdout,
            cutoff=policy.cutoff,
            max_predictions=policy.max_predictions,
        )
        return {
            "recall": result.recall,
            "mrr": result.mrr,
            "hit_rate": result.hit_rate,
            "predictions": float(result.predictions),
        }
