"""Hyperparameter grid search over (k, m) — the machinery behind Figure 2.

The paper runs an exhaustive grid over 55 combinations of ``k`` (number of
neighbours) and ``m`` (recent sessions per item) and plots MRR@20 and
Prec@20 heatmaps. ``grid_search`` builds the columnar index *once* at the
largest ``m`` (posting lists for smaller ``m`` are prefixes, so a
query-time ``m`` below the build-time cap is exact) and sweeps the query
parameters with the pods' scorer, ``VMISKNNColumnar``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.types import Click, ItemId, SessionId
from repro.eval.evaluator import EvaluationResult, evaluate_next_item


@dataclass(frozen=True)
class GridPoint:
    """One evaluated (k, m) combination."""

    k: int
    m: int
    result: EvaluationResult

    def metric(self, name: str) -> float:
        value = getattr(self.result, name, None)
        if value is None:
            raise ValueError(f"unknown metric {name!r}")
        return value


@dataclass
class GridSearchResult:
    """All evaluated grid points with lookup and rendering helpers."""

    ks: list[int]
    ms: list[int]
    points: list[GridPoint]

    def best(self, metric: str = "mrr") -> GridPoint:
        """The grid point maximising the metric."""
        return max(self.points, key=lambda point: point.metric(metric))

    def matrix(self, metric: str = "mrr") -> list[list[float]]:
        """Row-major [k][m] matrix of metric values (Figure 2 layout)."""
        by_key = {(p.k, p.m): p.metric(metric) for p in self.points}
        return [[by_key[(k, m)] for m in self.ms] for k in self.ks]

    def heatmap(self, metric: str = "mrr") -> str:
        """Text heatmap, lighter shades = better (Figure 2 rendering)."""
        shades = " .:-=+*#%@"
        matrix = self.matrix(metric)
        flat = [value for row in matrix for value in row]
        low, high = min(flat), max(flat)
        span = (high - low) or 1.0
        lines = ["m:    " + "  ".join(f"{m:>6}" for m in self.ms)]
        for k, row in zip(self.ks, matrix):
            cells = []
            for value in row:
                shade = shades[int((value - low) / span * (len(shades) - 1))]
                cells.append(f"{shade * 3:>6}")
            lines.append(f"k={k:<5}" + "  ".join(cells))
        return "\n".join(lines)

    def is_unimodal_ridge(self, metric: str = "mrr", tolerance: float = 0.0) -> bool:
        """Loose unimodality check: the best cell's row and column rise
        towards it and fall after it (the qualitative Figure 2 finding)."""
        best = self.best(metric)
        row = self.matrix(metric)[self.ks.index(best.k)]
        column = [r[self.ms.index(best.m)] for r in self.matrix(metric)]
        return _unimodal(row, tolerance) and _unimodal(column, tolerance)


def _unimodal(values: Sequence[float], tolerance: float) -> bool:
    peak = max(range(len(values)), key=values.__getitem__)
    rising = all(
        values[i + 1] >= values[i] - tolerance for i in range(peak)
    )
    falling = all(
        values[i + 1] <= values[i] + tolerance for i in range(peak, len(values) - 1)
    )
    return rising and falling


def grid_search(
    train_clicks: Sequence[Click],
    test_sequences: Mapping[SessionId, Sequence[ItemId]],
    ks: Sequence[int],
    ms: Sequence[int],
    cutoff: int = 20,
    max_predictions: int | None = None,
) -> GridSearchResult:
    """Evaluate VMIS-kNN at every (k, m) combination.

    The index is built once with ``max(ms)`` postings per item; each grid
    point then runs with its own query-time ``m`` and ``k``.
    """
    if not ks or not ms:
        raise ValueError("ks and ms must be non-empty")
    index = ColumnarSessionIndex.from_clicks(train_clicks, max_sessions_per_item=max(ms))
    points = []
    for k in ks:
        for m in ms:
            model = VMISKNNColumnar(index, m=m, k=k)
            result = evaluate_next_item(
                model, test_sequences, cutoff=cutoff, max_predictions=max_predictions
            )
            points.append(GridPoint(k=k, m=m, result=result))
    return GridSearchResult(ks=list(ks), ms=list(ms), points=points)
