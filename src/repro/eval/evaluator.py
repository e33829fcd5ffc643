"""Next-item evaluation by incremental session replay (§5.1 protocol).

For every held-out session, the evaluator reveals it one click at a time:
after each prefix it asks the recommender for a top-``cutoff`` list, scores
it against the immediate next item (MRR, HitRate) and against all remaining
items (Precision, Recall, MAP), and optionally records the prediction
latency — the measurement behind both the quality tables and the latency
figures.

Two execution paths produce identical metrics:

* :func:`evaluate_next_item` replays serially through ``recommend`` — the
  latency-faithful path (one timing sample per prediction);
* :func:`evaluate_next_item_batched` materialises the same prediction
  steps and pushes them through ``recommend_batch`` in chunks — the
  throughput path for offline sweeps, built for
  :class:`~repro.core.batch.BatchPredictionEngine`. Latencies, when
  recorded, are per-batch wall clock amortised per prediction.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.core.predictor import SessionRecommender, batch_via_loop
from repro.core.types import ItemId, SessionId
from repro.eval.metrics import (
    average_precision,
    hit,
    precision,
    recall,
    reciprocal_rank,
)


@dataclass
class EvaluationResult:
    """Averaged metrics plus raw per-prediction latencies."""

    cutoff: int
    predictions: int = 0
    mrr: float = 0.0
    hit_rate: float = 0.0
    precision: float = 0.0
    recall: float = 0.0
    map: float = 0.0
    latencies_seconds: list[float] = field(default_factory=list)

    def latency_percentile(self, q: float) -> float:
        """q-th percentile prediction latency in seconds (q in [0, 100])."""
        if not self.latencies_seconds:
            raise ValueError("no latencies recorded")
        ordered = sorted(self.latencies_seconds)
        position = min(
            len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1)))
        )
        return ordered[position]

    def summary(self) -> dict[str, float]:
        return {
            f"MRR@{self.cutoff}": self.mrr,
            f"HR@{self.cutoff}": self.hit_rate,
            f"Prec@{self.cutoff}": self.precision,
            f"R@{self.cutoff}": self.recall,
            f"MAP@{self.cutoff}": self.map,
        }


def evaluate_next_item(
    recommender: SessionRecommender,
    test_sequences: Mapping[SessionId, Sequence[ItemId]] | Sequence[Sequence[ItemId]],
    cutoff: int = 20,
    measure_latency: bool = False,
    max_predictions: int | None = None,
) -> EvaluationResult:
    """Replay test sessions incrementally and average the metrics.

    Args:
        recommender: anything satisfying :class:`SessionRecommender`.
        test_sequences: held-out sessions (mapping or plain list of
            sequences); each must have at least two items.
        cutoff: list length (the paper uses 20).
        measure_latency: record per-prediction wall-clock times.
        max_predictions: optional cap for quick runs.
    """
    result = EvaluationResult(cutoff=cutoff)
    totals = {"mrr": 0.0, "hr": 0.0, "prec": 0.0, "rec": 0.0, "map": 0.0}
    done = 0
    for prefix, next_item, remaining in _prediction_steps(
        test_sequences, max_predictions
    ):
        if measure_latency:
            started = time.perf_counter()
            recommended_scored = recommender.recommend(prefix, how_many=cutoff)
            result.latencies_seconds.append(time.perf_counter() - started)
        else:
            recommended_scored = recommender.recommend(prefix, how_many=cutoff)
        _score_step(totals, recommended_scored, next_item, remaining)
        done += 1

    result.predictions = done
    _finalise(result, totals, done)
    return result


def evaluate_next_item_batched(
    recommender: SessionRecommender,
    test_sequences: Mapping[SessionId, Sequence[ItemId]] | Sequence[Sequence[ItemId]],
    cutoff: int = 20,
    batch_size: int = 256,
    measure_latency: bool = False,
    max_predictions: int | None = None,
) -> EvaluationResult:
    """The §5.1 protocol through ``recommend_batch``, in ``batch_size`` chunks.

    Visits the exact prediction steps of :func:`evaluate_next_item` in the
    same order, so the averaged metrics are identical; only the execution
    strategy differs. With a :class:`~repro.core.batch.BatchPredictionEngine`
    the replay scores each distinct prefix of a chunk once and reuses
    cached hot prefixes.

    Recommenders lacking ``recommend_batch`` (pre-batch-API third-party
    models) fall back to a loop of ``recommend``.

    When ``measure_latency`` is set, each prediction is attributed the
    amortised wall-clock time of its batch — a throughput figure, not the
    paper's single-request latency distribution.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    predict_batch = getattr(recommender, "recommend_batch", None)

    result = EvaluationResult(cutoff=cutoff)
    totals = {"mrr": 0.0, "hr": 0.0, "prec": 0.0, "rec": 0.0, "map": 0.0}
    done = 0
    steps = _prediction_steps(test_sequences, max_predictions)
    while True:
        chunk = list(itertools.islice(steps, batch_size))
        if not chunk:
            break
        prefixes = [prefix for prefix, _, _ in chunk]
        started = time.perf_counter()
        if predict_batch is not None:
            recommended_lists = predict_batch(prefixes, how_many=cutoff)
        else:
            recommended_lists = batch_via_loop(
                recommender, prefixes, how_many=cutoff
            )
        elapsed = time.perf_counter() - started
        if measure_latency:
            result.latencies_seconds.extend([elapsed / len(chunk)] * len(chunk))
        for (_, next_item, remaining), recommended_scored in zip(
            chunk, recommended_lists
        ):
            _score_step(totals, recommended_scored, next_item, remaining)
            done += 1

    result.predictions = done
    _finalise(result, totals, done)
    return result


def _prediction_steps(
    test_sequences: Mapping[SessionId, Sequence[ItemId]] | Sequence[Sequence[ItemId]],
    max_predictions: int | None,
) -> Iterator[tuple[Sequence[ItemId], ItemId, Sequence[ItemId]]]:
    """Yield every (prefix, next item, remaining items) replay step."""
    if hasattr(test_sequences, "values"):
        sequences = list(test_sequences.values())
    else:
        sequences = list(test_sequences)
    done = 0
    for sequence in sequences:
        for step in range(1, len(sequence)):
            yield sequence[:step], sequence[step], sequence[step:]
            done += 1
            if max_predictions is not None and done >= max_predictions:
                return


def _score_step(
    totals: dict[str, float],
    recommended_scored: Sequence,
    next_item: ItemId,
    remaining: Sequence[ItemId],
) -> None:
    recommended = [scored.item_id for scored in recommended_scored]
    totals["mrr"] += reciprocal_rank(recommended, next_item)
    totals["hr"] += hit(recommended, next_item)
    totals["prec"] += precision(recommended, remaining)
    totals["rec"] += recall(recommended, remaining)
    totals["map"] += average_precision(recommended, remaining)


def _finalise(result: EvaluationResult, totals: dict[str, float], done: int) -> None:
    if done:
        result.mrr = totals["mrr"] / done
        result.hit_rate = totals["hr"] / done
        result.precision = totals["prec"] / done
        result.recall = totals["rec"] / done
        result.map = totals["map"] / done
