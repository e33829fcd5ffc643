"""The common recommender interface implemented by every algorithm.

Everything that can answer "given this session, what next?" — VMIS-kNN,
VS-kNN, the alternative engines, and all baselines — satisfies
``SessionRecommender``, so the evaluation harness, the serving layer and
the benchmarks are generic over the algorithm.

The surface has three methods:

* ``recommend(session_items, how_many)`` — one evolving session in, one
  ranked list out;
* ``recommend_batch(sessions, how_many)`` — many sessions in, one ranked
  list per session out, in input order. Every recommender supports it;
  :class:`BatchMixin` supplies the correct default (a loop over
  ``recommend``), and :class:`repro.core.batch.BatchPredictionEngine`
  wraps a recommender's own with a result cache and intra-batch
  deduplication.
* ``fit(clicks)`` (``TrainableRecommender`` only) — train on a historical
  click log and return self. Every trainable recommender also exposes the
  equivalent one-shot spelling ``from_clicks(clicks, **kwargs)``;
  :class:`TrainableMixin` derives it from ``fit``.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

from repro.core.types import Click, ItemId, ScoredItem


@runtime_checkable
class SessionRecommender(Protocol):
    """Anything that recommends next items for an evolving session."""

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        """Return up to ``how_many`` next-item recommendations, best first.

        ``session_items`` is the evolving session in click order (oldest
        first). The default of 21 items matches the number required by the
        bol.com frontend UI (Section 4.2).
        """
        ...

    def recommend_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        """Recommend for many sessions at once, preserving input order.

        Result ``i`` must equal ``recommend(sessions[i], how_many)``
        item-for-item — batching is an execution strategy, never a
        semantic change.
        """
        ...


@runtime_checkable
class TrainableRecommender(Protocol):
    """A recommender that learns from a historical click log first."""

    def fit(self, clicks: Sequence) -> "TrainableRecommender":
        """Train on historical clicks and return self."""
        ...

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        ...

    def recommend_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        ...


def batch_via_loop(
    recommender: SessionRecommender,
    sessions: Sequence[Sequence[ItemId]],
    how_many: int = 21,
) -> list[list[ScoredItem]]:
    """Module-level fallback: a batch is a loop of single predictions.

    Works for *any* object with a ``recommend`` method, including
    third-party recommenders registered at runtime that predate the
    batch API.
    """
    return [
        recommender.recommend(session, how_many=how_many)
        for session in sessions
    ]


class BatchMixin:
    """Default ``recommend_batch`` for recommenders with ``recommend``."""

    def recommend_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        return batch_via_loop(self, sessions, how_many=how_many)


class TrainableMixin(BatchMixin):
    """Derives ``from_clicks`` from ``fit`` so both spellings exist.

    ``SomeRecommender.from_clicks(clicks, **kwargs)`` is defined to be
    ``SomeRecommender(**kwargs).fit(clicks)`` — identical semantics, one
    implementation. Classes with a bespoke ``from_clicks`` (e.g. index
    builders that reuse ``m`` for the posting-list cap) override it and
    keep the same contract.
    """

    def fit(self, clicks: Sequence[Click]) -> "TrainableMixin":
        raise NotImplementedError

    @classmethod
    def from_clicks(cls, clicks: Iterable[Click], **kwargs: Any) -> "TrainableMixin":
        """One-shot construction: ``cls(**kwargs).fit(clicks)``."""
        return cls(**kwargs).fit(list(clicks))
