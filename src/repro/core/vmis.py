"""VMIS-kNN — Algorithm 2, the paper's core contribution.

Vector-Multiplication-Indexed-Session-kNN computes the same nearest
neighbours as VS-kNN but against a prebuilt index (M, t), executing the
join between the evolving session and the historical sessions *jointly*
with the two aggregations (m most recent matches, top-k similarities), so
intermediate state stays proportional to the output:

* the item intersection loop walks the evolving session newest-first and
  streams each item's posting list, accumulating similarity scores in a
  hashmap ``r`` bounded by ``m`` entries;
* a bounded min-heap ``b_t`` over timestamps decides which matching
  sessions are recent enough to keep, enabling **early stopping**: posting
  lists are sorted newest-first, so once a list entry is older than the
  heap root the rest of the list can be skipped;
* a bounded top-k heap selects the final neighbours, breaking score ties
  towards more recent sessions.

Both heaps break exact ties deterministically on the internal session id.
Internal ids are assigned in ascending ``(timestamp, external id)`` order
at index build time, so the id ordering *refines* the timestamp ordering —
which makes the retained sample and the selected top-k bit-identical to
VS-kNN's ``sorted(candidates, key=(timestamp, session_id))`` reference
semantics even when many sessions share a timestamp (the divergence the
differential oracle in :mod:`repro.testing.oracle` originally caught).

``heap_arity=8`` (octonary heaps) and ``early_stopping=True`` are the
micro-optimisations evaluated in Figure 3(a) bottom; disable both to get
the paper's "VMIS-kNN-no-opt" variant.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.heaps import BoundedTopK, MostRecentTracker
from repro.core.index import SessionIndex
from repro.core.predictor import BatchMixin
from repro.core.scoring import score_items, top_n
from repro.core.types import (
    Click,
    ItemId,
    ScoredItem,
    SessionId,
    unique_items_reversed,
)
from repro.core.weights import (
    DecayFn,
    MatchWeightFn,
    resolve_decay,
)


class VMISKNN(BatchMixin):
    """The indexed session-kNN recommender (Algorithm 2).

    Args:
        index: prebuilt :class:`SessionIndex`; its build-time ``m`` should
            be at least the query-time ``m`` or posting lists will bound the
            effective sample. May be ``None``, in which case ``fit(clicks)``
            must be called before predicting.
        m: sample size — how many recent matching sessions to consider.
        k: number of nearest neighbour sessions.
        decay: the ``pi`` decay function (name or callable).
        match_weight: the ``lambda`` match-weight function (name or callable).
        heap_arity: children per heap node; 8 = the paper's octonary heaps.
        early_stopping: skip posting-list tails older than every retained
            session (Line 32 of Algorithm 2).
        max_session_items: cap on evolving-session length — only the most
            recent items are used, bounding the prediction cost (the
            paper caps |s| "at a maximum value"; None = uncapped).
        scoring_style: ``"vmis"`` (default, the paper's simplified scoring)
            or ``"vsknn"`` for strict Algorithm 1 scoring.
        exclude_current_items: drop items of the evolving session from the
            recommendation list (the serving configuration).
    """

    def __init__(
        self,
        index: SessionIndex | None = None,
        m: int = 500,
        k: int = 100,
        decay: str | DecayFn = "linear",
        match_weight: str | MatchWeightFn = "paper",
        heap_arity: int = 8,
        early_stopping: bool = True,
        scoring_style: str = "vmis",
        exclude_current_items: bool = False,
        max_session_items: int | None = None,
    ) -> None:
        if m < 1 or k < 1:
            raise ValueError(f"m and k must be >= 1, got m={m}, k={k}")
        if max_session_items is not None and max_session_items < 1:
            raise ValueError("max_session_items must be >= 1 or None")
        self.index = index
        self.m = m
        self.k = k
        self.decay = decay
        self.match_weight = match_weight
        self.heap_arity = heap_arity
        self.early_stopping = early_stopping
        self.scoring_style = scoring_style
        self.exclude_current_items = exclude_current_items
        self.max_session_items = max_session_items

    def _capped(self, session_items: Sequence[ItemId]) -> Sequence[ItemId]:
        """Apply the paper's cap on evolving-session length: only the
        most recent items take part, bounding prediction cost."""
        if (
            self.max_session_items is not None
            and len(session_items) > self.max_session_items
        ):
            return session_items[-self.max_session_items :]
        return session_items

    def fit(self, clicks: Iterable[Click]) -> "VMISKNN":
        """Build the (M, t) index from raw clicks; returns self.

        Equivalent to ``VMISKNN.from_clicks(clicks, ...)`` — the index is
        built with ``max_sessions_per_item=self.m`` so posting lists hold
        exactly the sample the query needs.
        """
        self.index = SessionIndex.from_clicks(
            clicks, max_sessions_per_item=self.m
        )
        return self

    @classmethod
    def from_clicks(
        cls, clicks: Iterable[Click], m: int = 500, **kwargs: Any
    ) -> "VMISKNN":
        """Build the index from raw clicks and construct the recommender."""
        return cls(m=m, **kwargs).fit(clicks)

    @classmethod
    def no_opt(cls, index: SessionIndex, **kwargs: Any) -> "VMISKNN":
        """The paper's VMIS-kNN-no-opt: binary heaps, no early stopping."""
        kwargs.setdefault("heap_arity", 2)
        kwargs.setdefault("early_stopping", False)
        return cls(index, **kwargs)

    def find_neighbors(
        self, session_items: Sequence[ItemId]
    ) -> list[tuple[SessionId, float]]:
        """``neighbor_sessions_from_index`` (Lines 8-39 of Algorithm 2)."""
        similarities = self._matching_similarities(self._capped(session_items))
        return self._top_neighbors(similarities)

    def _matching_similarities(
        self, session_items: Sequence[ItemId]
    ) -> dict[SessionId, float]:
        """The bounded similarity hashmap ``r`` (Lines 8-32 of Algorithm 2).

        ``session_items`` must already be capped by the caller — this is
        the one place the session-length cap must NOT be reapplied, so that
        ``recommend`` caps exactly once. Kept apart from the top-k
        selection because the differential oracle reads the whole map to
        find where the k-th neighbour cut falls.

        The body binds index arrays, the similarity hashmap and the heap
        primitives to locals: this loop runs once per posting and is the
        latency-critical path of the whole system, so we spend the
        readability equivalent of the paper's Rust micro-optimisations on
        avoiding attribute lookups inside it.
        """
        if not session_items:
            return {}
        index = self.index
        if index is None:
            raise RuntimeError("fit() must be called before recommending")
        decay_fn = resolve_decay(self.decay)
        session_length = len(session_items)
        # Position of the most recent occurrence of each distinct item;
        # consumed newest-first by the intersection loop below.
        positions: dict[ItemId, int] = {}
        for position, item in enumerate(session_items, start=1):
            positions[item] = max(positions.get(item, 0), position)

        timestamps = index.session_timestamps
        sessions_for_item = index.sessions_for_item
        early_stopping = self.early_stopping
        m = self.m

        similarities: dict[SessionId, float] = {}  # the hashmap r
        recent = MostRecentTracker[SessionId](m, self.heap_arity)  # b_t
        recent_heap = recent._heap
        heap_push = recent_heap.push
        heap_replace = recent_heap.replace_root
        heap_entries = recent_heap._entries
        retained = 0  # |r|; cheaper than len() calls in the hot loop
        # (timestamp, session id) at the heap root while full; ties on the
        # timestamp are broken on the id so retention matches VS-kNN's
        # sorted-by-(timestamp, id) recency sample exactly.
        oldest_ts = 0.0
        oldest_sid = 0

        # Item intersection loop (Line 12): distinct items, newest first.
        for item in unique_items_reversed(session_items):
            postings = sessions_for_item(item)
            if not postings:
                continue
            decay_weight = decay_fn(positions[item], session_length)
            for session_id in postings:
                if session_id in similarities:
                    similarities[session_id] += decay_weight
                    continue
                timestamp = timestamps[session_id]
                if retained < m:
                    similarities[session_id] = decay_weight
                    heap_push(timestamp, session_id, session_id)
                    retained += 1
                    if retained == m:
                        root = heap_entries[0]
                        oldest_ts, oldest_sid = root[0], root[1]
                elif timestamp > oldest_ts or (
                    timestamp == oldest_ts and session_id > oldest_sid
                ):
                    _, _, evicted = heap_replace(
                        timestamp, session_id, session_id
                    )
                    del similarities[evicted]
                    similarities[session_id] = decay_weight
                    root = heap_entries[0]
                    oldest_ts, oldest_sid = root[0], root[1]
                elif early_stopping and timestamp < oldest_ts:
                    # Postings are sorted newest-first: every remaining
                    # session in this list is at least as old (Line 32).
                    # A tie with the root must keep scanning — a later
                    # entry may share the timestamp yet win on the id.
                    break
        return similarities

    def _top_neighbors(
        self, similarities: dict[SessionId, float]
    ) -> list[tuple[SessionId, float]]:
        """Top-k similarity loop (Lines 33-38), ties favour recency.

        The internal session id is the tiebreak: ids ascend with
        ``(timestamp, external id)`` at build time, so ordering by
        ``(similarity, id)`` equals ordering by
        ``(similarity, timestamp, id)`` — a total, deterministic order
        that matches VS-kNN's reference sort even on exact score ties.
        """
        if not similarities:
            return []
        top = BoundedTopK[SessionId](self.k, self.heap_arity)
        offer = top.offer
        for session_id, similarity in similarities.items():
            offer(similarity, session_id, session_id)
        return [(sid, sim) for sim, _, sid in top.descending()]

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        """Full VMIS-kNN prediction: neighbours, then item scoring.

        The evolving-session cap is applied exactly once, here; the
        internal neighbour computation never reapplies it.
        """
        session_items = self._capped(session_items)
        neighbors = self._top_neighbors(
            self._matching_similarities(session_items)
        )
        scores = score_items(
            self.index,
            session_items,
            neighbors,
            match_weight=self.match_weight,
            style=self.scoring_style,
            exclude_current_items=self.exclude_current_items,
        )
        return top_n(scores, how_many)
