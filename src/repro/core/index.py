"""The session-similarity index (M, t) of VMIS-kNN (Section 3).

``M`` is a hash index from an item to the (at most) ``m`` most recent
historical sessions containing that item, each posting list sorted by
descending session timestamp. ``t`` is a flat array mapping a session id to
its timestamp; sessions are remapped to consecutive integers at build time
so this lookup is O(1) array indexing, exactly as the paper describes.

The index additionally stores the item set of every historical session
(needed by the item-scoring step of both algorithms) and per-item session
frequencies ``h_i`` for the inverse-document-frequency weighting.

:func:`build_columns` is the one build. It works on whole click columns
(stable sorts and run boundaries, no loop over clicks) and produces the
index as flat arrays, :class:`IndexColumns`; ``SessionIndex`` unpacks them
into dicts and lists, ``ColumnarSessionIndex`` keeps them as they are.
``repro.index.builder.IndexBuilder`` is an independent loop implementation
with per-stage reports, and the reference the build is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.types import Click, ItemId, SessionId, Timestamp


class IndexColumns(NamedTuple):
    """The (M, t) index as flat arrays, one run per item and per session.

    This is what the build and the artifact decoder produce; the fields
    are the constructor arguments of
    :class:`~repro.core.colindex.ColumnarSessionIndex`, in its order, and
    :meth:`SessionIndex.from_columns` unpacks the same arrays into dicts
    and lists. Rows are items in ascending id order; a posting run holds
    strictly descending internal session ids.
    """

    item_ids: np.ndarray
    item_frequencies: np.ndarray
    posting_offsets: np.ndarray
    posting_sessions: np.ndarray
    session_timestamps: np.ndarray
    session_item_offsets: np.ndarray
    session_item_values: np.ndarray
    max_sessions_per_item: int


def run_offsets(lengths: np.ndarray) -> np.ndarray:
    """``[0, l0, l0 + l1, ...]``: where back-to-back runs of these lengths start."""
    offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def build_columns(
    sessions: np.ndarray,
    items: np.ndarray,
    order_keys: np.ndarray,
    session_timestamps: np.ndarray,
    max_sessions_per_item: int,
) -> IndexColumns:
    """The index build: sort the click columns, cut the posting runs.

    ``sessions[j]``, ``items[j]`` and ``order_keys[j]`` describe click
    ``j``; a session is named by its dense code, and codes ascend with
    the external session id. Inside a session clicks are ordered by
    ``(order key, item)``, which is what sorting ``(timestamp, item)``
    event tuples gives. ``session_timestamps[code]`` is the session's
    timestamp, and a code with no click is a session with no items.

    Internal ids are the rank of ``(timestamp, code)``, so a larger id is
    a session at least as recent. Every step is a stable sort or a run
    boundary over whole columns; none of them loops over clicks.
    """
    if max_sessions_per_item < 1:
        raise ValueError(
            f"max_sessions_per_item must be >= 1, got {max_sessions_per_item}"
        )
    num_sessions = session_timestamps.shape[0]
    # Codes ascend with the external id, so a stable sort on the
    # timestamp alone orders sessions by (timestamp, external id).
    by_recency = np.argsort(session_timestamps, kind="stable")
    internal_id = np.empty(num_sessions, dtype=np.int64)
    internal_id[by_recency] = np.arange(num_sessions)

    # Click order: session-major, then (order key, item) inside a session.
    session_of_click = internal_id[sessions]
    click_order = np.lexsort((items, order_keys, session_of_click))
    session_of_click = session_of_click[click_order]
    items = items[click_order]

    # Group equal (item, session) pairs, newest session first inside an
    # item. lexsort is stable, so the head of every group is the pair's
    # first click and the heads alone are the untruncated posting runs.
    by_pair = np.lexsort((-session_of_click, items))
    pair_items = items[by_pair]
    pair_sessions = session_of_click[by_pair]
    head = np.ones(by_pair.shape[0], dtype=bool)
    head[1:] = (pair_items[1:] != pair_items[:-1]) | (
        pair_sessions[1:] != pair_sessions[:-1]
    )
    first_click = np.zeros(by_pair.shape[0], dtype=bool)
    first_click[by_pair[head]] = True
    pair_items = pair_items[head]
    pair_sessions = pair_sessions[head]

    run_start = np.ones(pair_items.shape[0], dtype=bool)
    run_start[1:] = pair_items[1:] != pair_items[:-1]
    run_starts = np.flatnonzero(run_start)
    frequencies = np.diff(run_starts, append=pair_items.shape[0])
    rank_in_run = np.arange(pair_items.shape[0]) - np.repeat(run_starts, frequencies)

    return IndexColumns(
        item_ids=pair_items[run_starts],
        item_frequencies=frequencies,
        posting_offsets=run_offsets(
            np.minimum(frequencies, max_sessions_per_item)
        ),
        posting_sessions=pair_sessions[rank_in_run < max_sessions_per_item],
        session_timestamps=session_timestamps[by_recency],
        session_item_offsets=run_offsets(
            np.bincount(session_of_click[first_click], minlength=num_sessions)
        ),
        session_item_values=items[first_click],
        max_sessions_per_item=max_sessions_per_item,
    )


def columns_from_clicks(
    clicks: Iterable[Click], max_sessions_per_item: int
) -> IndexColumns:
    """Run :func:`build_columns` over raw click events.

    A session's timestamp is its most recent click. Session ids may be
    of any sortable, hashable type; timestamps keep the dtype numpy
    gives them (integers stay integers).
    """
    clicks = list(clicks)
    external = [click.session_id for click in clicks]
    code_of = {sid: code for code, sid in enumerate(sorted(set(external)))}
    sessions = np.fromiter(
        map(code_of.__getitem__, external), dtype=np.int64, count=len(clicks)
    )
    timestamps = np.asarray([click.timestamp for click in clicks])
    last_click = np.full(len(code_of), timestamps.min(initial=0), timestamps.dtype)
    np.maximum.at(last_click, sessions, timestamps)
    return build_columns(
        sessions,
        np.fromiter(
            (click.item_id for click in clicks), dtype=np.int64, count=len(clicks)
        ),
        timestamps,
        last_click,
        max_sessions_per_item,
    )


@dataclass
class SessionIndex:
    """Immutable query-time view of the prebuilt index.

    Attributes:
        item_to_sessions: posting lists, descending session-timestamp order.
        session_timestamps: ``t`` array; index = internal session id.
        session_items: distinct items per historical session.
        item_session_counts: ``h_i`` — number of historical sessions
            containing item ``i`` *before* posting-list truncation.
        max_sessions_per_item: the ``m`` used at build time.
    """

    item_to_sessions: dict[ItemId, list[SessionId]]
    session_timestamps: list[Timestamp]
    session_items: list[tuple[ItemId, ...]]
    item_session_counts: dict[ItemId, int]
    max_sessions_per_item: int

    _idf_cache: dict[ItemId, float] = field(default_factory=dict, repr=False)

    @classmethod
    def from_columns(cls, columns: IndexColumns) -> "SessionIndex":
        """Unpack the flat arrays into the dict/list index."""
        item_ids = columns.item_ids.tolist()
        offsets = columns.posting_offsets.tolist()
        postings = columns.posting_sessions.tolist()
        session_offsets = columns.session_item_offsets.tolist()
        values = columns.session_item_values.tolist()
        return cls(
            item_to_sessions={
                item: postings[start:end]
                for item, start, end in zip(item_ids, offsets, offsets[1:])
            },
            session_timestamps=columns.session_timestamps.tolist(),
            session_items=[
                tuple(values[start:end])
                for start, end in zip(session_offsets, session_offsets[1:])
            ],
            item_session_counts=dict(
                zip(item_ids, columns.item_frequencies.tolist())
            ),
            max_sessions_per_item=columns.max_sessions_per_item,
        )

    @classmethod
    def from_clicks(
        cls, clicks: Iterable[Click], max_sessions_per_item: int = 5000
    ) -> "SessionIndex":
        """Build the index from raw click events.

        This is the in-process equivalent of the offline Spark pipeline:
        group clicks by session, order sessions by their last-click
        timestamp, invert to per-item posting lists and truncate each list
        to the ``m`` most recent sessions (:func:`build_columns`).
        """
        return cls.from_columns(columns_from_clicks(clicks, max_sessions_per_item))

    @classmethod
    def from_sessions(
        cls,
        sessions: Mapping[SessionId, tuple[Timestamp, Sequence[ItemId]]],
        max_sessions_per_item: int = 5000,
    ) -> "SessionIndex":
        """Build the index from already-grouped sessions.

        ``sessions`` maps an external session id to ``(timestamp, items)``
        where ``timestamp`` is the session's most recent click. External ids
        are remapped to consecutive internal ids ordered by ascending
        timestamp, so larger internal id implies more (or equally) recent.
        """
        grouped = [sessions[sid] for sid in sorted(sessions)]
        lengths = [len(items) for _, items in grouped]
        total = sum(lengths)
        return cls.from_columns(
            build_columns(
                np.repeat(np.arange(len(grouped)), lengths),
                np.fromiter(
                    chain.from_iterable(items for _, items in grouped),
                    dtype=np.int64,
                    count=total,
                ),
                # The position in the mapping's own order is the order key:
                # a session's items stay in the order they were given.
                np.arange(total),
                np.asarray([timestamp for timestamp, _ in grouped]),
                max_sessions_per_item,
            )
        )

    @property
    def num_sessions(self) -> int:
        """Number of historical sessions |H| the index was built from."""
        return len(self.session_timestamps)

    @property
    def num_items(self) -> int:
        """Number of distinct items |I| with at least one posting."""
        return len(self.item_to_sessions)

    def sessions_for_item(self, item_id: ItemId) -> list[SessionId]:
        """Posting list ``m_i``: most recent sessions first; [] if unknown."""
        return self.item_to_sessions.get(item_id, [])

    def timestamp_of(self, session_id: SessionId) -> Timestamp:
        """Timestamp lookup in the ``t`` array."""
        return self.session_timestamps[session_id]

    def items_of(self, session_id: SessionId) -> tuple[ItemId, ...]:
        """Distinct items of a historical session, in click order."""
        return self.session_items[session_id]

    def idf(self, item_id: ItemId) -> float:
        """``log(|H| / h_i)`` with memoisation; 0.0 for unseen items."""
        cached = self._idf_cache.get(item_id)
        if cached is not None:
            return cached
        count = self.item_session_counts.get(item_id, 0)
        value = math.log(self.num_sessions / count) if count else 0.0
        self._idf_cache[item_id] = value
        return value

    def memory_profile(self) -> dict[str, int]:
        """Rough element counts, used by capacity-planning examples."""
        postings = sum(len(v) for v in self.item_to_sessions.values())
        stored_items = sum(len(v) for v in self.session_items)
        return {
            "num_items": self.num_items,
            "num_sessions": self.num_sessions,
            "posting_entries": postings,
            "stored_session_items": stored_items,
        }
