"""Columnar (struct-of-arrays) session index and the vectorized scorer.

The interpreted :class:`~repro.core.vmis.VMISKNN` walks posting lists one
entry at a time, maintaining the bounded similarity hashmap ``r`` and the
recency heap ``b_t`` per candidate. This module stores the same index as
contiguous numpy buffers — the shape the paper's Rust implementation (and
ann-benchmarks' bulk columnar loaders) uses — and replaces the
heap-per-candidate loop with bulk array operations:

* **layout** — per-item posting runs live back to back in one int64
  array addressed by a ``posting_offsets`` table (``run(i) =
  posting_sessions[offsets[i]:offsets[i+1]]``). The index holds that
  array back to front, ``posting_sessions_asc``, so that every run
  ascends; ``posting_sessions`` is a reversed view of it. Session
  metadata (timestamps, per-session item rows) uses the same
  offset-table shape. A pod holds eight buffers and no second copy of
  any: the six the scorer reads, and ``item_frequencies`` and
  ``session_timestamps``, without which the index could not be written
  back. Item ids per session item or a timestamp per posting would only
  cost memory.
* **neighbour search** — the query gathers the posting runs of its
  distinct items (newest first), prunes each run by binary search
  against the best run's m-th largest id (the vectorized analogue of
  early stopping), selects the retained sample with one sort + dedup
  over the pruned candidate window, accumulates similarities with one
  ``np.bincount``, and takes the top-k via ``np.partition`` + lexsort.
* **item scoring** — one offset-table gather pulls the item rows of all
  k neighbours, in neighbour order, into a single array; ``np.unique``
  maps them onto a local row window; the query's insertion orders are
  scattered onto that window and a segmented max yields each
  neighbour's most recent shared position; the match weight is read
  from a table filled once per distinct position; and one ordered
  ``np.bincount`` accumulates ``(λ · sim) · idf`` per item. No Python
  loop runs over neighbours.
* **batch scoring** — ``recommend_batch`` runs both steps above once for
  many sessions. Search: one Python pass collects every session's runs,
  one bisection of all runs at once prunes them to each session's floor,
  and per piece of sessions one packed sort over ``segment *
  num_sessions + id`` keys, one ordered ``np.bincount`` over its inverse
  and a slice of each session's last ``m`` keys give every retained
  sample; only the top-k is per session. Scoring: the neighbours are
  concatenated session-major, the local window is keyed by ``segment *
  num_items + row`` so no two sessions share a slot, and the same
  gather, segmented max, weight table and ordered ``np.bincount`` serve
  the whole piece. Only the final ranking is per session, on slices.

**Equality contract.** The scorer is *bit-identical* to the heap path —
same floats, same order, not merely the same ranking. Two build-time
invariants make that possible:

1. Internal session ids are assigned in ascending ``(timestamp, external
   id)`` order, so the id ordering *refines* the timestamp ordering:
   ``id_a < id_b`` whenever ``ts_a < ts_b``. The heap path's retained
   sample — driven by ``(timestamp, id)`` comparisons against the heap
   root, including lossless early stopping on newest-first runs — is
   therefore exactly the ``m`` largest distinct internal ids over the
   union of the query's posting runs, a pure integer selection.
2. A finally-retained session is inserted at its first encounter and
   never evicted (eviction only removes the current ``m``-th largest id,
   which a finally-retained id can never be), so its similarity is the
   sum of the decay weights of *all* distinct query items containing it,
   accumulated in distinct-item newest-first order. ``np.bincount``
   applies its per-element additions sequentially in input order, so
   feeding it the concatenated runs newest-item-first reproduces the
   heap path's float additions operation for operation.

Only the first ``m`` entries of each run can matter: runs hold strictly
descending distinct ids, so any entry past position ``m`` is dominated by
``m`` larger ids in its own run. That bounds the candidate window to
``|distinct query items| * m`` regardless of posting-list length.

Item scoring keeps the same discipline. ``score_items`` walks the
neighbours in ranked order and adds ``base * idf`` to each of their
items, where ``base = match * similarity * length_factor`` evaluated
left to right. Here every per-neighbour quantity is an elementwise array
expression of the same IEEE operations in the same association —
``(match * sims) * length_factor``, then ``base * idf`` — and the
gathered rows keep neighbour order, so the one ``np.bincount`` applies
each item's additions in exactly the order the dict accumulator sees
them. Integer steps (gather, window mapping, segmented max, table
lookup) carry no rounding at all. The batch form changes none of this:
a window slot belongs to exactly one session, the gather keeps
session-major neighbour-rank order, so every accumulator receives the
additions of its own session only, in the order ``recommend`` makes them.
The same holds for the batch search: a similarity slot is one session's
id, and its additions arrive in that session's distinct-item
newest-first order.

**Where the buffers come from.** Three doors, no second build:
:meth:`ColumnarSessionIndex.from_clicks` wraps the arrays of
:func:`repro.core.index.build_columns` (the one build, which
``SessionIndex.from_clicks`` unpacks into dicts and lists);
``repro.index.serialization.load_columnar`` wraps the arrays of the one
artifact decoder; :meth:`ColumnarSessionIndex.from_session_index` packs an
existing row-oriented index. A serving process uses the second and never
holds the row-oriented index. The decoder hands its buffers over
read-only and the constructor keeps a read-only buffer as it is, so no
buffer is copied twice on the way from the file.

The d-ary heap path stays as the differential oracle; see
``tests/testing/test_columnar_properties.py`` and the corpus sweep in
:mod:`repro.testing.oracle`, which hold the two paths bit-equal.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.contracts import frozen_buffers
from repro.core.floatcmp import is_zero_score
from repro.core.index import IndexColumns, SessionIndex, columns_from_clicks
from repro.core.predictor import BatchMixin
from repro.core.types import (
    Click,
    ItemId,
    ScoredItem,
    SessionId,
    insertion_orders,
    unique_items_reversed,
)
from repro.core.weights import (
    DecayFn,
    MatchWeightFn,
    resolve_decay,
    resolve_match_weight,
)

__all__ = ["ColumnarSessionIndex", "VMISKNNColumnar"]

_INT = np.int64
_FLOAT = np.float64


def _read_only(values: np.ndarray) -> bool:
    """True when neither ``values`` nor the array owning its memory can be
    written.

    Memory an ndarray does not own (the bytes of a file, say) does not
    count as frozen, so a buffer over it is copied rather than keeping
    the whole file alive.
    """
    owner: object = values
    while isinstance(owner, np.ndarray):
        if owner.flags.writeable:
            return False
        if owner.base is None:
            return True
        owner = owner.base
    return False


def _as_array(values: Any, dtype: type) -> np.ndarray:
    """``values`` as a contiguous ``dtype`` array no caller can write to.

    A list, or an array of another dtype or layout, is converted once. A
    conforming array comes back uncopied from the conversion; the caller
    would keep write access to a buffer we are about to freeze and share,
    so it is copied, unless it is read-only down to the array that owns
    its memory. The artifact decoder hands its buffers over that way,
    so none of them is copied a second time.
    """
    arr = np.ascontiguousarray(values, dtype=dtype)
    if (
        isinstance(values, np.ndarray)
        and np.may_share_memory(arr, values)
        and not _read_only(values)
    ):
        arr = arr.copy()
    return arr


def _as_int_array(values: Any) -> np.ndarray:
    return _as_array(values, _INT)


def _as_float_array(values: Any) -> np.ndarray:
    return _as_array(values, _FLOAT)


# ``recommend_batch`` works through a call in pieces, closed at session
# boundaries: a search piece once its sessions' pruned candidates reach
# this many ids, a scoring piece once the neighbours collected for it own
# this many item rows. That length sizes every temporary of both steps
# (about ten int64/float64 arrays of it are live at once). Scoring,
# measured on the serve ledger's ``deep_batch`` (64 sessions, about
# 31 000 rows per call): at 8 192 rows, about 17 sessions, ``server_rss_mb``
# reads +0.4 % of the per-session path's at 1.30x its throughput; 16 384
# rows and the whole call in one piece read +1.7 % and +2.8 % (+5.6 %
# when the change was sized, past that metric's 5 % bound) at a
# throughput the ledger cannot tell apart (EXPERIMENTS.md F3b⁗′).
# Search, on the same calls (about 58 000 pruned candidates per call, so
# about 9 sessions a piece): the whole scorer's time as a share of the
# per-session search's read 0.74-0.77 at 8 192 candidates, 0.74-0.83 at
# 16 384 and 0.83-0.84 in one piece, at a tracemalloc peak of 0.76, 0.95
# and 3.04 MB against 0.68 MB (EXPERIMENTS.md F3b⁗⁗‴).
_PIECE_ROWS = 8192


class _Segment(NamedTuple):
    """One session of a piece, after its neighbour search."""

    position: int  # result slot in the call
    items: Sequence[ItemId]  # the capped evolving session
    sims: np.ndarray  # neighbour similarities, rank order
    src_starts: np.ndarray  # each neighbour's offset in the item payload
    lengths: np.ndarray  # each neighbour's item count


def _window_and_inverse(
    keys: np.ndarray, key_bound: int
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for keys in ``[0, key_bound)``.

    ``np.unique`` pays for a stable argsort. Packing each key above its
    own position and running a plain value sort gives the same order (the
    position breaks ties, so the sort is stable by construction) at
    about 0.6 of the time; the distinct keys fall out of an adjacent
    compare and the inverse out of one cumsum and one scatter. Keys too
    wide to pack next to a position take ``np.unique`` itself.
    """
    total = keys.shape[0]
    bits = total.bit_length()
    if key_bound.bit_length() + bits > 62:
        return np.unique(keys, return_inverse=True)
    # In place where it can be: these temporaries are what a batch piece
    # is sized by.
    packed = keys << bits
    packed |= np.arange(total)
    packed.sort()
    ordered = packed >> bits
    packed &= (1 << bits) - 1
    first = np.empty(total, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    ranks = first.cumsum()
    ranks -= 1
    inverse = np.empty(total, dtype=_INT)
    inverse[packed] = ranks
    return ordered[first], inverse


def _top_k(
    ids: np.ndarray, scores: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best neighbours by (similarity, id), both descending.

    That is the BoundedTopK tie-break. ``np.partition`` bounds the sort
    to the candidates at or above the k-th score; exact ties at the cut
    are resolved by the id leg of the lexsort, matching the heap's
    displacement rule. ``ids`` must be distinct.
    """
    if ids.shape[0] > k:
        cutoff = np.partition(scores, ids.shape[0] - k)[ids.shape[0] - k]
        at_or_above = scores >= cutoff
        ids = ids[at_or_above]
        scores = scores[at_or_above]
    order = np.lexsort((-ids, -scores))[:k]
    return ids[order], scores[order]


@frozen_buffers(
    "item_ids",
    "item_frequencies",
    "posting_offsets",
    "posting_sessions_asc",
    "session_timestamps",
    "session_item_offsets",
    "session_item_rows",
    "idf_values",
)
class ColumnarSessionIndex:
    """Struct-of-arrays view of the (M, t) index.

    It holds eight buffers, each a contiguous ``int64``/``float64`` numpy
    array: six the scorer reads, and ``item_frequencies`` and
    ``session_timestamps``, which writing the index back as a ``VMIS``
    artifact (through :meth:`to_session_index`) needs.

    Attributes:
        item_ids: distinct item ids with a posting run, ascending — row
            ``r`` of every per-item array describes ``item_ids[r]``.
        item_frequencies: untruncated per-item session counts ``h_i``.
        posting_offsets: ``[num_rows + 1]`` offsets into the posting
            runs; row ``r``'s run is ``[offsets[r], offsets[r+1])`` of
            :attr:`posting_sessions`.
        posting_sessions_asc: the posting runs back to front, so that
            every run ascends: run ``r`` is
            ``asc[P - offsets[r+1] : P - offsets[r]]`` for ``P`` entries.
            The scorer prunes runs by binary search against the retention
            threshold (the vectorized analogue of early stopping), which
            wants ascending contiguous slices.
        session_timestamps: the ``t`` array, indexed by internal id.
        session_item_offsets: ``[num_sessions + 1]`` offsets into
            ``session_item_rows``.
        session_item_rows: every session's distinct items in click order,
            as their posting rows (the item is ``item_ids[row]``).
        idf_values: ``log(|H| / h_i)`` per row, computed with
            ``math.log`` so values are bit-identical to
            :meth:`SessionIndex.idf`.
        max_sessions_per_item: the build-time posting cap ``m``.

    The constructor takes the index as it is stored (descending runs in
    ``posting_sessions``, item ids in ``session_item_values``) and keeps
    neither array: :attr:`posting_sessions` is a reversed view of the
    mirror, and the item ids of a session are gathered from
    ``item_ids`` by the cold readers that want them (:meth:`items_of`,
    :meth:`to_session_index`). ``_item_row`` is the item → row hash of
    the request path.
    """

    def __init__(
        self,
        item_ids: Any,
        item_frequencies: Any,
        posting_offsets: Any,
        posting_sessions: Any,
        session_timestamps: Any,
        session_item_offsets: Any,
        session_item_values: Any,
        max_sessions_per_item: int,
    ) -> None:
        self.item_ids = _as_int_array(item_ids)
        self.item_frequencies = _as_int_array(item_frequencies)
        self.posting_offsets = _as_int_array(posting_offsets)
        self.posting_sessions_asc = _as_int_array(
            np.asarray(posting_sessions, dtype=_INT)[::-1]
        )
        self.session_timestamps = _as_float_array(session_timestamps)
        self.session_item_offsets = _as_int_array(session_item_offsets)
        self.max_sessions_per_item = max_sessions_per_item
        # Read to find every item's posting row, and not kept.
        values = np.asarray(session_item_values, dtype=_INT)
        self._validate_layout(values.shape[0])
        self._validate_postings()
        self.session_item_rows = self._resolve_session_item_rows(values)
        self.idf_values = self._compute_idf()
        self._item_row: dict[ItemId, int] = {
            int(item): row for row, item in enumerate(self.item_ids.tolist())
        }
        # Enforce the @frozen_buffers contract at runtime too: any stray
        # write after construction raises instead of corrupting shared
        # serving state.
        for name in type(self).__frozen_buffers__:
            getattr(self, name).setflags(write=False)

    # -- construction-time validation ----------------------------------------

    def _validate_layout(self, session_items: int) -> None:
        rows = self.item_ids.shape[0]
        if self.item_frequencies.shape[0] != rows:
            raise ValueError("item_frequencies length must match item_ids")
        if self.posting_offsets.shape[0] != rows + 1:
            raise ValueError("posting_offsets must have num_rows + 1 entries")
        if rows and not np.all(self.item_ids[1:] > self.item_ids[:-1]):
            raise ValueError("item_ids must be strictly ascending")
        for name, offsets, payload in (
            ("posting", self.posting_offsets, self.posting_sessions_asc.shape[0]),
            ("session_item", self.session_item_offsets, session_items),
        ):
            if offsets.shape[0] == 0 or offsets[0] != 0:
                raise ValueError(f"{name}_offsets must start at 0")
            if np.any(offsets[1:] < offsets[:-1]):
                raise ValueError(f"{name}_offsets must be non-decreasing")
            if offsets[-1] != payload:
                raise ValueError(
                    f"{name}_offsets must end at the payload length "
                    f"({int(offsets[-1])} != {payload})"
                )
        if self.session_timestamps.shape[0] != self.num_sessions:
            raise ValueError(
                "session_timestamps must have one entry per session "
                f"({self.session_timestamps.shape[0]} != {self.num_sessions})"
            )

    def _validate_postings(self) -> None:
        asc = self.posting_sessions_asc
        total = asc.shape[0]
        if total == 0:
            return
        if asc.min() < 0 or asc.max() >= self.num_sessions:
            raise ValueError("posting session id out of range")
        # Strictly descending ids inside every run is strictly ascending
        # ones inside every run of the mirror: check all adjacent pairs at
        # once, exempting the pairs that straddle two runs (a run starting
        # at ``offsets[r]`` begins its pair at ``total - offsets[r] - 1``).
        rising = asc[1:] > asc[:-1]
        straddles = total - 1 - self.posting_offsets[1:-1]
        rising[straddles[(straddles >= 0) & (straddles < total - 1)]] = True
        if not rising.all():
            raise ValueError(
                "posting runs must be strictly descending session ids "
                "(newest first)"
            )

    def _resolve_session_item_rows(self, values: np.ndarray) -> np.ndarray:
        if values.size == 0:
            return np.zeros(0, dtype=_INT)
        rows = np.searchsorted(self.item_ids, values).astype(_INT, copy=False)
        # An id past the last item lands on row ``num_items``; clamped, it
        # gathers an item that differs from it and is refused below.
        np.minimum(rows, max(self.item_ids.shape[0] - 1, 0), out=rows)
        hit = (
            self.item_ids[rows] == values
            if self.item_ids.shape[0]
            else np.zeros(values.shape[0], dtype=bool)
        )
        if not bool(hit.all()):
            missing = int(values[~hit][0])
            raise ValueError(
                f"session item {missing} has no posting row: the columnar "
                "index requires a consistent SessionIndex (every stored "
                "session item must carry a posting list)"
            )
        return rows

    def _compute_idf(self) -> np.ndarray:
        # math.log elementwise, not np.log: SessionIndex.idf memoises
        # math.log(|H| / h_i) and the equality contract is bit-level.
        num_sessions = self.num_sessions
        return _as_float_array(
            [
                math.log(num_sessions / count) if count else 0.0
                for count in self.item_frequencies.tolist()
            ]
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_session_index(cls, index: SessionIndex) -> "ColumnarSessionIndex":
        """Pack a :class:`SessionIndex` into contiguous columnar buffers."""
        items = sorted(index.item_to_sessions)
        posting_offsets = np.zeros(len(items) + 1, dtype=_INT)
        runs: list[list[SessionId]] = []
        for row, item in enumerate(items):
            run = index.item_to_sessions[item]
            posting_offsets[row + 1] = posting_offsets[row] + len(run)
            runs.append(run)
        posting_sessions = (
            np.concatenate([_as_int_array(run) for run in runs])
            if runs
            else np.zeros(0, dtype=_INT)
        )
        session_item_offsets = np.zeros(index.num_sessions + 1, dtype=_INT)
        flat_items: list[ItemId] = []
        for sid, session in enumerate(index.session_items):
            session_item_offsets[sid + 1] = session_item_offsets[sid] + len(
                session
            )
            flat_items.extend(session)
        return cls(
            item_ids=items,
            item_frequencies=[index.item_session_counts[i] for i in items],
            posting_offsets=posting_offsets,
            posting_sessions=posting_sessions,
            session_timestamps=index.session_timestamps,
            session_item_offsets=session_item_offsets,
            session_item_values=flat_items,
            max_sessions_per_item=index.max_sessions_per_item,
        )

    @classmethod
    def from_clicks(
        cls, clicks: Iterable[Click], max_sessions_per_item: int = 5000
    ) -> "ColumnarSessionIndex":
        """Build the columnar index straight from raw click events."""
        return cls(**columns_from_clicks(clicks, max_sessions_per_item)._asdict())

    def to_session_index(self) -> SessionIndex:
        """Unpack back into the dict/list index.

        Timestamps are stored as float64. They come back as integers
        whenever every stored value is integral, which is always the case
        for an index built from integer click timestamps, so the result
        can be written with ``save_index``; otherwise they stay floats.
        float64 holds integers exactly up to ``2**53``: a larger timestamp
        was rounded to its nearest representable neighbour on the way in
        (``2**53 + 1`` is stored, and comes back, as ``2**53``). Internal
        ids, not timestamps, carry the recency order, so rounding can tie
        two timestamps but never reorder sessions.
        """
        timestamps = self.session_timestamps
        with np.errstate(invalid="ignore"):  # nan/inf: not integral, stay floats
            integral = timestamps.astype(_INT)
        if np.array_equal(integral, timestamps):
            timestamps = integral
        return SessionIndex.from_columns(
            IndexColumns(
                self.item_ids,
                self.item_frequencies,
                self.posting_offsets,
                self.posting_sessions,
                timestamps,
                self.session_item_offsets,
                self.item_ids[self.session_item_rows],
                self.max_sessions_per_item,
            )
        )

    # -- SessionIndex-compatible query surface -------------------------------

    @property
    def num_sessions(self) -> int:
        """Number of historical sessions |H|."""
        return self.session_item_offsets.shape[0] - 1

    @property
    def num_items(self) -> int:
        """Number of distinct items |I| with at least one posting."""
        return self.item_ids.shape[0]

    @property
    def posting_sessions(self) -> np.ndarray:
        """The posting runs as stored, run after run, each strictly
        descending (newest first): a reversed view of the mirror, which
        costs no memory of its own."""
        return self.posting_sessions_asc[::-1]

    def sessions_for_item(self, item_id: ItemId) -> list[SessionId]:
        """Posting run ``m_i``, most recent sessions first; [] if unknown."""
        row = self._item_row.get(item_id)
        if row is None:
            return []
        start, end = self.posting_offsets[row], self.posting_offsets[row + 1]
        return self.posting_sessions[start:end].tolist()

    def timestamp_of(self, session_id: SessionId) -> float:
        """Timestamp lookup in the ``t`` array (stored as float64)."""
        return float(self.session_timestamps[session_id])

    def items_of(self, session_id: SessionId) -> tuple[ItemId, ...]:
        """Distinct items of a historical session, in click order."""
        start = self.session_item_offsets[session_id]
        end = self.session_item_offsets[session_id + 1]
        return tuple(self.item_ids[self.session_item_rows[start:end]].tolist())

    def idf(self, item_id: ItemId) -> float:
        """``log(|H| / h_i)``; 0.0 for unseen items."""
        row = self._item_row.get(item_id)
        if row is None:
            return 0.0
        return float(self.idf_values[row])

    def memory_profile(self) -> dict[str, int]:
        """Element counts, matching :meth:`SessionIndex.memory_profile`."""
        return {
            "num_items": self.num_items,
            "num_sessions": self.num_sessions,
            "posting_entries": int(self.posting_sessions_asc.shape[0]),
            "stored_session_items": int(self.session_item_rows.shape[0]),
        }


class VMISKNNColumnar(BatchMixin):
    """VMIS-kNN over the columnar index, bit-identical to the heap path.

    Constructor surface mirrors :class:`~repro.core.vmis.VMISKNN` (minus
    the heap knobs, which have no columnar counterpart): the heap path
    remains the differential oracle and this scorer must reproduce its
    outputs float for float under every configuration.
    """

    def __init__(
        self,
        index: ColumnarSessionIndex | None = None,
        m: int = 500,
        k: int = 100,
        decay: str | DecayFn = "linear",
        match_weight: str | MatchWeightFn = "paper",
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
        self.scoring_style = scoring_style
        self.exclude_current_items = exclude_current_items
        self.max_session_items = max_session_items

    def _capped(self, session_items: Sequence[ItemId]) -> Sequence[ItemId]:
        """The evolving-session length cap; applied exactly once."""
        if (
            self.max_session_items is not None
            and len(session_items) > self.max_session_items
        ):
            return session_items[-self.max_session_items :]
        return session_items

    def fit(self, clicks: Iterable[Click]) -> "VMISKNNColumnar":
        """Build the columnar (M, t) index from raw clicks; returns self."""
        self.index = ColumnarSessionIndex.from_clicks(
            clicks, max_sessions_per_item=self.m
        )
        return self

    @classmethod
    def from_clicks(
        cls, clicks: Iterable[Click], m: int = 500, **kwargs: Any
    ) -> "VMISKNNColumnar":
        """Build the index from raw clicks and construct the recommender."""
        return cls(m=m, **kwargs).fit(clicks)

    # -- neighbour search (Lines 8-39 of Algorithm 2, vectorized) -----------

    def find_neighbors(
        self, session_items: Sequence[ItemId]
    ) -> list[tuple[SessionId, float]]:
        """Top-k neighbours, identical to ``VMISKNN.find_neighbors``."""
        ids, scores = self._neighbor_arrays(self._capped(session_items))
        # tolist() converts to python int/float in one C pass; zipping
        # the scalars builds the exact tuples the heap path returns.
        return list(zip(ids.tolist(), scores.tolist()))

    def _neighbor_arrays(
        self, session_items: Sequence[ItemId]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour ids + similarities, descending ``(score, id)`` order.

        ``session_items`` must already be capped by the caller, exactly
        like ``VMISKNN._matching_similarities``.
        """
        empty = (np.zeros(0, dtype=_INT), np.zeros(0, dtype=_FLOAT))
        if not session_items:
            return empty
        index = self.index
        if index is None:
            raise RuntimeError("fit() must be called before recommending")
        decay_fn = resolve_decay(self.decay)
        session_length = len(session_items)
        positions: dict[ItemId, int] = {}
        for position, item in enumerate(session_items, start=1):
            positions[item] = position

        offsets = index.posting_offsets
        asc = index.posting_sessions_asc
        total = asc.shape[0]
        item_row = index._item_row
        m = self.m

        # Gather the posting runs of the distinct items, newest first, as
        # slices of the ascending mirror (run ``r`` ascending occupies
        # ``asc[total - offsets[r+1] : total - offsets[r]]``). Only the
        # head of each run — its min(m, len) largest ids — can reach the
        # retained sample: runs are strictly descending distinct ids, so
        # entry m and beyond is dominated by m larger ids in its own run.
        # While gathering, track the largest m-th id of runs of m ids or
        # more: the union's m-th largest *distinct* id is at least that, so
        # everything below it prunes by binary search before the sort —
        # the vectorized analogue of the heap path's early stopping.
        lows: list[int] = []
        highs: list[int] = []
        run_weights: list[float] = []
        prune_floor = -1  # ids are >= 0; -1 disables pruning
        for item in unique_items_reversed(session_items):
            row = item_row.get(item)
            if row is None:
                continue
            start, end = offsets[row], offsets[row + 1]
            if end == start:
                continue
            high = total - start
            low = total - end
            if high - low >= m:
                low = high - m
                mth = asc[low]
                if mth > prune_floor:
                    prune_floor = mth
            lows.append(low)
            highs.append(high)
            run_weights.append(decay_fn(positions[item], session_length))
        if not run_weights:
            return empty

        # The heap path's recency sample b_t keeps the m most recent
        # matching sessions, ties on the timestamp broken towards the
        # larger id. Ids refine (timestamp, external id), so that sample
        # is exactly the m largest distinct internal ids over the union.
        if len(run_weights) == 1:
            # A lone run is already the distinct ascending candidate set:
            # its head is the retained sample and every retained session
            # receives exactly one weight contribution (0.0 + w, the
            # same addition the hashmap r performs on first encounter).
            retained = asc[lows[0] : highs[0]]
            scores = np.zeros(retained.shape[0], dtype=_FLOAT)
            scores += run_weights[0]
        else:
            segments: list[np.ndarray] = []
            for low, high in zip(lows, highs):
                segment = asc[low:high]
                if prune_floor >= 0 and segment[0] < prune_floor:
                    segment = segment[segment.searchsorted(prune_floor) :]
                segments.append(segment)
            lengths = _as_int_array(
                [segment.shape[0] for segment in segments]
            )
            candidates = np.concatenate(segments)
            weights = _as_float_array(run_weights).repeat(lengths)

            ordered = np.sort(candidates)
            first = np.empty(ordered.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            distinct = ordered[first]
            if distinct.shape[0] > m:
                retained = distinct[-m:]
                keep = candidates >= retained[0]
                candidates = candidates[keep]
                weights = weights[keep]
            else:
                retained = distinct

            # Accumulate similarities for the retained sample with one
            # ordered pass: bincount adds its weights sequentially in
            # input order — segments are concatenated distinct-query-item
            # newest-first, and within a run a session appears at most
            # once, so the additions land per session in the same order
            # as the hashmap r in the heap path.
            slots = retained.searchsorted(candidates)
            scores = np.bincount(
                slots, weights=weights, minlength=retained.shape[0]
            )
        return _top_k(retained, scores, self.k)

    # -- item scoring (Lines 6-7 of Algorithm 2, vectorized) ----------------

    def recommend(
        self, session_items: Sequence[ItemId], how_many: int = 21
    ) -> list[ScoredItem]:
        """Full prediction; bit-identical to ``VMISKNN.recommend``."""
        if self.scoring_style not in ("vmis", "vsknn"):
            raise ValueError(f"unknown scoring style {self.scoring_style!r}")
        session_items = self._capped(session_items)
        neighbor_ids, neighbor_sims = self._neighbor_arrays(session_items)
        if not session_items or neighbor_ids.shape[0] == 0:
            return []
        index = self.index
        assert index is not None  # _neighbor_arrays raised otherwise
        weight_fn = resolve_match_weight(self.match_weight)
        orders = insertion_orders(session_items)
        length_factor = (
            1.0 / len(session_items) if self.scoring_style == "vsknn" else 1.0
        )

        # Gather the neighbours' item rows in neighbour order with one
        # offset-table gather; every per-element operation below inherits
        # that order, which is what keeps the float accumulation
        # identical to score_items.
        offsets = index.session_item_offsets
        src_starts = offsets[neighbor_ids]
        lengths = offsets[neighbor_ids + 1] - src_starts
        dst_ends = lengths.cumsum()
        total = int(dst_ends[-1])
        if total == 0:
            return []
        dst_starts = dst_ends - lengths
        concat = index.session_item_rows[
            np.arange(total) + np.repeat(src_starts - dst_starts, lengths)
        ]
        local_rows, local = np.unique(concat, return_inverse=True)
        window = local_rows.shape[0]

        # The query's distinct items as slots of the local row window
        # (items without a posting row, or outside the window, drop out).
        query_rows: list[int] = []
        query_positions: list[int] = []
        item_row = index._item_row
        for item, position in orders.items():
            row = item_row.get(item)
            if row is not None:
                query_rows.append(row)
                query_positions.append(position)
        rows = _as_int_array(query_rows)
        slots = np.minimum(local_rows.searchsorted(rows), window - 1)
        present = local_rows[slots] == rows
        query_slots = slots[present]

        # Most recent shared item per neighbour: scatter the query's
        # insertion orders onto the window, then segmented max.
        query_order = np.zeros(window, dtype=_INT)
        query_order[query_slots] = _as_int_array(query_positions)[present]
        last_shared = np.where(
            lengths > 0,
            np.maximum.reduceat(
                query_order[local], np.minimum(dst_starts, total - 1)
            ),
            0,
        )

        # Match weights by table: weight_fn runs once per distinct
        # last_shared value that occurs, with the python int the heap
        # path passes it. Neighbours with no shared item or a
        # structurally zero match weight contribute nothing (base 0.0
        # additions leave every accumulator bit-untouched) and must not
        # mark their items as scored.
        match_table = np.zeros(len(session_items) + 1, dtype=_FLOAT)
        contributes_table = np.zeros(len(session_items) + 1, dtype=bool)
        for shared in sorted(set(last_shared.tolist())):
            if shared == 0:
                continue
            match = weight_fn(shared)
            match_table[shared] = match
            contributes_table[shared] = not is_zero_score(match)
        contributes = contributes_table[last_shared]
        bases = np.where(
            contributes,
            (match_table[last_shared] * neighbor_sims) * length_factor,
            0.0,
        )

        idf = index.idf_values[local_rows]
        if self.scoring_style == "vsknn":
            idf = idf + 1.0
        values = np.repeat(bases, lengths) * idf[local]
        accumulated = np.bincount(local, weights=values, minlength=window)
        scored = np.zeros(window, dtype=bool)
        scored[local[np.repeat(contributes, lengths)]] = True
        if self.exclude_current_items:
            scored[query_slots] = False

        out_items = index.item_ids[local_rows[scored]]
        out_scores = accumulated[scored]
        ranked = np.lexsort((out_items, -out_scores))[:how_many]
        return [
            ScoredItem(item, score)
            for item, score in zip(
                out_items[ranked].tolist(), out_scores[ranked].tolist()
            )
        ]

    # -- batch scoring: the same item-scoring step, once for many sessions ---

    def recommend_batch(
        self, sessions: Sequence[Sequence[ItemId]], how_many: int = 21
    ) -> list[list[ScoredItem]]:
        """``[recommend(s, how_many) for s in sessions]``, bit for bit.

        Neighbour search (``_batch_neighbors``) and item scoring
        (``_score_piece``) each run once per piece of the call, not once
        per session (see :data:`_PIECE_ROWS`). Both fused steps have a
        fixed cost a lone session does not repay (scoring 1.15-1.18x of
        ``recommend`` at one session, 0.96-0.98x at two, 0.73-0.75x at
        sixteen; search about 3x ``_neighbor_arrays`` at one session), so
        fewer than two sessions are answered by ``recommend`` itself.
        """
        if len(sessions) < 2:
            return [self.recommend(items, how_many=how_many) for items in sessions]
        if self.scoring_style not in ("vmis", "vsknn"):
            raise ValueError(f"unknown scoring style {self.scoring_style!r}")
        results: list[list[ScoredItem]] = [[] for _ in sessions]
        piece: list[_Segment] = []
        rows = 0
        for entry in self._batch_neighbors([self._capped(s) for s in sessions]):
            piece.append(entry)
            rows += int(entry.lengths.sum())
            if rows >= _PIECE_ROWS:
                self._score_piece(piece, how_many, results)
                piece = []
                rows = 0
        if piece:
            self._score_piece(piece, how_many, results)
        return results

    def _batch_neighbors(
        self, sessions: list[Sequence[ItemId]]
    ) -> Iterator[_Segment]:
        """``_neighbor_arrays`` of every (capped) session, as ``_Segment``s.

        Sessions without a neighbour yield nothing; the others come in
        call order. The posting runs of the whole call are collected and
        pruned at once; the sort, the similarity sums and the cut then run
        once per piece of sessions (see :data:`_PIECE_ROWS`).
        """
        index = self.index
        if index is None:
            if any(sessions):
                raise RuntimeError("fit() must be called before recommending")
            return
        # The (posting row, decay weight, session number) of every run the
        # sessions read, session-major and distinct-item newest-first
        # within a session: the order ``_neighbor_arrays`` visits them.
        decay_fn = resolve_decay(self.decay)
        item_row = index._item_row
        run_rows: list[int] = []
        run_weights: list[float] = []
        run_sessions: list[int] = []
        for number, items in enumerate(sessions):
            positions = insertion_orders(items)
            for item in unique_items_reversed(items):
                row = item_row.get(item)
                if row is not None:
                    run_rows.append(row)
                    run_weights.append(decay_fn(positions[item], len(items)))
                    run_sessions.append(number)
        posting_rows = _as_int_array(run_rows)
        offsets = index.posting_offsets
        full = offsets[posting_rows + 1] - offsets[posting_rows]
        live = full > 0
        if not live.any():
            return
        posting_rows, full = posting_rows[live], full[live]
        weights = _as_float_array(run_weights)[live]
        owners = _as_int_array(run_sessions)[live]

        # Each run's head of at most m ids in the ascending mirror, and
        # each session's floor: the largest m-th id of its runs at least m
        # long (-1, no pruning, when none is). A run of m ids or more puts
        # m distinct ids at or above its m-th, so nothing below the floor
        # can be retained. One bisection of all runs at once moves every
        # head's low end up to the first id at or above its session's
        # floor.
        m = self.m
        asc = index.posting_sessions_asc
        high = asc.shape[0] - offsets[posting_rows]
        low = high - np.minimum(full, m)
        floors = np.full(len(sessions), -1, dtype=_INT)
        np.maximum.at(floors, owners, np.where(full >= m, asc[low], -1))
        floor = floors[owners]
        top = high
        for _ in range(int((high - low).max()).bit_length()):
            middle = (low + top) >> 1
            below = asc[np.minimum(middle, high - 1)] < floor
            open_ = low < top
            low = np.where(open_ & below, middle + 1, low)
            top = np.where(open_ & ~below, middle, top)
        kept = high - low

        # Pieces close at session boundaries once their candidates reach
        # the bound; session s owns runs [run_bounds[s], run_bounds[s + 1]).
        reach = np.zeros(kept.shape[0] + 1, dtype=_INT)
        np.cumsum(kept, out=reach[1:])
        run_bounds = owners.searchsorted(np.arange(len(sessions) + 1))
        at_session = reach[run_bounds].tolist()
        first = 0
        for last in range(1, len(sessions) + 1):
            if last == len(sessions) or (
                at_session[last] - at_session[first] >= _PIECE_ROWS
            ):
                if at_session[last] > at_session[first]:
                    runs = slice(int(run_bounds[first]), int(run_bounds[last]))
                    yield from self._search_piece(
                        sessions,
                        first,
                        last,
                        low[runs],
                        kept[runs],
                        weights[runs],
                        owners[runs],
                    )
                first = last

    def _search_piece(
        self,
        sessions: list[Sequence[ItemId]],
        first: int,
        last: int,
        starts: np.ndarray,
        kept: np.ndarray,
        weights: np.ndarray,
        owners: np.ndarray,
    ) -> list[_Segment]:
        """Neighbour search of ``sessions[first:last]`` over their pruned
        runs (``kept`` ids from ``starts`` in the ascending mirror)."""
        index = self.index
        assert index is not None
        num_sessions = index.num_sessions
        # One gather of every kept id, keyed ``segment * num_sessions +
        # id``: each session owns its own contiguous key range.
        dst_ends = kept.cumsum()
        keys = np.arange(int(dst_ends[-1]))
        keys += np.repeat(starts - (dst_ends - kept), kept)
        keys = index.posting_sessions_asc[keys]
        keys += np.repeat((owners - first) * num_sessions, kept)
        window_keys, inverse = _window_and_inverse(
            keys, (last - first) * num_sessions
        )
        del keys  # these temporaries are what the piece bound sizes
        # bincount adds in input order: per key, the session's runs
        # newest-item-first, the additions of the hashmap r.
        scores = np.bincount(
            inverse, weights=np.repeat(weights, kept), minlength=len(window_keys)
        )
        del inverse
        bounds = window_keys.searchsorted(
            np.arange(last - first + 1) * num_sessions
        ).tolist()
        m, k = self.m, self.k
        numbers: list[int] = []
        picked_ids: list[np.ndarray] = []
        picked_sims: list[np.ndarray] = []
        for segment in range(last - first):
            low, high = bounds[segment], bounds[segment + 1]
            if high == low:
                continue
            # The retained sample: the m largest distinct ids.
            low = max(low, high - m)
            neighbor_ids, sims = _top_k(
                window_keys[low:high] - segment * num_sessions,
                scores[low:high],
                k,
            )
            numbers.append(first + segment)
            picked_ids.append(neighbor_ids)
            picked_sims.append(sims)
        # The neighbours' item rows, read for the whole piece at once.
        item_offsets = index.session_item_offsets
        neighbor_ids = np.concatenate(picked_ids)
        src_starts = item_offsets[neighbor_ids]
        lengths = item_offsets[neighbor_ids + 1] - src_starts
        segments: list[_Segment] = []
        cursor = 0
        for number, sims in zip(numbers, picked_sims):
            end = cursor + sims.shape[0]
            segments.append(
                _Segment(
                    number,
                    sessions[number],
                    sims,
                    src_starts[cursor:end],
                    lengths[cursor:end],
                )
            )
            cursor = end
        return segments

    def _score_piece(
        self,
        piece: list[_Segment],
        how_many: int,
        results: list[list[ScoredItem]],
    ) -> None:
        """Item scoring of ``recommend`` for every session of ``piece``.

        Each step is the step of ``recommend`` with the session number
        carried in the key; ``results[position]`` is filled per session.
        """
        index = self.index
        assert index is not None
        num_items = index.num_items
        segments = len(piece)
        neighbor_sims = np.concatenate([entry.sims for entry in piece])
        src_starts = np.concatenate([entry.src_starts for entry in piece])
        lengths = np.concatenate([entry.lengths for entry in piece])
        neighbor_counts = _as_int_array([entry.sims.shape[0] for entry in piece])
        # Session ``s`` owns the keys ``[key_starts[s], key_starts[s + 1])``.
        key_starts = np.arange(segments + 1) * num_items

        # One gather for all neighbours of all sessions, session-major and
        # in neighbour-rank order within a session.
        dst_ends = lengths.cumsum()
        total = int(dst_ends[-1])
        if total == 0:
            return
        dst_starts = dst_ends - lengths
        concat = index.session_item_rows[
            np.arange(total) + np.repeat(src_starts - dst_starts, lengths)
        ]
        # The local window over composite keys: sessions own disjoint,
        # contiguous key ranges, so they own disjoint, contiguous slots.
        keys = np.repeat(np.repeat(key_starts[:-1], neighbor_counts), lengths)
        keys += concat
        window_keys, local = _window_and_inverse(keys, segments * num_items)
        window = window_keys.shape[0]

        # Every query's distinct items, keyed into its own range.
        query_keys: list[int] = []
        query_positions: list[int] = []
        item_row = index._item_row
        for segment, entry in enumerate(piece):
            base = segment * num_items
            for item, position in insertion_orders(entry.items).items():
                row = item_row.get(item)
                if row is not None:
                    query_keys.append(base + row)
                    query_positions.append(position)
        wanted = _as_int_array(query_keys)
        slots = np.minimum(window_keys.searchsorted(wanted), window - 1)
        present = window_keys[slots] == wanted
        query_slots = slots[present]

        query_order = np.zeros(window, dtype=_INT)
        query_order[query_slots] = _as_int_array(query_positions)[present]
        last_shared = np.where(
            lengths > 0,
            np.maximum.reduceat(
                query_order[local], np.minimum(dst_starts, total - 1)
            ),
            0,
        )

        # One match-weight table for the piece: the weight depends on the
        # shared position alone, so sessions can read the same entries.
        weight_fn = resolve_match_weight(self.match_weight)
        longest = max(len(entry.items) for entry in piece)
        match_table = np.zeros(longest + 1, dtype=_FLOAT)
        contributes_table = np.zeros(longest + 1, dtype=bool)
        for shared in sorted(set(last_shared.tolist())):
            if shared == 0:
                continue
            match = weight_fn(shared)
            match_table[shared] = match
            contributes_table[shared] = not is_zero_score(match)
        contributes = contributes_table[last_shared]
        vsknn = self.scoring_style == "vsknn"
        # Per neighbour, the scalar recommend multiplies by: elementwise
        # the same IEEE product.
        length_factor: np.ndarray | float = (
            np.repeat(
                _as_float_array([1.0 / len(entry.items) for entry in piece]),
                neighbor_counts,
            )
            if vsknn
            else 1.0
        )
        bases = np.where(
            contributes,
            (match_table[last_shared] * neighbor_sims) * length_factor,
            0.0,
        )

        segment_starts = window_keys.searchsorted(key_starts)
        window_rows = window_keys - np.repeat(
            key_starts[:-1], np.diff(segment_starts)
        )
        idf = index.idf_values[window_rows]
        if vsknn:
            idf = idf + 1.0
        values = np.repeat(bases, lengths) * idf[local]
        accumulated = np.bincount(local, weights=values, minlength=window)
        scored = np.zeros(window, dtype=bool)
        scored[local[np.repeat(contributes, lengths)]] = True
        if self.exclude_current_items:
            scored[query_slots] = False

        # Ranking is per session: a lexsort on that session's slice of
        # the scored slots, then one conversion to python scalars for the
        # whole piece.
        kept = np.flatnonzero(scored)
        out_items = index.item_ids[window_rows[kept]]
        out_scores = accumulated[kept]
        negated = -out_scores
        bounds = kept.searchsorted(segment_starts).tolist()
        picks: list[np.ndarray] = []
        for segment in range(segments):
            low, high = bounds[segment], bounds[segment + 1]
            ranked = np.lexsort((out_items[low:high], negated[low:high]))
            picks.append(ranked[:how_many] + low)
        chosen = np.concatenate(picks)
        items_out = out_items[chosen].tolist()
        scores_out = out_scores[chosen].tolist()
        cursor = 0
        for entry, ranked in zip(piece, picks):
            end = cursor + ranked.shape[0]
            results[entry.position] = [
                ScoredItem(item, score)
                for item, score in zip(
                    items_out[cursor:end], scores_out[cursor:end]
                )
            ]
            cursor = end
