"""Query-time compressed index (the paper's stated future work, §7).

"We intend to explore whether we can run our similarity computations on a
compressed version of the index." This module implements that exploration:
posting lists and session item sets are stored delta/varint-encoded in a
single byte arena and decoded on access, with a small LRU cache over hot
posting lists (item popularity is Zipfian, so a tiny cache absorbs most
decodes).

``CompressedSessionIndex`` exposes the same query interface as
:class:`~repro.core.index.SessionIndex`, so ``VMISKNN`` runs on either —
the ablation benchmark ``bench_ablation_index`` measures the memory/latency
trade-off.
"""

from __future__ import annotations

import math
from collections import OrderedDict

from repro.core.index import SessionIndex
from repro.core.types import ItemId, SessionId, Timestamp
from repro.index.serialization import _encode_descending, _write_varint


def _varint_at(arena: bytes, offset: int) -> tuple[int, int]:
    """The varint starting at ``offset`` and the offset after it.

    Query-time access decodes one short record at a known offset, which a
    plain loop does in a microsecond or two; the array decoder of
    :mod:`repro.index.serialization` is for whole payloads and costs more
    than that to set up.
    """
    result = 0
    shift = 0
    while True:
        byte = arena[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


class CompressedSessionIndex:
    """A drop-in, compressed substitute for :class:`SessionIndex`.

    Built from an existing uncompressed index via :meth:`from_index`.
    Decoded posting lists are cached in an LRU of ``cache_size`` entries.
    """

    def __init__(
        self,
        posting_arena: bytes,
        posting_offsets: dict[ItemId, int],
        items_arena: bytes,
        items_offsets: list[int],
        session_timestamps: list[Timestamp],
        item_session_counts: dict[ItemId, int],
        max_sessions_per_item: int,
        cache_size: int = 1024,
    ) -> None:
        self._posting_arena = posting_arena
        self._posting_offsets = posting_offsets
        self._items_arena = items_arena
        self._items_offsets = items_offsets
        self.session_timestamps = session_timestamps
        self.item_session_counts = item_session_counts
        self.max_sessions_per_item = max_sessions_per_item
        self._cache_size = cache_size
        self._cache: OrderedDict[ItemId, list[SessionId]] = OrderedDict()
        self._idf_cache: dict[ItemId, float] = {}

    @classmethod
    def from_index(
        cls, index: SessionIndex, cache_size: int = 1024
    ) -> "CompressedSessionIndex":
        """Compress an uncompressed index."""
        posting_arena = bytearray()
        posting_offsets: dict[ItemId, int] = {}
        for item, postings in index.item_to_sessions.items():
            posting_offsets[item] = len(posting_arena)
            posting_arena += _encode_descending(postings)

        items_arena = bytearray()
        items_offsets: list[int] = []
        for items in index.session_items:
            items_offsets.append(len(items_arena))
            _write_varint(items_arena, len(items))
            previous = 0
            for item in sorted(items):
                _write_varint(items_arena, item - previous)
                previous = item
        return cls(
            posting_arena=bytes(posting_arena),
            posting_offsets=posting_offsets,
            items_arena=bytes(items_arena),
            items_offsets=items_offsets,
            session_timestamps=list(index.session_timestamps),
            item_session_counts=dict(index.item_session_counts),
            max_sessions_per_item=index.max_sessions_per_item,
            cache_size=cache_size,
        )

    # -- SessionIndex query interface -------------------------------------

    @property
    def num_sessions(self) -> int:
        return len(self.session_timestamps)

    @property
    def num_items(self) -> int:
        return len(self._posting_offsets)

    def sessions_for_item(self, item_id: ItemId) -> list[SessionId]:
        """Decode (or fetch from cache) the posting list for an item."""
        cached = self._cache.get(item_id)
        if cached is not None:
            self._cache.move_to_end(item_id)
            return cached
        offset = self._posting_offsets.get(item_id)
        if offset is None:
            return []
        arena = self._posting_arena
        count, offset = _varint_at(arena, offset)
        postings: list[SessionId] = []
        previous = 0
        for position in range(count):
            raw, offset = _varint_at(arena, offset)
            previous = raw if position == 0 else previous - raw
            postings.append(previous)
        self._cache[item_id] = postings
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return postings

    def timestamp_of(self, session_id: SessionId) -> Timestamp:
        return self.session_timestamps[session_id]

    def items_of(self, session_id: SessionId) -> tuple[ItemId, ...]:
        """Decode a session's (sorted) distinct item set.

        Note: compression sorts items, losing click order within the
        session. Scoring only tests membership and looks up insertion
        orders of the *evolving* session, so results are unaffected.
        """
        offset = self._items_offsets[session_id]
        arena = self._items_arena
        count, offset = _varint_at(arena, offset)
        items = []
        previous = 0
        for _ in range(count):
            delta, offset = _varint_at(arena, offset)
            previous += delta
            items.append(previous)
        return tuple(items)

    def idf(self, item_id: ItemId) -> float:
        cached = self._idf_cache.get(item_id)
        if cached is not None:
            return cached
        count = self.item_session_counts.get(item_id, 0)
        value = math.log(self.num_sessions / count) if count else 0.0
        self._idf_cache[item_id] = value
        return value

    # -- introspection ------------------------------------------------------

    def compressed_bytes(self) -> int:
        """Size of the two byte arenas (the compressible payload)."""
        return len(self._posting_arena) + len(self._items_arena)


def uncompressed_payload_bytes(index: SessionIndex) -> int:
    """Comparable payload size if stored as flat 8-byte integers."""
    postings = sum(len(v) for v in index.item_to_sessions.values())
    stored_items = sum(len(v) + 1 for v in index.session_items)
    return 8 * (postings + stored_items)


def compression_ratio(index: SessionIndex, compressed: CompressedSessionIndex) -> float:
    """uncompressed / compressed payload size (higher is better)."""
    return uncompressed_payload_bytes(index) / max(1, compressed.compressed_bytes())
