"""Colocated evolving-session storage (§4.1/§4.2).

Each recommendation server keeps the evolving sessions of *its* users in a
machine-local :class:`~repro.kvstore.KVStore`, so session reads and writes
never cross the network — the colocation decision at the heart of
Serenade's latency budget. Sessions expire after 30 minutes of inactivity,
exactly the paper's RocksDB configuration; every update refreshes the TTL,
and every write carries up to :data:`EXPIRED_PER_WRITE` expired sessions
out of the store, so a visitor who never returns leaves memory without a
sweeper thread or a caller of :meth:`SessionStore.sweep_expired`.

Values are struct-packed item-id arrays (one ``struct`` call per value),
keyed by the external session key.

Robustness properties layered on the seed behaviour:

* **WAL-backed crash recovery** — give the store a ``wal_path`` and every
  update is logged before it is acknowledged; a pod that crashes and
  restarts on the same volume replays the log and recovers its evolving
  sessions (entries past their TTL are dropped during replay). The paper
  accepts losing this state; the WAL makes the trade-off a knob instead
  of a constant. :meth:`snapshot` compacts the log to the live set.
* **Corruption tolerance** — a corrupt stored value must never take the
  request path down. It is treated as an empty session, counted in
  :attr:`corrupt_sessions`, and logged once per store.
* **Replication tail** (``replicate=True``) — every mutation is also
  mirrored as a WAL-encoded record into an in-memory replication log with
  monotonically increasing byte offsets. A leader ships
  :meth:`tail_bytes` since a follower's acked offset; the follower
  :meth:`apply_tail`-s them. Records are full-value puts, so re-applying
  any suffix is idempotent, TTL-expired entries in a shipped tail are
  dropped at apply time, and a torn final record is truncated away —
  the same recovery matrix the on-disk WAL honours. :meth:`snapshot`
  rebases the log onto a snapshot of the live set so a follower that
  acked before the rebase resyncs from the snapshot instead of a lost
  byte range.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.core.types import ItemId
from repro.kvstore.store import Clock, KVStore
from repro.kvstore.wal import OP_DELETE, OP_PUT, WalRecord, iter_records

logger = logging.getLogger(__name__)

SESSION_TTL_SECONDS = 30 * 60  # the paper's 30-minute inactivity window
#: Expired sessions each write carries out of the store: more than the
#: one a write can add, so a pod's memory holds its live sessions plus a
#: backlog that every write shrinks (nothing sweeps a serving pod).
EXPIRED_PER_WRITE = 2

_ITEM_BYTES = 8  # one little-endian signed 64-bit id per item
#: One compiled ``Struct`` per item count up to this, built on first use;
#: a stored session holds at most ``max_items`` (100 by default).
_CODEC_CACHE_LIMIT = 128
_CODECS: dict[int, struct.Struct] = {}


def _codec(count: int) -> struct.Struct:
    """The struct that packs ``count`` item ids in one call."""
    codec = _CODECS.get(count)
    if codec is None:
        codec = struct.Struct(f"<{count}q")
        if count <= _CODEC_CACHE_LIMIT:
            _CODECS[count] = codec
    return codec


def encode_items(items: Sequence[ItemId]) -> bytes:
    """Pack an item sequence into a fixed-width binary value."""
    count = len(items)
    return (_CODECS.get(count) or _codec(count)).pack(*items)


def decode_items(value: bytes) -> list[ItemId]:
    """Unpack a binary value back into the item sequence."""
    count, remainder = divmod(len(value), _ITEM_BYTES)
    if remainder:
        raise ValueError(f"corrupt session value of {len(value)} bytes")
    return list((_CODECS.get(count) or _codec(count)).unpack(value))


@dataclass
class TailApplyReport:
    """What :meth:`SessionStore.apply_tail` did with a shipped byte range."""

    #: records applied to the local store (puts + deletes).
    applied: int = 0
    #: puts whose TTL had already expired when the tail arrived; dropped.
    expired_dropped: int = 0
    #: records for keys outside this replica's ownership filter; skipped.
    filtered: int = 0
    #: True when the range ended in a torn/corrupt record (truncated away).
    torn: bool = False


class SessionStore:
    """Evolving sessions in a local KV store with inactivity expiry."""

    def __init__(
        self,
        ttl_seconds: float = SESSION_TTL_SECONDS,
        max_items: int = 100,
        clock: Clock | None = None,
        wal_path: str | Path | None = None,
        sync_every: int = 0,
        replicate: bool = False,
    ) -> None:
        """Create a store for one serving pod.

        Args:
            ttl_seconds: inactivity window before a session is dropped.
            max_items: cap on stored history per session (the paper caps
                the evolving session length to bound prediction cost).
            clock: injectable time source for simulations.
            wal_path: write-ahead log for crash recovery; an existing log
                at this path is replayed on open. ``None`` = memory-only
                (the seed behaviour, and the paper's durability stance).
            sync_every: fsync the WAL every N appends (0 = flush only).
            replicate: mirror every mutation into the in-memory
                replication log so a ring leader can tail-ship state to
                its followers (see :mod:`repro.serving.ring`).
        """
        kwargs = {"default_ttl": ttl_seconds}
        if clock is not None:
            kwargs["clock"] = clock
        if wal_path is not None:
            kwargs["wal_path"] = wal_path
            kwargs["sync_every"] = sync_every
        self._store = KVStore(**kwargs)
        self.max_items = max_items
        self.wal_path = Path(wal_path) if wal_path is not None else None
        self.corrupt_sessions = 0
        self._corruption_logged = False
        # -- replication log (leader side of the tail-shipping protocol) --
        self._replicating = replicate
        #: records appended after the last rebase, WAL-encoded.
        self._repl_log = bytearray()
        #: offset where ``_repl_log`` starts in the global offset stream.
        self._repl_base = 0
        #: snapshot of the live set at the last rebase (served to any
        #: follower whose acked offset predates ``_repl_base``).
        self._repl_snapshot = b""

    # -- decoding -------------------------------------------------------------

    def _decode_tolerant(self, session_key: str, value: bytes) -> list[ItemId]:
        """Decode a stored value; a corrupt one reads as an empty session."""
        try:
            return decode_items(value)
        except ValueError:
            self.corrupt_sessions += 1
            if not self._corruption_logged:
                self._corruption_logged = True
                logger.warning(
                    "corrupt session value for %r (%d bytes); treating as "
                    "empty (further corruptions counted, not logged)",
                    session_key,
                    len(value),
                )
            return []

    # -- mutation -------------------------------------------------------------

    def append_click(self, session_key: str, item_id: ItemId) -> list[ItemId]:
        """Record one interaction and return the updated item history.

        This is the read-modify-write executed for every incoming request
        (step 2 in Figure 1); it refreshes the session's TTL.
        """
        key = session_key.encode("utf-8")
        value = self._store.get(key)
        items = (
            self._decode_tolerant(session_key, value) if value is not None else []
        )
        items.append(item_id)
        if len(items) > self.max_items:
            del items[: len(items) - self.max_items]
        encoded = encode_items(items)
        expire_at = self._store.put(key, encoded)
        self._store.expire_oldest(EXPIRED_PER_WRITE)
        if self._replicating:
            self._repl_log += WalRecord(OP_PUT, key, encoded, expire_at).encode()
        return items

    def put_session(
        self, session_key: str, items: Sequence[ItemId]
    ) -> list[ItemId]:
        """Install a full session value (rebalance / drain snapshot path).

        Unlike :meth:`append_click` this replaces the whole history at
        once — the "WAL snapshot" half of snapshot-plus-catch-up-tail
        state transfer. The ``max_items`` cap and TTL refresh apply as
        they would have on the source pod.
        """
        kept = list(items)[-self.max_items :]
        key = session_key.encode("utf-8")
        encoded = encode_items(kept)
        expire_at = self._store.put(key, encoded)
        self._store.expire_oldest(EXPIRED_PER_WRITE)
        if self._replicating:
            self._repl_log += WalRecord(OP_PUT, key, encoded, expire_at).encode()
        return kept

    def drop_session(self, session_key: str) -> bool:
        """Forget a session immediately (e.g., consent revocation)."""
        key = session_key.encode("utf-8")
        existed = self._store.delete(key)
        if self._replicating:
            self._repl_log += WalRecord(OP_DELETE, key).encode()
        return existed

    # -- replication tail -----------------------------------------------------

    @property
    def replication_offset(self) -> int:
        """Byte offset at the head of the replication log (monotonic)."""
        return self._repl_base + len(self._repl_log)

    def tail_bytes(self, since: int) -> bytes:
        """The WAL-encoded record range from ``since`` to the head.

        ``since`` is the follower's acked offset. A follower that acked
        before the last :meth:`snapshot` rebase receives the snapshot
        plus everything after it — a full resync, correct because every
        record is a full-value put (last-writer-wins by byte order).
        """
        if since >= self.replication_offset:
            return b""
        if since >= self._repl_base:
            return bytes(self._repl_log[since - self._repl_base :])
        return self._repl_snapshot + bytes(self._repl_log)

    def apply_tail(
        self,
        data: bytes,
        key_filter: Callable[[str], bool] | None = None,
    ) -> TailApplyReport:
        """Apply a shipped record range to this (follower) store.

        The apply contract mirrors WAL replay:

        * records are full-value puts, so duplicate delivery at the
          replication-offset boundary re-applies idempotently;
        * a put whose ``expire_at`` has already passed is dropped (the
          session died of inactivity while the tail was in flight);
        * a torn final record truncates silently — the shipped prefix is
          applied, the torn suffix re-ships on the next round;
        * ``key_filter`` keeps only the keys this replica owns on the
          ring (other leaders' keys flow through the same per-pod log).

        Applied records are mirrored into this store's own replication
        log, so a promoted follower can in turn tail-ship to *its*
        followers without a rebuild.
        """
        report = TailApplyReport()
        consumed = 0
        now = self._store.now()
        for record in iter_records(data):
            encoded = record.encode()
            consumed += len(encoded)
            key_str = record.key.decode("utf-8")
            if key_filter is not None and not key_filter(key_str):
                report.filtered += 1
                continue
            if record.op == OP_DELETE:
                self._store.delete(record.key)
                if self._replicating:
                    self._repl_log += encoded
                report.applied += 1
                continue
            if record.expire_at != 0.0 and record.expire_at <= now:
                report.expired_dropped += 1
                continue
            ttl = record.expire_at - now if record.expire_at != 0.0 else None
            self._store.put(record.key, record.value, ttl=ttl)
            self._store.expire_oldest(EXPIRED_PER_WRITE)
            if self._replicating:
                self._repl_log += encoded
            report.applied += 1
        report.torn = consumed < len(data)
        return report

    # -- reads ----------------------------------------------------------------

    def get_session(self, session_key: str) -> list[ItemId] | None:
        """Current item history, or None if unknown/expired.

        A corrupt stored value is returned as an empty history rather than
        raising — the request path must survive bad bytes on disk.
        """
        value = self._store.get(session_key.encode("utf-8"))
        if value is None:
            return None
        return self._decode_tolerant(session_key, value)

    def sweep_expired(self) -> int:
        """Evict idle sessions; returns how many were dropped."""
        return self._store.sweep()

    def session_keys(self) -> list[str]:
        """Live session keys (decoded)."""
        return [key.decode("utf-8") for key in self._store.keys()]

    def as_dict(self) -> dict[str, list[ItemId]]:
        """Snapshot of all live sessions (for recovery verification)."""
        out: dict[str, list[ItemId]] = {}
        for key in self.session_keys():
            items = self.get_session(key)
            if items is not None:
                out[key] = items
        return out

    # -- maintenance ----------------------------------------------------------

    def snapshot(self) -> int:
        """Compact the WAL down to the live session set.

        Returns the number of live sessions in the snapshot. A no-op for
        memory-only stores. With replication on, the in-memory log is
        rebased onto the same live-set snapshot, bounding its growth:
        in-sync followers keep tailing from the new base; lagging ones
        resync from the snapshot.
        """
        self._store.compact()
        keys = self.session_keys()
        if self._replicating:
            snapshot = bytearray()
            for session_key in keys:
                key = session_key.encode("utf-8")
                value = self._store.get(key)
                if value is None:
                    continue
                expire_at = self._store.put(key, value)
                snapshot += WalRecord(OP_PUT, key, value, expire_at).encode()
            self._repl_base = self.replication_offset
            self._repl_log = bytearray()
            self._repl_snapshot = bytes(snapshot)
        return len(keys)

    def close(self, delete_wal: bool = False) -> None:
        """Release the WAL handle; optionally delete the log.

        ``delete_wal=True`` is the graceful-decommission path (planned
        scale-down): the pod's sessions are gone for good, so a later pod
        with the same id must not resurrect them. In a replicated ring
        the coordinator hands the session state to the new owners
        *before* calling this (see ``RingCoordinator.decommission``).
        """
        self._store.close()
        if delete_wal and self.wal_path is not None:
            self.wal_path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._store)
