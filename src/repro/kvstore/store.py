"""Embedded key-value store with TTL — the RocksDB substitute (§4.2).

Serenade keeps the evolving user sessions in a RocksDB instance colocated
with the serving process, configured to drop a session's data after 30
minutes of inactivity, and reports single-digit-microsecond read latency.
This module provides the same contract as a small LSM-style store:

* an in-memory memtable (hash map) for µs-scale reads and writes;
* an optional write-ahead log for durability, replayed on open;
* per-entry TTL with lazy expiry on read, an explicit ``sweep``, and
  :meth:`~KVStore.expire_oldest`: the memtable is kept in last-write
  order, so a writer can carry expired entries out from its oldest end a
  few at a time, and an entry that is never read again still leaves
  memory without anybody walking the whole table;
* ``compact`` to rewrite the WAL down to the live entry set.

The store is thread-safe; the serving layer shares one instance per pod.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterator

from repro.core.locking import guarded_by, holds_lock
from repro.kvstore.wal import OP_DELETE, OP_PUT, WalRecord, WriteAheadLog

Clock = Callable[[], float]


@guarded_by("_lock", "_memtable", "_wal")
class KVStore:
    """Thread-safe in-process key-value store with TTL and optional WAL."""

    def __init__(
        self,
        wal_path: str | Path | None = None,
        default_ttl: float | None = None,
        clock: Clock = time.monotonic,
        sync_every: int = 0,
    ) -> None:
        """Create or reopen a store.

        Args:
            wal_path: durability log location; ``None`` = memory-only.
            default_ttl: seconds after which entries expire unless a put
                overrides it; ``None`` = entries never expire by default.
                Serenade uses 30 minutes (1800 s) for evolving sessions.
            clock: time source; inject a fake for simulations and tests.
            sync_every: fsync cadence for the WAL (0 = never fsync).
        """
        #: key -> (value, expire_at), oldest write first.
        self._memtable: OrderedDict[bytes, tuple[bytes, float]] = OrderedDict()
        self._lock = threading.Lock()
        self._clock = clock
        self.default_ttl = default_ttl
        self._wal: WriteAheadLog | None = None
        if wal_path is not None:
            self._replay(wal_path)
            self._wal = WriteAheadLog(wal_path, sync_every=sync_every)

    @holds_lock("_lock")
    def _replay(self, wal_path: str | Path) -> None:
        # Called from __init__ before the store is shared; annotated as a
        # lock-holder because it touches the memtable single-threaded.
        now = self._clock()
        for record in WriteAheadLog.replay(wal_path):
            if record.op == OP_PUT:
                if record.expire_at != 0.0 and record.expire_at <= now:
                    self._memtable.pop(record.key, None)
                else:
                    self._memtable[record.key] = (record.value, record.expire_at)
                    self._memtable.move_to_end(record.key)
            elif record.op == OP_DELETE:
                self._memtable.pop(record.key, None)

    def _expire_at(self, ttl: float | None, now: float) -> float:
        if ttl is None:
            ttl = self.default_ttl
        if ttl is None:
            return 0.0
        return now + ttl

    def now(self) -> float:
        """The store's current clock reading (the injected time source)."""
        return self._clock()

    def put(self, key: bytes, value: bytes, ttl: float | None = None) -> float:
        """Insert or overwrite an entry; ``ttl`` overrides the default.

        Returns the absolute expiry the entry was stored with (0.0 =
        never), so callers mirroring writes into a replication stream can
        ship the exact expiry rather than recomputing it.
        """
        expire_at = self._expire_at(ttl, self._clock())
        with self._lock:
            # The newest write goes last: see expire_oldest.
            self._memtable[key] = (value, expire_at)
            self._memtable.move_to_end(key)
            if self._wal is not None:
                self._wal.append(WalRecord(OP_PUT, key, value, expire_at))
        return expire_at

    def get(self, key: bytes) -> bytes | None:
        """Read an entry; expired entries are removed and read as missing."""
        with self._lock:
            entry = self._memtable.get(key)
            if entry is None:
                return None
            value, expire_at = entry
            if expire_at != 0.0 and expire_at <= self._clock():
                del self._memtable[key]
                return None
            return value

    def delete(self, key: bytes) -> bool:
        """Remove an entry; returns whether a live entry was removed."""
        with self._lock:
            existed = self._remove_if_live(key)
            if self._wal is not None:
                self._wal.append(WalRecord(OP_DELETE, key))
            return existed

    @holds_lock("_lock")
    def _remove_if_live(self, key: bytes) -> bool:
        entry = self._memtable.pop(key, None)
        if entry is None:
            return False
        _, expire_at = entry
        return expire_at == 0.0 or expire_at > self._clock()

    def touch(self, key: bytes, ttl: float | None = None) -> bool:
        """Refresh an entry's TTL without rewriting its value.

        This is how the session store keeps *active* sessions alive while
        idle ones age out after 30 minutes.
        """
        now = self._clock()
        with self._lock:
            entry = self._memtable.get(key)
            if entry is None:
                return False
            value, expire_at = entry
            if expire_at != 0.0 and expire_at <= now:
                del self._memtable[key]
                return False
            new_expire = self._expire_at(ttl, now)
            self._memtable[key] = (value, new_expire)
            self._memtable.move_to_end(key)
            if self._wal is not None:
                self._wal.append(WalRecord(OP_PUT, key, value, new_expire))
            return True

    def sweep(self) -> int:
        """Drop all expired entries; returns how many were removed."""
        now = self._clock()
        with self._lock:
            dead = [
                key
                for key, (_, expire_at) in self._memtable.items()
                if expire_at != 0.0 and expire_at <= now
            ]
            for key in dead:
                del self._memtable[key]
            return len(dead)

    def expire_oldest(self, limit: int) -> int:
        """Drop up to ``limit`` expired entries, oldest write first.

        Stops at the first live entry: with one TTL for every entry,
        nothing written after a live entry has expired either. Called
        after each write with a ``limit`` above one, this keeps the
        expired part of the table shrinking at a bounded cost per write.
        Returns how many entries were dropped.
        """
        now = self._clock()
        dropped = 0
        with self._lock:
            memtable = self._memtable
            while dropped < limit and memtable:
                oldest = next(iter(memtable))
                expire_at = memtable[oldest][1]
                if expire_at == 0.0 or expire_at > now:
                    break
                del memtable[oldest]
                dropped += 1
        return dropped

    def compact(self) -> None:
        """Rewrite the WAL to contain exactly the live entries."""
        with self._lock:
            if self._wal is None:
                return
            path = self._wal.path
            self._wal.close()
            tmp = path.with_suffix(path.suffix + ".compact")
            with WriteAheadLog(tmp) as fresh:
                now = self._clock()
                for key, (value, expire_at) in self._memtable.items():
                    if expire_at == 0.0 or expire_at > now:
                        fresh.append(WalRecord(OP_PUT, key, value, expire_at))
            tmp.replace(path)
            self._wal = WriteAheadLog(path)

    def __len__(self) -> int:
        """Number of entries, including not-yet-swept expired ones."""
        with self._lock:
            return len(self._memtable)

    def items(self) -> dict[bytes, bytes]:
        """Snapshot of live entries as a plain dict.

        The canonical way to compare store state across a crash+replay
        cycle: ``store_after.items() == store_before.items()`` holds
        whenever every acknowledged write made it into the WAL.
        """
        now = self._clock()
        with self._lock:
            return {
                key: value
                for key, (value, expire_at) in self._memtable.items()
                if expire_at == 0.0 or expire_at > now
            }

    def keys(self) -> Iterator[bytes]:
        """Snapshot of live keys."""
        now = self._clock()
        with self._lock:
            return iter(
                [
                    key
                    for key, (_, expire_at) in self._memtable.items()
                    if expire_at == 0.0 or expire_at > now
                ]
            )

    def close(self) -> None:
        with self._lock:
            if self._wal is not None:
                self._wal.close()

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
