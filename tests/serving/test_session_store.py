"""Tests for the colocated evolving-session store."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.session_store import SessionStore, decode_items, encode_items

_ITEM = struct.Struct("<q")


def encode_per_item(items):
    """The codec as it was: one ``struct`` call per item."""
    return b"".join(_ITEM.pack(item) for item in items)


def decode_per_item(value):
    if len(value) % _ITEM.size:
        raise ValueError(f"corrupt session value of {len(value)} bytes")
    return [
        _ITEM.unpack_from(value, offset)[0]
        for offset in range(0, len(value), _ITEM.size)
    ]


sessions = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=100)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestEncoding:
    def test_roundtrip(self):
        items = [1, 2**40, 0, 7]
        assert decode_items(encode_items(items)) == items

    def test_empty(self):
        assert decode_items(encode_items([])) == []

    def test_corrupt_length_rejected(self):
        with pytest.raises(ValueError):
            decode_items(b"\x01\x02\x03")

    @settings(max_examples=300, deadline=None)
    @given(sessions)
    def test_one_call_codec_writes_the_per_item_bytes(self, items):
        encoded = encode_items(items)
        assert encoded == encode_per_item(items)
        assert decode_items(encoded) == decode_per_item(encoded) == items

    @given(sessions, st.integers(1, 7))
    def test_every_corrupt_length_is_rejected(self, items, extra):
        value = encode_per_item(items) + b"\x00" * extra
        with pytest.raises(ValueError):
            decode_items(value)
        with pytest.raises(ValueError):
            decode_per_item(value)

    def test_longer_than_the_cap_still_packs(self):
        items = list(range(1000))
        assert encode_items(items) == encode_per_item(items)
        assert decode_items(encode_items(items)) == items


class TestSessionLifecycle:
    def test_append_accumulates_history(self):
        store = SessionStore()
        assert store.append_click("u1", 10) == [10]
        assert store.append_click("u1", 20) == [10, 20]
        assert store.get_session("u1") == [10, 20]

    def test_sessions_are_isolated(self):
        store = SessionStore()
        store.append_click("u1", 1)
        store.append_click("u2", 2)
        assert store.get_session("u1") == [1]
        assert store.get_session("u2") == [2]

    def test_history_capped(self):
        store = SessionStore(max_items=3)
        for item in range(6):
            store.append_click("u", item)
        assert store.get_session("u") == [3, 4, 5]

    def test_unknown_session(self):
        assert SessionStore().get_session("ghost") is None

    def test_drop_session(self):
        store = SessionStore()
        store.append_click("u", 1)
        assert store.drop_session("u") is True
        assert store.get_session("u") is None


class TestInactivityExpiry:
    def test_idle_session_expires_after_30_minutes(self):
        clock = FakeClock()
        store = SessionStore(clock=clock)
        store.append_click("u", 1)
        clock.now = 29 * 60
        assert store.get_session("u") == [1]
        clock.now = 31 * 60
        assert store.get_session("u") is None

    def test_activity_refreshes_ttl(self):
        clock = FakeClock()
        store = SessionStore(clock=clock)
        store.append_click("u", 1)
        clock.now = 25 * 60
        store.append_click("u", 2)  # fresh activity
        clock.now = 50 * 60  # 25 min after the last click
        assert store.get_session("u") == [1, 2]

    def test_sweep_reports_evictions(self):
        clock = FakeClock()
        store = SessionStore(clock=clock)
        store.append_click("a", 1)
        store.append_click("b", 2)
        clock.now = 31 * 60
        assert store.sweep_expired() == 2
        assert len(store) == 0


class TestIdleSessionsLeave:
    """A visitor who never comes back must not stay in a serving pod's
    memory: nothing may grow with uptime, and no caller sweeps."""

    K = 500

    def test_writes_carry_expired_sessions_out(self):
        clock = FakeClock()
        store = SessionStore(clock=clock)
        for number in range(self.K):
            store.append_click(f"gone-{number}", number)
        clock.now = 31 * 60  # every one of them past its 30-minute TTL
        for number in range(self.K):
            store.append_click(f"new-{number}", number)
        assert len(store) <= self.K
        assert store.get_session("new-0") == [0]
        assert store.get_session("gone-0") is None

    def test_a_returning_visitor_is_not_carried_out(self):
        clock = FakeClock()
        store = SessionStore(clock=clock)
        store.append_click("back", 1)
        store.append_click("idle", 2)
        clock.now = 20 * 60
        store.append_click("back", 3)  # refreshed: now the newest write
        clock.now = 40 * 60  # "idle" expired at 30, "back" lives to 50
        store.append_click("later", 4)
        assert store.get_session("back") == [1, 3]
        assert len(store) == 2

    def test_work_per_write_is_bounded(self):
        """A write carries out at most a few expired sessions, so a burst
        of expiries is paid over the writes after it, not by one."""
        clock = FakeClock()
        store = SessionStore(clock=clock)
        for number in range(self.K):
            store.append_click(f"gone-{number}", number)
        clock.now = 31 * 60
        store.append_click("first", 1)
        assert len(store) >= self.K - 8


class TestCorruptionTolerance:
    def _corrupt(self, store: SessionStore, session_key: str) -> None:
        # Plant a value whose length is not a multiple of the item width.
        store._store.put(session_key.encode("utf-8"), b"\x01\x02\x03")

    def test_decode_items_still_rejects_corrupt_values(self):
        with pytest.raises(ValueError, match="corrupt"):
            decode_items(b"\x01\x02\x03")

    def test_corrupt_value_reads_as_empty_session(self):
        store = SessionStore()
        self._corrupt(store, "u")
        assert store.get_session("u") == []
        assert store.corrupt_sessions == 1

    def test_append_click_recovers_over_corrupt_value(self):
        store = SessionStore()
        self._corrupt(store, "u")
        assert store.append_click("u", 7) == [7]
        assert store.corrupt_sessions == 1
        # The rewrite healed the entry: reads are clean again.
        assert store.get_session("u") == [7]
        assert store.corrupt_sessions == 1

    def test_corruption_logged_once_but_counted_always(self, caplog):
        store = SessionStore()
        self._corrupt(store, "a")
        self._corrupt(store, "b")
        with caplog.at_level("WARNING", logger="repro.serving.session_store"):
            store.get_session("a")
            store.get_session("b")
        assert store.corrupt_sessions == 2
        warnings = [r for r in caplog.records if "corrupt session" in r.message]
        assert len(warnings) == 1


class TestWALPersistence:
    def test_crash_and_replay_restores_sessions(self, tmp_path):
        wal = tmp_path / "pod.wal"
        store = SessionStore(wal_path=wal)
        store.append_click("u", 1)
        store.append_click("u", 2)
        store.append_click("v", 9)
        before = store.as_dict()
        # Crash: no close(). A fresh store on the same volume replays.
        replayed = SessionStore(wal_path=wal)
        assert replayed.as_dict() == before

    def test_expired_sessions_dropped_during_replay(self, tmp_path):
        wal = tmp_path / "pod.wal"
        clock = FakeClock()
        store = SessionStore(clock=clock, wal_path=wal)
        store.append_click("old", 1)
        clock.now = 10 * 60
        store.append_click("fresh", 2)
        clock.now = 35 * 60  # "old" is past its 30-minute TTL
        replayed = SessionStore(clock=clock, wal_path=wal)
        assert replayed.get_session("old") is None
        assert replayed.get_session("fresh") == [2]

    def test_snapshot_compacts_and_counts(self, tmp_path):
        wal = tmp_path / "pod.wal"
        store = SessionStore(wal_path=wal)
        for i in range(10):
            store.append_click("u", i)
        store.drop_session("u")
        store.append_click("v", 1)
        size_before = wal.stat().st_size
        assert store.snapshot() == 1
        assert wal.stat().st_size < size_before
        replayed = SessionStore(wal_path=wal)
        assert replayed.as_dict() == {"v": [1]}

    def test_close_delete_wal_removes_log(self, tmp_path):
        wal = tmp_path / "pod.wal"
        store = SessionStore(wal_path=wal)
        store.append_click("u", 1)
        store.close(delete_wal=True)
        assert not wal.exists()
