"""Tests for the binary index container format."""

from __future__ import annotations

import hashlib
import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colindex import ColumnarSessionIndex
from repro.core.index import SessionIndex
from repro.core.types import Click
from repro.index.serialization import (
    _decode_varints,
    _encode_descending,
    _rebuild_descending,
    _write_varint,
    deserialize_index,
    load_columnar,
    load_index,
    save_index,
    serialize_index,
)

# -- the reference: the loop decoder this module replaced --------------------


def _read_varint(buffer: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = buffer[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def _decode_descending(buffer: bytes, offset: int) -> tuple[list[int], int]:
    count, offset = _read_varint(buffer, offset)
    values: list[int] = []
    previous = 0
    for position in range(count):
        raw, offset = _read_varint(buffer, offset)
        previous = raw if position == 0 else previous - raw
        values.append(previous)
    return values, offset


def reference_deserialize(data: bytes) -> SessionIndex:
    """``deserialize_index`` as it was: one byte, one list append at a time
    (the envelope checks are the array decoder's own and are not repeated)."""
    header_len = struct.unpack("<I", data[8:12])[0]
    offset = 12 + header_len
    header = json.loads(data[12:offset].decode("utf-8"))
    num_sessions = header["num_sessions"]
    timestamps = list(struct.unpack_from(f"<{num_sessions}Q", data, offset))
    offset += 8 * num_sessions
    session_items: list[tuple[int, ...]] = []
    for _ in range(num_sessions):
        count, offset = _read_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _read_varint(data, offset)
            items.append(item)
        session_items.append(tuple(items))
    item_to_sessions: dict[int, list[int]] = {}
    item_session_counts: dict[int, int] = {}
    for _ in range(header["num_items"]):
        item, offset = _read_varint(data, offset)
        frequency, offset = _read_varint(data, offset)
        postings, offset = _decode_descending(data, offset)
        item_to_sessions[item] = postings
        item_session_counts[item] = frequency
    return SessionIndex(
        item_to_sessions=item_to_sessions,
        session_timestamps=timestamps,
        session_items=session_items,
        item_session_counts=item_session_counts,
        max_sessions_per_item=header["max_sessions_per_item"],
    )


def as_bytes(values: list[int]) -> np.ndarray:
    buffer = bytearray()
    for value in values:
        _write_varint(buffer, value)
    return np.frombuffer(bytes(buffer), dtype=np.uint8)


class TestVarints:
    @given(value=st.integers(0, 2**62))
    def test_varint_roundtrip(self, value):
        buffer = bytearray()
        _write_varint(buffer, value)
        assert _decode_varints(as_bytes([value])).tolist() == [value]
        assert _read_varint(bytes(buffer), 0) == (value, len(buffer))

    @given(values=st.lists(st.integers(0, 2**63 - 1), max_size=40))
    def test_many_varints_decode_like_the_loop(self, values):
        raw = as_bytes(values)
        decoded, offset = [], 0
        while offset < raw.shape[0]:
            value, offset = _read_varint(raw.tobytes(), offset)
            decoded.append(value)
        assert _decode_varints(raw).tolist() == decoded == values

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            _write_varint(bytearray(), -1)

    def test_truncated_and_overwide_varints_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            _decode_varints(np.array([0x01, 0x80], dtype=np.uint8))
        with pytest.raises(ValueError, match="63 bits"):
            _decode_varints(np.array([0x80] * 9 + [0x01], dtype=np.uint8))

    @given(
        values=st.lists(st.integers(0, 10**6), min_size=0, max_size=50).map(
            lambda v: sorted(set(v), reverse=True)
        )
    )
    def test_descending_roundtrip(self, values):
        encoded = bytes(_encode_descending(values))
        record = _decode_varints(np.frombuffer(encoded, dtype=np.uint8))
        assert _rebuild_descending(record[1:], record[:1]).tolist() == values
        assert _decode_descending(encoded, 0) == (values, len(encoded))

    def test_non_descending_rejected(self):
        with pytest.raises(ValueError):
            _encode_descending([1, 2])


def index_roundtrip(index: SessionIndex) -> SessionIndex:
    return deserialize_index(serialize_index(index))


class TestIndexRoundtrip:
    def test_toy_roundtrip(self, toy_index):
        restored = index_roundtrip(toy_index)
        assert restored.item_to_sessions == toy_index.item_to_sessions
        assert restored.session_timestamps == toy_index.session_timestamps
        assert restored.session_items == toy_index.session_items
        assert restored.item_session_counts == toy_index.item_session_counts
        assert restored.max_sessions_per_item == toy_index.max_sessions_per_item

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(0, 100_000)
            ),
            min_size=1,
            max_size=60,
        ),
        m=st.integers(1, 12),
    )
    @settings(max_examples=40)
    def test_random_roundtrip(self, rows, m):
        index = SessionIndex.from_clicks(
            [Click(s, i, t) for s, i, t in rows], max_sessions_per_item=m
        )
        restored = index_roundtrip(index)
        assert restored.item_to_sessions == index.item_to_sessions
        assert restored.session_items == index.session_items

    def test_file_roundtrip(self, toy_index, tmp_path):
        path = tmp_path / "index.vmis"
        written = save_index(toy_index, path)
        assert path.stat().st_size == written
        restored = load_index(path)
        assert restored.item_to_sessions == toy_index.item_to_sessions


class TestCorruptionDetection:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_index(b"NOPE" + b"\x00" * 20)

    def test_flipped_byte_detected(self, toy_index):
        data = bytearray(serialize_index(toy_index))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="corrupted"):
            deserialize_index(bytes(data))

    def test_unsupported_version(self, toy_index):
        data = bytearray(serialize_index(toy_index))
        data[4:8] = struct.pack("<I", 99)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
        with pytest.raises(ValueError, match="version"):
            deserialize_index(bytes(data))

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            deserialize_index(b"")

    def test_truncation_at_every_length_raises_cleanly(self, toy_index):
        """A partial download must always raise ValueError — never
        deserialize into a silently incomplete index."""
        data = serialize_index(toy_index)
        for length in range(len(data)):
            with pytest.raises(ValueError):
                deserialize_index(data[:length])

    @given(position=st.integers(0, 10**9), bit=st.integers(0, 7))
    @settings(max_examples=60)
    def test_any_bit_flip_detected(self, toy_index, position, bit):
        data = bytearray(serialize_index(toy_index))
        data[position % len(data)] ^= 1 << bit
        with pytest.raises(ValueError):
            deserialize_index(bytes(data))

    def test_trailing_garbage_detected(self, toy_index):
        data = serialize_index(toy_index)
        with pytest.raises(ValueError):
            deserialize_index(data + b"\x00\x01\x02")

    def test_truncated_file_load_raises(self, toy_index, tmp_path):
        path = tmp_path / "partial.vmis"
        data = serialize_index(toy_index)
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_index(path)

    def test_queries_identical_after_roundtrip(self, small_log):
        from repro.core.vmis import VMISKNN

        index = SessionIndex.from_clicks(small_log, max_sessions_per_item=50)
        restored = index_roundtrip(index)
        original_model = VMISKNN(index, m=50, k=20)
        restored_model = VMISKNN(restored, m=50, k=20)
        for sequence in list(small_log.session_item_sequences().values())[:20]:
            prefix = sequence[: max(1, len(sequence) // 2)]
            assert original_model.recommend(prefix) == restored_model.recommend(
                prefix
            )


class TestWhatTheWriterRefuses:
    @pytest.mark.parametrize("stamp", [1.5, -5, 2**64], ids=["float", "negative", "2**64"])
    def test_timestamp_outside_u64_is_a_value_error(self, toy_index, stamp):
        """The container stores timestamps as u64: anything else used to
        end in ``struct.error``, which no caller expects. The error names
        the first value that does not fit."""
        stamps = list(toy_index.session_timestamps)
        stamps[1], stamps[-1] = stamp, -1
        index = SessionIndex(
            item_to_sessions=toy_index.item_to_sessions,
            session_timestamps=stamps,
            session_items=toy_index.session_items,
            item_session_counts=toy_index.item_session_counts,
            max_sessions_per_item=toy_index.max_sessions_per_item,
        )
        with pytest.raises(ValueError, match=f"timestamp {re.escape(repr(stamp))} "):
            serialize_index(index)


# ``save_index`` of ``small_log`` (m = 50): (length, SHA-256).
VMIS_BYTES = (
    15296,
    "61983d3c5aacb750547f22ebf8a197a384d6c052b8773ce60d9000c9033a2395",
)


class TestArtifactBytesDoNotMove:
    def test_save_index_writes_the_recorded_bytes(self, small_log, tmp_path):
        """And a pod's columnar index writes back the bytes it was loaded
        from."""
        index = SessionIndex.from_clicks(small_log, max_sessions_per_item=50)
        save_index(index, tmp_path / "index.vmis")
        data = (tmp_path / "index.vmis").read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == VMIS_BYTES
        loaded = load_columnar(tmp_path / "index.vmis")
        assert serialize_index(loaded.to_session_index()) == data


# Ids that need 1, 2, 3 and 9 varint bytes.
wide_ids = st.one_of(
    st.integers(0, 127),
    st.integers(128, 2**14 - 1),
    st.integers(2**14, 2**21 - 1),
    st.integers(2**56, 2**63 - 1),
)


@st.composite
def raw_indexes(draw) -> SessionIndex:
    """Any index the encoder accepts, consistent or not: the decoder must
    give back exactly what was written."""
    session_items = draw(
        st.lists(st.lists(wide_ids, max_size=5).map(tuple), min_size=1, max_size=6)
    )
    postings = draw(
        st.dictionaries(
            wide_ids,
            st.lists(wide_ids, unique=True, max_size=6).map(
                lambda ids: sorted(ids, reverse=True)
            ),
            max_size=6,
        )
    )
    return SessionIndex(
        item_to_sessions=postings,
        session_timestamps=draw(
            st.lists(
                st.integers(0, 2**64 - 1),
                min_size=len(session_items),
                max_size=len(session_items),
            )
        ),
        session_items=session_items,
        item_session_counts={item: draw(wide_ids) for item in postings},
        max_sessions_per_item=draw(st.integers(1, 500)),
    )


class TestArrayDecoderAgainstLoopDecoder:
    @given(index=raw_indexes())
    @settings(max_examples=150)
    def test_deserialize_equals_the_reference(self, index):
        data = serialize_index(index)
        assert deserialize_index(data) == reference_deserialize(data) == index

    def test_single_session_and_empty_posting_run(self):
        index = SessionIndex(
            item_to_sessions={3: [], 2**60: [0]},
            session_timestamps=[7],
            session_items=[(2**60,)],
            item_session_counts={3: 0, 2**60: 1},
            max_sessions_per_item=1,
        )
        data = serialize_index(index)
        assert deserialize_index(data) == reference_deserialize(data) == index

    def test_built_index_equals_the_reference(self, small_log):
        data = serialize_index(SessionIndex.from_clicks(small_log, 50))
        assert deserialize_index(data) == reference_deserialize(data)


class TestLoadColumnar:
    def test_equals_load_then_convert(self, small_log, tmp_path, assert_same_columnar):
        path = tmp_path / "index.vmis"
        save_index(SessionIndex.from_clicks(small_log, 50), path)
        assert_same_columnar(
            load_columnar(path),
            ColumnarSessionIndex.from_session_index(load_index(path)),
        )

    def test_vmic_magic_refused(self, toy_index, tmp_path):
        """The columnar container earlier versions wrote is not read: even
        behind a valid CRC its magic is a foreign one."""
        body = b"VMIC" + serialize_index(toy_index)[4:-4]
        path = tmp_path / "a.vmic"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(ValueError, match=r"not a VMIS index file \(bad magic\)"):
            load_columnar(path)

    def test_foreign_magic_rejected(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_bytes(b"hello, this is not an index")
        with pytest.raises(ValueError, match="magic"):
            load_columnar(path)

    def test_columnar_index_writes_back_to_vmis(
        self, small_log, tmp_path, assert_same_columnar
    ):
        """`to_session_index()` used to hand `serialize_index` float
        timestamps: struct.error, not an artifact."""
        columnar = ColumnarSessionIndex.from_clicks(small_log, 50)
        path = tmp_path / "back.vmis"
        save_index(columnar.to_session_index(), path)
        assert_same_columnar(load_columnar(path), columnar)
        assert path.read_bytes() == serialize_index(
            SessionIndex.from_clicks(small_log, 50)
        )


def sealed(body: bytes) -> bytes:
    """``body`` (everything before the CRC) with a CRC that passes."""
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


class TestStructuralCorruptionBehindAValidCrc:
    """The CRC catches accidents; a file whose CRC passes and whose records
    do not add up must still be a ValueError, never an IndexError."""

    # One session holding item 1, one item with one posting. After the
    # timestamp the payload is six one-byte varints:
    #   [1, 1]        session 0: one item, item 1
    #   [1, 1, 1, 0]  item 1: frequency 1, one posting, session 0
    SESSION_COUNT, POSTING_COUNT = -6, -2

    @pytest.fixture
    def body(self) -> bytearray:
        index = SessionIndex(
            item_to_sessions={1: [0]},
            session_timestamps=[5],
            session_items=[(1,)],
            item_session_counts={1: 1},
            max_sessions_per_item=1,
        )
        data = serialize_index(index)
        assert deserialize_index(data) == index
        return bytearray(data[:-4])

    def test_truncated_final_varint(self, body):
        body[-1] |= 0x80
        with pytest.raises(ValueError, match="truncated varint"):
            deserialize_index(sealed(bytes(body)))

    def test_session_count_overruns_the_payload(self, body):
        body[self.SESSION_COUNT] = 100
        with pytest.raises(ValueError, match="overruns"):
            deserialize_index(sealed(bytes(body)))

    def test_posting_count_overruns_the_payload(self, body):
        body[self.POSTING_COUNT] = 100
        with pytest.raises(ValueError, match="corrupted"):
            deserialize_index(sealed(bytes(body)))

    def test_trailing_bytes(self, body):
        with pytest.raises(ValueError, match="corrupted"):
            deserialize_index(sealed(bytes(body) + b"\x00"))

    def test_session_count_larger_than_the_file(self, body):
        header_len = struct.unpack("<I", body[8:12])[0]
        header = json.loads(body[12 : 12 + header_len])
        header["num_sessions"] = 10**6
        encoded = json.dumps(header).encode("utf-8")
        forged = (
            bytes(body[:8])
            + struct.pack("<I", len(encoded))
            + encoded
            + bytes(body[12 + header_len :])
        )
        with pytest.raises(ValueError, match="overrun"):
            deserialize_index(sealed(forged))
