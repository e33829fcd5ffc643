"""Tests for the ``VMIC`` columnar container and artifact dispatch.

Mirrors the ``VMIS`` corruption suite in ``test_serialization.py``: the
columnar buffers ship through the same hardened envelope (magic, u32
version, length-prefixed JSON header, trailing CRC32), so truncation and
bit flips must surface as ``ValueError`` — never as a silently wrong
index — and the lifecycle registry must version either layout.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.vmis import VMISKNN
from repro.index.lifecycle.registry import IndexRegistry
from repro.index.serialization import (
    deserialize_artifact,
    deserialize_columnar,
    load_artifact,
    load_columnar,
    save_artifact,
    save_index,
    serialize_artifact,
    serialize_columnar,
)

# What the index holds, and the stored posting runs it derives.
BUFFER_NAMES = ColumnarSessionIndex.__frozen_buffers__ + ("posting_sessions",)


@pytest.fixture(scope="module")
def columnar_index(toy_clicks) -> ColumnarSessionIndex:
    return ColumnarSessionIndex.from_clicks(toy_clicks, max_sessions_per_item=10)


def columnar_roundtrip(index: ColumnarSessionIndex) -> ColumnarSessionIndex:
    return deserialize_columnar(serialize_columnar(index))


class TestColumnarRoundtrip:
    def test_every_buffer_survives(self, columnar_index):
        restored = columnar_roundtrip(columnar_index)
        for name in BUFFER_NAMES:
            assert np.array_equal(
                getattr(restored, name), getattr(columnar_index, name)
            ), f"buffer {name} drifted through the roundtrip"
        assert (
            restored.max_sessions_per_item
            == columnar_index.max_sessions_per_item
        )

    def test_float_timestamps_survive_exactly(self, toy_clicks):
        # The legacy VMIS container packs timestamps as u64; the VMIC
        # container stores raw float64, so fractional seconds roundtrip.
        index = SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=10)
        index = SessionIndex(
            item_to_sessions=index.item_to_sessions,
            session_timestamps=[t + 0.25 for t in index.session_timestamps],
            session_items=index.session_items,
            item_session_counts=index.item_session_counts,
            max_sessions_per_item=index.max_sessions_per_item,
        )
        columnar = ColumnarSessionIndex.from_session_index(index)
        restored = columnar_roundtrip(columnar)
        assert np.array_equal(
            restored.session_timestamps, columnar.session_timestamps
        )

    def test_file_roundtrip_via_artifact_api(self, columnar_index, tmp_path):
        path = tmp_path / "index.vmic"
        written = save_artifact(columnar_index, path)
        assert path.stat().st_size == written
        restored = load_artifact(path)
        assert isinstance(restored, ColumnarSessionIndex)
        assert np.array_equal(
            restored.posting_sessions, columnar_index.posting_sessions
        )

    def test_queries_identical_after_roundtrip(self, small_log):
        index = SessionIndex.from_clicks(small_log, max_sessions_per_item=50)
        columnar = ColumnarSessionIndex.from_session_index(index)
        restored = columnar_roundtrip(columnar)
        heap = VMISKNN(index, m=50, k=20)
        model = VMISKNNColumnar(restored, m=50, k=20)
        for sequence in list(small_log.session_item_sequences().values())[:20]:
            prefix = sequence[: max(1, len(sequence) // 2)]
            assert model.recommend(prefix) == heap.recommend(prefix)


# Both containers of ``small_log`` (m = 50), recorded while the columnar
# index still held the descending posting runs and every session's item
# ids as buffers of their own: (length, SHA-256).
VMIS_BYTES = (
    15296,
    "61983d3c5aacb750547f22ebf8a197a384d6c052b8773ce60d9000c9033a2395",
)
VMIC_BYTES = (
    58547,
    "ff9de7658b558eb234a7c6e05899f7f25dbc8672fcc8696f3138796b00db1ce8",
)


def fingerprint(data: bytes) -> tuple[int, str]:
    return len(data), hashlib.sha256(data).hexdigest()


class TestArtifactBytesDoNotMove:
    """What the index holds changed; what it writes must not."""

    def test_both_containers_write_the_recorded_bytes(self, small_log, tmp_path):
        index = SessionIndex.from_clicks(small_log, max_sessions_per_item=50)
        save_index(index, tmp_path / "index.vmis")
        assert fingerprint((tmp_path / "index.vmis").read_bytes()) == VMIS_BYTES
        vmic = serialize_columnar(ColumnarSessionIndex.from_session_index(index))
        assert fingerprint(vmic) == VMIC_BYTES

    def test_a_loaded_index_writes_the_bytes_it_was_loaded_from(
        self, small_log, tmp_path
    ):
        index = SessionIndex.from_clicks(small_log, max_sessions_per_item=50)
        save_index(index, tmp_path / "index.vmis")
        vmic = serialize_columnar(load_columnar(tmp_path / "index.vmis"))
        assert fingerprint(vmic) == VMIC_BYTES
        assert serialize_columnar(deserialize_columnar(vmic)) == vmic


class TestArtifactDispatch:
    def test_dispatch_on_type_and_magic(self, toy_index, columnar_index):
        legacy = serialize_artifact(toy_index)
        columnar = serialize_artifact(columnar_index)
        assert legacy[:4] == b"VMIS"
        assert columnar[:4] == b"VMIC"
        assert isinstance(deserialize_artifact(legacy), SessionIndex)
        assert isinstance(
            deserialize_artifact(columnar), ColumnarSessionIndex
        )


class TestColumnarCorruptionDetection:
    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_columnar(b"NOPE" + b"\x00" * 20)

    def test_legacy_magic_rejected_by_columnar_parser(self, toy_index):
        from repro.index.serialization import serialize_index

        with pytest.raises(ValueError, match="magic"):
            deserialize_columnar(serialize_index(toy_index))

    def test_flipped_byte_detected(self, columnar_index):
        data = bytearray(serialize_columnar(columnar_index))
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(ValueError, match="corrupted"):
            deserialize_columnar(bytes(data))

    def test_unsupported_version(self, columnar_index):
        data = bytearray(serialize_columnar(columnar_index))
        data[4:8] = struct.pack("<I", 99)
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])) & 0xFFFFFFFF)
        with pytest.raises(ValueError, match="version"):
            deserialize_columnar(bytes(data))

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            deserialize_columnar(b"")

    def test_truncation_at_every_length_raises_cleanly(self, columnar_index):
        """A partial download must always raise ValueError — never
        deserialize into a silently incomplete index."""
        data = serialize_columnar(columnar_index)
        for length in range(len(data)):
            with pytest.raises(ValueError):
                deserialize_columnar(data[:length])

    @given(position=st.integers(0, 10**9), bit=st.integers(0, 7))
    @settings(max_examples=60)
    def test_any_bit_flip_detected(self, columnar_index, position, bit):
        data = bytearray(serialize_columnar(columnar_index))
        data[position % len(data)] ^= 1 << bit
        with pytest.raises(ValueError):
            deserialize_columnar(bytes(data))

    def test_trailing_garbage_detected(self, columnar_index):
        data = serialize_columnar(columnar_index)
        with pytest.raises(ValueError):
            deserialize_columnar(data + b"\x00\x01\x02")

    def test_trailing_bytes_behind_a_valid_crc(self, columnar_index):
        """Bytes after the last buffer are refused even when the CRC was
        recomputed over them, as the ``VMIS`` decoder refuses records that
        end before its payload does."""
        body = serialize_columnar(columnar_index)[:-4] + bytes(16)
        sealed = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(ValueError, match="after the last buffer"):
            deserialize_columnar(sealed)


class TestRegistryPromotion:
    def test_columnar_artifact_promotes_and_loads(
        self, columnar_index, tmp_path
    ):
        registry = IndexRegistry(tmp_path / "registry")
        manifest = registry.register(columnar_index)
        assert manifest.num_sessions == columnar_index.num_sessions
        registry.promote(manifest.version)
        loaded, version = registry.load_current()
        assert version == manifest.version
        assert isinstance(loaded, ColumnarSessionIndex)
        assert np.array_equal(
            loaded.posting_sessions, columnar_index.posting_sessions
        )

    def test_mixed_layouts_coexist_and_fall_back(
        self, toy_index, columnar_index, tmp_path
    ):
        """A corrupt columnar CURRENT falls back to the legacy version."""
        registry = IndexRegistry(tmp_path / "registry")
        legacy = registry.register(toy_index)
        columnar = registry.register(columnar_index)
        registry.promote(columnar.version)
        artifact = (
            registry.root / columnar.version / "index.vmis"
        )
        data = bytearray(artifact.read_bytes())
        data[len(data) // 2] ^= 0xFF
        artifact.write_bytes(bytes(data))

        loaded, version = registry.load_current()
        assert version == legacy.version
        assert isinstance(loaded, SessionIndex)
        assert registry.last_fallbacks == [columnar.version]
