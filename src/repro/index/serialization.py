"""On-disk index format (the Avro-artifact substitute).

The paper's Spark job writes the index as compressed Avro files which the
serving component ingests at startup. We use a self-contained binary
container with the same roles — versioned, schema'd, checksummed:

* magic ``VMIS`` + format version (u32 LE);
* a JSON header (counts, the build-time ``m``) with a u32 length prefix;
* the ``t`` timestamp array as u64 LE;
* per-session item tuples, varint-encoded;
* per-item posting lists, varint-encoded with the item's true session
  frequency ``h_i`` (needed for idf, which truncation would otherwise bias);
* a trailing CRC32 over everything before it.

Varints use the LEB128 scheme; posting lists are *descending*, so they are
stored as first value + positive deltas, which keeps varints short and is
the usual inverted-index trick.

:func:`_decode_index` is the one ``VMIS`` decoder. It decodes the payload
per varint with array operations, a piece at a time into one array
(:func:`_decode_varints`), walks only the record structure in Python,
cuts each section out of the decoded array once, rebuilds all posting
runs in place with one cumulative sum, and returns flat arrays
(:class:`~repro.core.index.IndexColumns`). :func:`deserialize_index` /
:func:`load_index` unpack those arrays into a :class:`SessionIndex`;
:func:`load_columnar` gives them to :class:`ColumnarSessionIndex` as
they are, so a pod that serves the columnar layout never builds the
row-oriented index on the way. Values are ``int64``: a varint wider than
63 bits is refused.

``VMIS`` is the only container: a file with any other magic, the
columnar container earlier versions wrote included, is refused as bad
magic. The decoder hands the buffers it makes over
read-only, which the columnar constructor keeps without a second copy:
loading peaks at the artifact's bytes plus about twice the bytes the
index holds.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from repro.core.colindex import ColumnarSessionIndex
from repro.core.index import IndexColumns, SessionIndex, run_offsets

MAGIC = b"VMIS"
FORMAT_VERSION = 1


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_piece(raw: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Decode the varints of ``raw``, which ends where a varint ends.

    The work is per varint, not per byte: the bytes below ``0x80`` are the
    ends, every value starts from its first byte, and one pass per further
    byte position ORs that position in for the varints long enough to have
    it. Nine bytes (63 bits) is the widest value an ``int64`` id can need.
    """
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    extra_bytes = ends - starts
    widest = int(extra_bytes.max(initial=0))
    if widest > 8:
        raise ValueError("index file corrupted: varint wider than 63 bits")
    values = (raw[starts] & 0x7F).astype(np.int64)
    for position in range(1, widest + 1):
        wide = np.flatnonzero(extra_bytes >= position)
        values[wide] |= (raw[starts[wide] + position] & 0x7F).astype(np.int64) << (
            7 * position
        )
    return values


#: Payload bytes decoded at a time. A piece's temporaries take about 40
#: bytes per varint (ends, starts, widths, values); decoded whole, they
#: were four times the decoded array on top of it. ``load_columnar`` of
#: the serve ledger's artifact (seed 2022: 656 KB, 231 000 varints; 2-core
#: VM, CPython 3.11, numpy 2.4), tracemalloc peak and best-of-15
#: ``_decode_index`` time by piece: 4 KiB 4.7 MB / 12.3 ms, 16 KiB
#: 4.7 MB / 8.4 ms, 64 KiB 4.9 MB / 8.4 ms, 256 KiB 10.2 MB / 10.4 ms,
#: the whole payload at once 11.2 MB / 12.0 ms.
_VARINT_PIECE = 1 << 14


def _decode_varints(raw: np.ndarray) -> np.ndarray:
    """Decode back-to-back LEB128 varints (a ``uint8`` array) to ``int64``.

    One pass counts the varints, so the result is allocated once; then
    pieces of about :data:`_VARINT_PIECE` bytes, each cut where a varint
    ends, are decoded into it one after the other.
    """
    total = raw.shape[0]
    if total and raw[-1] >= 0x80:
        raise ValueError("index file corrupted: truncated varint")
    count = sum(
        int(np.count_nonzero(raw[start : start + _VARINT_PIECE] < 0x80))
        for start in range(0, total, _VARINT_PIECE)
    )
    values = np.empty(count, dtype=np.int64)
    start = written = 0
    while start < total:
        piece = raw[start : start + _VARINT_PIECE]
        ends = np.flatnonzero(piece < 0x80)
        if ends.shape[0] == 0:  # one varint longer than a whole piece
            raise ValueError("index file corrupted: varint wider than 63 bits")
        decoded = _decode_piece(piece[: ends[-1] + 1], ends)
        values[written : written + decoded.shape[0]] = decoded
        written += decoded.shape[0]
        start += int(ends[-1]) + 1
    return values


def _encode_descending(values: list[int]) -> bytearray:
    """Delta-encode a strictly descending int list as varints."""
    out = bytearray()
    _write_varint(out, len(values))
    previous = None
    for value in values:
        if previous is None:
            _write_varint(out, value)
        else:
            delta = previous - value
            if delta <= 0:
                raise ValueError("posting list must be strictly descending")
            _write_varint(out, delta)
        previous = value
    return out


def _rebuild_descending(payload: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Undo :func:`_encode_descending` for back-to-back runs, in place.

    ``payload`` holds, run after run, a first value and then the positive
    deltas down from it; ``counts`` is the length of every run. With the
    deltas negated and every first value lowered by where the run before
    it ends, one cumulative sum over the payload rebuilds every run. Only
    arrays of one entry per run are made, so ``payload`` may be a view:
    the decoder passes the reversed view of the buffer the index keeps.
    Returns ``payload``.
    """
    if payload.shape[0] == 0:
        return payload
    starts = run_offsets(counts)[:-1][counts > 0]
    firsts = payload[starts]
    payload[starts] = 0
    np.negative(payload, out=payload)
    lasts = firsts + np.add.reduceat(payload, starts)
    payload[starts] = firsts
    payload[starts[1:]] -= lasts[:-1]
    np.cumsum(payload, out=payload)
    return payload


def _handed_over(*buffers: np.ndarray) -> None:
    """Freeze buffers a decoder made, so that the index keeps them as they
    are (see ``ColumnarSessionIndex``) instead of copying them."""
    for buffer in buffers:
        buffer.setflags(write=False)


def serialize_index(index: SessionIndex) -> bytes:
    """Serialize an index to the binary container format.

    Raises ``ValueError`` for a value the container cannot hold: a
    timestamp that is not an integer in [0, 2**64), a negative id.
    """
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)

    header = json.dumps(
        {
            "num_sessions": index.num_sessions,
            "num_items": index.num_items,
            "max_sessions_per_item": index.max_sessions_per_item,
        }
    ).encode("utf-8")
    out += struct.pack("<I", len(header))
    out += header

    try:
        out += struct.pack(f"<{index.num_sessions}Q", *index.session_timestamps)
    except struct.error:
        for stamp in index.session_timestamps:
            if not isinstance(stamp, (int, np.integer)) or not 0 <= stamp < 1 << 64:
                raise ValueError(
                    f"timestamp {stamp!r} is not an integer in [0, 2**64)"
                ) from None
        raise

    for items in index.session_items:
        _write_varint(out, len(items))
        for item in items:
            _write_varint(out, item)

    for item, postings in sorted(index.item_to_sessions.items()):
        _write_varint(out, item)
        _write_varint(out, index.item_session_counts[item])
        out += _encode_descending(postings)

    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


def _decode_index(data: bytes) -> IndexColumns:
    """The one ``VMIS`` decoder: container bytes to flat index arrays.

    :func:`deserialize_index` unpacks the arrays into a
    :class:`SessionIndex`; :func:`load_columnar` hands them to
    :class:`ColumnarSessionIndex` as they are. Magic, CRC and version are
    checked before anything is decoded, and only the record structure (a
    count per session, three header values per item) is walked in Python.
    """
    if len(data) < 12 or data[:4] != MAGIC:
        raise ValueError("not a VMIS index file (bad magic)")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    actual_crc = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise ValueError(
            f"index file corrupted: crc {actual_crc:#x} != stored {stored_crc:#x}"
        )
    version = struct.unpack("<I", data[4:8])[0]
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {version}")

    header_len = struct.unpack("<I", data[8:12])[0]
    offset = 12 + header_len
    header = json.loads(data[12:offset].decode("utf-8"))
    num_sessions = header["num_sessions"]
    num_items = header["num_items"]

    payload_start = offset + 8 * num_sessions
    payload_end = len(data) - 4
    if num_sessions < 0 or payload_start > payload_end:
        raise ValueError("index file corrupted: timestamps overrun the payload")
    timestamps = np.frombuffer(data, dtype="<u8", count=num_sessions, offset=offset)
    values = _decode_varints(
        np.frombuffer(
            data, dtype=np.uint8, count=payload_end - payload_start, offset=payload_start
        )
    )

    session_counts: list[int] = []
    item_heads: list[int] = []
    position = 0
    try:
        for _ in range(num_sessions):
            count = values.item(position)
            session_counts.append(count)
            position += 1 + count
        items_start = position
        for _ in range(num_items):
            item_heads.append(position)
            position += 3 + values.item(position + 2)
    except IndexError:
        raise ValueError(
            "index file corrupted: a record overruns the payload"
        ) from None
    if position != values.shape[0]:
        raise ValueError(
            "index file corrupted: records end at varint "
            f"{position} of {values.shape[0]}"
        )

    # Everything that is not a count or an item header is payload. Each
    # section is cut out of ``values`` once, into the array that is kept.
    session_item_offsets = run_offsets(np.asarray(session_counts, dtype=np.int64))
    del session_counts
    is_payload = np.ones(items_start, dtype=bool)
    is_payload[session_item_offsets[:-1] + np.arange(num_sessions)] = False
    session_item_values = values[:items_start][is_payload]
    heads = np.asarray(item_heads, dtype=np.int64)
    del item_heads
    posting_counts = values[heads + 2]
    is_payload = np.ones(values.shape[0] - items_start, dtype=bool)
    for field in range(3):
        is_payload[heads - items_start + field] = False
    # The posting payload is taken last varint first: the buffer the
    # columnar index keeps is the ascending mirror of the stored runs,
    # which the rebuild fills through its reversed view.
    mirror = values[items_start:][::-1][is_payload[::-1]]
    item_ids, item_frequencies = values[heads], values[heads + 1]
    del values, is_payload
    posting_offsets = run_offsets(posting_counts)
    _rebuild_descending(mirror[::-1], posting_counts)
    _handed_over(
        item_ids, item_frequencies, posting_offsets, mirror, session_item_offsets
    )
    return IndexColumns(
        item_ids=item_ids,
        item_frequencies=item_frequencies,
        posting_offsets=posting_offsets,
        posting_sessions=mirror[::-1],
        session_timestamps=timestamps,
        session_item_offsets=session_item_offsets,
        session_item_values=session_item_values,
        max_sessions_per_item=header["max_sessions_per_item"],
    )


def deserialize_index(data: bytes) -> SessionIndex:
    """Parse the binary container back into a :class:`SessionIndex`."""
    return SessionIndex.from_columns(_decode_index(data))


def save_index(index: SessionIndex, path: str | Path) -> int:
    """Write an index artifact; returns the number of bytes written."""
    data = serialize_index(index)
    Path(path).write_bytes(data)
    return len(data)


def load_index(path: str | Path) -> SessionIndex:
    """Load an index artifact written by :func:`save_index`."""
    return deserialize_index(Path(path).read_bytes())


def load_columnar(path: str | Path) -> ColumnarSessionIndex:
    """Load an artifact as the columnar index a pod serves from.

    The artifact is decoded straight into the columnar buffers; the
    row-oriented :class:`SessionIndex` is never built.
    """
    return ColumnarSessionIndex(**_decode_index(Path(path).read_bytes())._asdict())
