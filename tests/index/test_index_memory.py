"""What a pod holds of its index, what loading it costs, and what a
batch call adds.

A pod keeps its whole index in memory, so the bytes it holds per index
decide how many pods fit on a machine. The columnar index holds eight
buffers: the six the scorer reads, plus ``item_frequencies`` and
``session_timestamps``, without which it could not be written back. A
ninth buffer would be a copy that no request reads.

Loading the artifact must stay within its bytes plus 2.5 times the kept
bytes at its tracemalloc peak. The decoder reaches about 1.9 times on
the artifact below; one extra full copy of the buffers kept alive on the
way, or a varint payload decoded through whole-payload temporaries, goes
past the bound.

A 64-session ``recommend_batch`` on the same index must stay within 1.5
times the tracemalloc peak it had while neighbour search ran once per
session: the fused search holds one piece of sessions' temporaries at
a time, and a search of the whole call in one piece goes past the bound.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.data.synthetic import generate_clickstream
from repro.index.serialization import load_columnar, save_index

KEPT = (
    "item_ids",
    "item_frequencies",
    "posting_offsets",
    "posting_sessions_asc",
    "session_timestamps",
    "session_item_offsets",
    "session_item_rows",
    "idf_values",
)

#: Peak of a load, over the artifact's own bytes, in kept bytes.
PEAK_BOUND = 2.5


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One generated index. Large enough (10 000 sessions, 0.75 MB of
    kept buffers) that fixed costs, such as one varint piece, do not
    decide the ratio."""
    log = generate_clickstream(num_sessions=10_000, num_items=1_000, days=10, seed=777)
    index = SessionIndex.from_clicks(log, max_sessions_per_item=500)
    root = tmp_path_factory.mktemp("memory")
    save_index(index, root / "index.vmis")
    return root


def kept_bytes(index: ColumnarSessionIndex) -> int:
    return sum(getattr(index, name).nbytes for name in KEPT)


def test_the_index_holds_the_eight_buffers():
    assert len(ColumnarSessionIndex.__frozen_buffers__) == len(KEPT)
    assert set(ColumnarSessionIndex.__frozen_buffers__) == set(KEPT)


@pytest.mark.parametrize("container", ["vmis"])
def test_load_peak_is_bounded(artifacts, container):
    path = artifacts / f"index.{container}"
    load_columnar(path)  # first-use imports and caches are not the load
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        index = load_columnar(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    artifact = path.stat().st_size
    kept = kept_bytes(index)
    assert peak <= artifact + PEAK_BOUND * kept, (
        f"peak {peak} bytes = artifact {artifact} + "
        f"{(peak - artifact) / kept:.2f} x kept {kept}"
    )


@pytest.mark.parametrize("container", ["vmis"])
def test_loaded_buffers_own_their_memory(artifacts, container):
    """No kept buffer is a view of the file's bytes (it would keep the
    whole file alive), and the stored posting runs are a view, not a
    buffer."""
    index = load_columnar(artifacts / f"index.{container}")
    for name in KEPT:
        buffer = getattr(index, name)
        owner = buffer if buffer.base is None else buffer.base
        assert isinstance(owner, np.ndarray), name
        assert not buffer.flags.writeable, name
    assert np.shares_memory(index.posting_sessions, index.posting_sessions_asc)
    assert not hasattr(index, "posting_timestamps")
    assert not hasattr(index, "session_item_values")


def columns(**overrides):
    base = dict(
        item_ids=np.array([1, 2]),
        item_frequencies=np.array([2, 1]),
        posting_offsets=np.array([0, 2, 3]),
        posting_sessions=np.array([1, 0, 1]),
        session_timestamps=np.array([100.0, 200.0]),
        session_item_offsets=np.array([0, 1, 3]),
        session_item_values=np.array([1, 1, 2]),
        max_sessions_per_item=10,
    )
    base.update(overrides)
    return base


def test_a_writable_input_is_copied():
    given = columns()
    index = ColumnarSessionIndex(**given)
    for name in ("item_ids", "item_frequencies", "posting_offsets",
                 "session_timestamps", "session_item_offsets"):
        assert not np.shares_memory(getattr(index, name), given[name]), name
    assert not np.shares_memory(index.posting_sessions_asc, given["posting_sessions"])
    given["item_ids"][0] = 7
    given["posting_sessions"][0] = 0
    assert index.item_ids.tolist() == [1, 2]
    assert index.sessions_for_item(1) == [1, 0]


def test_a_frozen_input_is_kept_as_it_is():
    given = columns()
    mirror = given["posting_sessions"][::-1].copy()
    for name in ("item_ids", "item_frequencies", "posting_offsets",
                 "session_timestamps", "session_item_offsets"):
        given[name].setflags(write=False)
    mirror.setflags(write=False)
    given["posting_sessions"] = mirror[::-1]
    index = ColumnarSessionIndex(**given)
    for name in ("item_ids", "item_frequencies", "posting_offsets",
                 "session_timestamps", "session_item_offsets"):
        assert np.shares_memory(getattr(index, name), given[name]), name
    assert np.shares_memory(index.posting_sessions_asc, mirror)


def test_a_read_only_view_of_writable_memory_is_copied():
    given = columns()
    owner = given["item_ids"]
    view = owner.view()
    view.setflags(write=False)
    index = ColumnarSessionIndex(**columns(item_ids=view))
    assert not np.shares_memory(index.item_ids, owner)


#: tracemalloc peak of one 64-session ``recommend_batch`` on the artifact
#: above (m = 500, k = 100): 684 138 bytes measured while neighbour search
#: ran one ``_neighbor_arrays`` per session. The fused search holds the
#: temporaries of one piece of sessions at a time and reads 763 979 bytes;
#: searched in one piece, the same call reads 1 666 262 bytes and fails.
BATCH_PEAK_BYTES = int(1.5 * 684_138)


def test_batch_call_peak_is_bounded(artifacts):
    index = load_columnar(artifacts / "index.vmis")
    model = VMISKNNColumnar(index, m=500, k=100, exclude_current_items=True)
    sessions = []
    for sid in range(index.num_sessions - 1, -1, -1):
        items = list(index.items_of(sid))
        if len(items) >= 3:
            sessions.append(items)
        if len(sessions) == 64:
            break
    model.recommend_batch(sessions)  # first-use imports and caches
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        model.recommend_batch(sessions)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= BATCH_PEAK_BYTES, f"peak {peak} bytes"
