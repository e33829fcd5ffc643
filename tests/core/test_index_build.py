"""The array build against the loop build.

``build_columns`` (sort the click columns, cut the posting runs) is what
``SessionIndex.from_clicks`` / ``from_sessions`` and
``ColumnarSessionIndex.from_clicks`` run. ``IndexBuilder`` keeps its own
per-click loops and shares no code with it, so it is the reference here.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.colindex import ColumnarSessionIndex
from repro.core.index import SessionIndex
from repro.core.types import Click, clicks_to_sessions
from repro.data.split import temporal_split
from repro.data.synthetic import generate_clickstream
from repro.index.builder import IndexBuilder
from repro.index.serialization import serialize_index

CAPS = st.sampled_from([1, 2, 500])


def click_logs(session_ids: st.SearchStrategy) -> st.SearchStrategy[list[Click]]:
    """Unsorted logs over few sessions, items and instants, so that tied
    timestamps (inside and across sessions) and repeated (session, item)
    clicks are the common case; the empty log and one click included."""
    return st.lists(
        st.builds(Click, session_ids, st.integers(0, 7), st.integers(0, 5)),
        max_size=60,
    )


LOGS = st.one_of(
    click_logs(st.integers(0, 9)),
    click_logs(st.sampled_from(["a", "b", "s0", "s1", "s10", "s2", "Z"])),
)


class TestAgainstIndexBuilder:
    @given(clicks=LOGS, m=CAPS)
    @settings(max_examples=200)
    def test_from_clicks(self, clicks, m):
        assert SessionIndex.from_clicks(clicks, m) == IndexBuilder(m).build(clicks)

    @given(clicks=LOGS, m=CAPS)
    @settings(max_examples=200)
    def test_from_sessions(self, clicks, m):
        sessions = {
            session_id: (events[-1][0], [item for _, item in events])
            for session_id, events in clicks_to_sessions(clicks).items()
        }
        assert SessionIndex.from_sessions(sessions, m) == IndexBuilder(m).build(
            clicks
        )

    @given(clicks=LOGS, m=CAPS)
    @settings(max_examples=200)
    def test_columnar_from_clicks(self, assert_same_columnar, clicks, m):
        assert_same_columnar(
            ColumnarSessionIndex.from_clicks(clicks, m),
            ColumnarSessionIndex.from_session_index(IndexBuilder(m).build(clicks)),
        )

    def test_one_click(self):
        index = SessionIndex.from_clicks([Click("s0", 7, 3)], 500)
        assert index == IndexBuilder(500).build([Click("s0", 7, 3)])
        assert index.session_items == [(7,)] and index.session_timestamps == [3]

    def test_empty_log(self):
        assert SessionIndex.from_clicks([], 2) == IndexBuilder(2).build([])
        assert ColumnarSessionIndex.from_clicks([], 2).num_sessions == 0

    def test_timestamps_stay_python_integers(self):
        index = SessionIndex.from_clicks([Click(0, 1, 2**60), Click(1, 1, 5)], 3)
        assert index.session_timestamps == [5, 2**60]
        assert all(type(t) is int for t in index.session_timestamps)


class TestFromSessionsKeepsItsInput:
    def test_given_timestamp_and_given_item_order(self):
        # Not the maximum of anything, and items not sorted by anything:
        # from_sessions takes both as given.
        index = SessionIndex.from_sessions(
            {"late": (9, [5, 3, 5, 4]), "early": (2, [4, 3]), "empty": (4, [])}, 2
        )
        assert index.session_timestamps == [2, 4, 9]
        assert index.session_items == [(4, 3), (), (5, 3, 4)]
        assert index.item_to_sessions == {3: [2, 0], 4: [2, 0], 5: [2]}
        assert index.item_session_counts == {3: 2, 4: 2, 5: 1}


class TestCapValidation:
    @pytest.mark.parametrize("m", [0, -1])
    def test_cap_below_one_rejected(self, toy_clicks, m):
        with pytest.raises(ValueError, match="max_sessions_per_item"):
            SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=m)
        with pytest.raises(ValueError, match="max_sessions_per_item"):
            SessionIndex.from_sessions({0: (1, [2])}, max_sessions_per_item=m)
        with pytest.raises(ValueError, match="max_sessions_per_item"):
            ColumnarSessionIndex.from_clicks(toy_clicks, max_sessions_per_item=m)


def test_ledger_artifact_digest():
    """The serve ledger's artifact for seed 5001, byte for byte (the
    dataset of ``benchmarks/serve/workloads.py``; EXPERIMENTS.md F3b)."""
    log = generate_clickstream(
        num_sessions=40_000, num_items=800, num_categories=120, days=14, seed=5001
    )
    train = temporal_split(log, test_days=1).train
    data = serialize_index(SessionIndex.from_clicks(train, 500))
    assert len(data) == 648_244
    assert hashlib.sha256(data).hexdigest() == (
        "19ed044f4616bbaac5cd592709b973190319509f3785f3ef22e4e40a4a136a2b"
    )
