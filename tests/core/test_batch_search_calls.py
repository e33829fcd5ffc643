"""What a batch call's neighbour search runs, counted.

``VMISKNNColumnar.recommend_batch`` searches the sessions of a call
together: their posting runs are gathered and pruned at once, and one
packed sort (``_window_and_inverse``) per piece of sessions finds every
session's retained sample. No session of a batch goes through
``_neighbor_arrays``, the single-query search, which would cost one
round of per-session Python and numpy overhead each. The guard is a
count of calls, which, unlike a timing, does not drift with the machine.
"""

from __future__ import annotations

import random
import sys

import numpy as np
import pytest

from repro.core import colindex
from repro.core.colindex import VMISKNNColumnar
from repro.core.types import Click
from repro.data.synthetic import generate_clickstream

SESSIONS = 64  # the serve ledger's sessions per /v1/recommend_batch call


@pytest.fixture(scope="module")
def model():
    """Posting runs saturated at m = 500, as on the serve ledger, so a
    64-session call crosses the piece bound several times."""
    log = generate_clickstream(num_sessions=10_000, num_items=1_000, days=10, seed=777)
    return VMISKNNColumnar.from_clicks(log, m=500, k=100, exclude_current_items=True)


@pytest.fixture(scope="module")
def sessions(model):
    index = model.index
    picked = []
    for sid in range(index.num_sessions - 1, -1, -1):
        items = list(index.items_of(sid))
        if len(items) >= 3:
            picked.append(items)
        if len(picked) == SESSIONS:
            return picked
    pytest.fail("not enough sessions of three items or more")


def bits(ranked_lists):
    return [
        [(scored.item_id, scored.score.hex()) for scored in ranked]
        for ranked in ranked_lists
    ]


def test_no_session_of_a_batch_is_searched_alone(model, sessions, monkeypatch):
    searched = []
    real = model._neighbor_arrays

    def counted(session_items):
        searched.append(session_items)
        return real(session_items)

    monkeypatch.setattr(model, "_neighbor_arrays", counted)
    fused = model.recommend_batch(sessions, how_many=21)
    assert len(searched) == 0  # one call per session before the fused search
    assert bits(fused) == bits(
        [model.recommend(items, how_many=21) for items in sessions]
    )
    assert len(searched) == SESSIONS  # recommend still searches alone


def test_one_packed_sort_per_search_piece(model, sessions, monkeypatch):
    pieces = []
    search_piece = model._search_piece

    def counted_piece(*args):
        pieces.append(args[2] - args[1])  # sessions in the piece
        return search_piece(*args)

    callers = []
    window_and_inverse = colindex._window_and_inverse

    def counted_window(keys, key_bound):
        callers.append(sys._getframe(1).f_code.co_name)
        return window_and_inverse(keys, key_bound)

    monkeypatch.setattr(model, "_search_piece", counted_piece)
    monkeypatch.setattr(colindex, "_window_and_inverse", counted_window)
    model.recommend_batch(sessions, how_many=21)
    assert sum(pieces) == SESSIONS
    assert len(pieces) > 1, "the call must cross the piece bound"
    assert callers.count("_search_piece") == len(pieces)
    # The rest are item scoring's windows, one per scoring piece.
    assert set(callers) == {"_search_piece", "_score_piece"}


class _SortSpy:
    """numpy as ``colindex`` sees it, keeping a copy of what it sorts."""

    def __init__(self):
        self.sorted = []

    def __getattr__(self, name):
        return getattr(np, name)

    def sort(self, values, *args, **kwargs):
        self.sorted.append(values.copy())
        return np.sort(values, *args, **kwargs)


def test_single_and_batch_searches_share_one_prune_floor(monkeypatch):
    """The floor is the largest m-th id of the runs of m ids or more, in
    both searches: on an index whose runs are all exactly m long (every
    run capped, as on the serve ledger), ``_neighbor_arrays`` sorts the
    candidates the batch search keeps for the same session."""
    m = 20
    rng = random.Random(5)
    clicks = [
        Click(session, item, session * 10 + position)
        for session in range(300)
        for position, item in enumerate(rng.sample(range(6), 3))
    ]
    model = VMISKNNColumnar.from_clicks(clicks, m=m, k=10)
    index = model.index
    assert set(np.diff(index.posting_offsets).tolist()) == {m}
    sessions = [[0, 1, 2], [3, 4], [5, 0, 3, 1]]

    kept_by_session = {}
    search_piece = model._search_piece

    def counted_piece(sessions_, first, last, starts, kept, weights, owners):
        for number in range(first, last):
            runs = np.flatnonzero(owners == number)
            kept_by_session[number] = np.concatenate(
                [
                    index.posting_sessions_asc[starts[run] : starts[run] + kept[run]]
                    for run in runs
                ]
            )
        return search_piece(sessions_, first, last, starts, kept, weights, owners)

    monkeypatch.setattr(model, "_search_piece", counted_piece)
    model.recommend_batch(sessions)
    spy = _SortSpy()
    monkeypatch.setattr(colindex, "np", spy)
    for number, items in enumerate(sessions):
        model.find_neighbors(items)
        assert len(spy.sorted) == number + 1
        assert spy.sorted[-1].tolist() == kept_by_session[number].tolist()
        # The floor prunes: fewer than the m-id heads of every run.
        assert spy.sorted[-1].shape[0] < m * len(items)
