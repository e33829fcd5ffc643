"""Shared fixtures: deterministic click data at several scales."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.colindex import ColumnarSessionIndex
from repro.core.index import SessionIndex
from repro.core.types import Click
from repro.data.clicklog import ClickLog
from repro.data.synthetic import generate_clickstream
from repro.testing.strategies import install_profiles

# Pin Hypothesis behaviour suite-wide; CI selects a derandomised profile
# via HYPOTHESIS_PROFILE (see repro.testing.strategies).
install_profiles()


@pytest.fixture(scope="session")
def toy_clicks() -> list[Click]:
    """Six tiny sessions with known overlaps, timestamps 1 second apart.

    Sessions (by item): 0:[1,2], 1:[2,3], 2:[1,2,4], 3:[3,4], 4:[1,5],
    5:[2,4,5]. Useful for hand-checkable assertions.
    """
    rows = [
        (0, 1, 100),
        (0, 2, 101),
        (1, 2, 200),
        (1, 3, 201),
        (2, 1, 300),
        (2, 2, 301),
        (2, 4, 302),
        (3, 3, 400),
        (3, 4, 401),
        (4, 1, 500),
        (4, 5, 501),
        (5, 2, 600),
        (5, 4, 601),
        (5, 5, 602),
    ]
    return [Click(s, i, t) for s, i, t in rows]


@pytest.fixture(scope="session")
def toy_index(toy_clicks) -> SessionIndex:
    return SessionIndex.from_clicks(toy_clicks, max_sessions_per_item=10)


@pytest.fixture(scope="session")
def small_log() -> ClickLog:
    """~800 synthetic sessions over 8 days; fast to build, non-trivial."""
    return generate_clickstream(
        num_sessions=800, num_items=300, days=8, seed=1234
    )


@pytest.fixture(scope="session")
def medium_log() -> ClickLog:
    """~4000 synthetic sessions for integration-level tests."""
    return generate_clickstream(
        num_sessions=4000, num_items=800, days=10, seed=777
    )


def _assert_same_columnar(
    left: ColumnarSessionIndex, right: ColumnarSessionIndex
) -> None:
    for name in ColumnarSessionIndex.__frozen_buffers__:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert left._item_row == right._item_row
    assert left.max_sessions_per_item == right.max_sessions_per_item


@pytest.fixture(scope="session")
def assert_same_columnar():
    """Two columnar indexes equal in every frozen buffer, dtype included."""
    return _assert_same_columnar
