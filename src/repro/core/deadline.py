"""Monotonic deadline budgets for SLA enforcement.

Serenade promises its callers an answer within 50 ms (§4.2; the observed
p90 is below 7 ms). A :class:`Deadline` captures that promise for one
request: it is created when the request enters the system and every stage
that does work on the request's behalf asks it how much budget is left.
Deadlines are based on a monotonic clock (never wall time, which can jump
under NTP corrections) and the clock is injectable for tests.

Whether the promise held is read off latency samples with
:func:`percentile`, the one nearest-rank rule every simulator, probe and
rollout gate here uses.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

Clock = Callable[[], float]

DEFAULT_BUDGET_SECONDS = 0.050  # the paper's 50 ms SLA


class Deadline:
    """A per-request time budget on a monotonic clock.

    Usage::

        deadline = Deadline.after_ms(50)
        ...
        if deadline.expired:
            serve_fallback()
        else:
            work_with_timeout(deadline.remaining())
    """

    __slots__ = ("_clock", "started", "_expires")

    def __init__(
        self,
        budget_seconds: float = DEFAULT_BUDGET_SECONDS,
        clock: Clock = time.monotonic,
    ) -> None:
        if budget_seconds < 0:
            raise ValueError(f"budget must be >= 0, got {budget_seconds}")
        self._clock = clock
        #: the clock reading the budget runs from: also when the request
        #: it guards started, so no caller reads the clock for that again.
        self.started = clock()
        self._expires = self.started + budget_seconds

    @classmethod
    def after_ms(cls, budget_ms: float, clock: Clock = time.monotonic) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        return cls(budget_ms / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds of budget left; never negative."""
        return max(0.0, self._expires - self._clock())

    def elapsed(self) -> float:
        """Seconds since the deadline was created."""
        return self._clock() - self.started

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires

    @property
    def budget_seconds(self) -> float:
        return self._expires - self.started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(budget={self.budget_seconds * 1e3:.1f}ms, "
            f"remaining={self.remaining() * 1e3:.1f}ms)"
        )


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (any order), q in [0, 100]."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]
