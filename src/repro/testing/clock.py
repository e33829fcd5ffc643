"""A virtual monotonic clock for deterministic time-dependent tests.

Every time-dependent component of the serving stack takes an injectable
``Clock`` (a zero-argument callable returning seconds):
:class:`~repro.core.deadline.Deadline`,
:class:`~repro.serving.resilience.CircuitBreaker`,
:class:`~repro.serving.resilience.AdmissionController`, the session-store
TTLs, the per-pod service-time measurement (a cluster's one ``clock``) and the
rollout controller's ``sleep``. Injecting one shared
:class:`VirtualClock` makes all of them advance only when the test says
so: a "200 ms stall" is ``clock.advance(0.2)`` inside a fake recommender,
a breaker cool-down elapses with ``clock.advance(policy.probe_seconds)``,
and the whole scenario replays bit-identically on every run and machine.

The clock is intentionally *not* an event loop — components never block
on it. ``sleep`` simply advances time (matching how
:class:`~repro.index.lifecycle.rollout.RolloutController` uses its
injected ``sleep``), and scheduled callbacks fire synchronously during
``advance`` in timestamp order, which is enough to model "the pod dies
40 s into the run" style events.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable

from repro.core.locking import guarded_by

__all__ = ["VirtualClock"]


@guarded_by("_lock", "_now", "_scheduled")
class VirtualClock:
    """A controllable monotonic clock; callable like ``time.monotonic``.

    Reads are thread-safe (guardrail components may read from worker
    threads), but advancing the clock is meant to happen from the test
    thread only — deterministic simulation is single-threaded by design.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()
        # (fire_at, seq, callback): seq keeps firing order stable for
        # callbacks scheduled at the same instant.
        self._scheduled: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    @property
    def now(self) -> float:
        return self()

    def advance(self, seconds: float) -> float:
        """Move time forward, firing due scheduled callbacks in order."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}; time is monotonic")
        return self.advance_to(self() + seconds)

    def advance_to(self, timestamp: float) -> float:
        """Advance to an absolute time (no-op if already past it)."""
        while True:
            with self._lock:
                if timestamp <= self._now:
                    return self._now
                due = [
                    entry
                    for entry in self._scheduled
                    if entry[0] <= timestamp
                ]
                if not due:
                    self._now = timestamp
                    return self._now
                entry = min(due)
                self._scheduled.remove(entry)
                # Time lands exactly on the event before it fires, so the
                # callback observes the instant it was scheduled for.
                self._now = max(self._now, entry[0])
            entry[2]()

    def sleep(self, seconds: float) -> None:
        """Drop-in for ``time.sleep``: advancing is the whole effect."""
        self.advance(seconds)

    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the clock reaches ``at`` (absolute time).

        Callbacks scheduled in the past fire on the next ``advance``.
        They run synchronously on the advancing thread and may read the
        clock; scheduling further callbacks from inside one is allowed.
        """
        with self._lock:
            self._scheduled.append((float(at), next(self._seq), callback))

    def pending(self) -> int:
        """Number of scheduled callbacks that have not fired yet."""
        with self._lock:
            return len(self._scheduled)
