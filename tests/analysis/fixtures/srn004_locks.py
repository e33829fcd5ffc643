"""Seeded SRN004 violations: guarded-state races, a lock-ordering cycle,
and a non-reentrant self-deadlock."""

import threading

from repro.core.locking import guarded_by, holds_lock


@guarded_by("_lock", "count")
class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump_bad(self):
        self.count += 1  # violation: guarded attribute touched lock-free

    def bump_good(self):
        with self._lock:
            self.count += 1

    @holds_lock("_lock")
    def _reset(self):
        self.count = 0

    def reset_bad(self):
        self._reset()  # violation: @holds_lock callee without the lock

    def reset_good(self):
        with self._lock:
            self._reset()

    def sneaky_bad(self):
        self.stray = 1  # violation: write to undeclared attribute


@guarded_by("_lock", "hits")
class Left:
    """Half of a two-lock ordering cycle: Left._lock -> Right._lock."""

    def __init__(self, right: "Right"):
        self._lock = threading.Lock()
        self.hits = 0
        self.right = right

    def poke(self):
        with self._lock:
            self.hits += 1
            self.right.poke()


@guarded_by("_lock", "hits")
class Right:
    """Other half: Right._lock -> Left._lock closes the cycle."""

    def __init__(self, left: "Left"):
        self._lock = threading.Lock()
        self.hits = 0
        self.left = left

    def poke(self):
        with self._lock:
            self.hits += 1

    def cross(self):
        with self._lock:
            self.left.poke()


class Reenter:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()  # violation: re-acquires a non-reentrant Lock

    def inner(self):
        with self._lock:
            pass


@guarded_by("_lock", "_values")
class Series:
    """Declares its lock and the state it guards once, for subclasses too."""

    def __init__(self):
        self._values = {}
        self._lock = threading.Lock()


class Tally(Series):
    """Inherits Series' declarations, so its own methods are checked."""

    def add_bad(self, key):
        self._values[key] = 1  # violation: inherited guarded state lock-free

    def add_good(self, key):
        with self._lock:
            self._values[key] = 1
