"""Operational metrics for the serving layer.

Serenade runs in production behind Kubernetes with istio sidecars; its
operators watch request rates, latency percentiles and core usage
(Figures 3b/3c are rendered from exactly these series). This module
provides the in-process metrics primitives the HTTP service exports:

* :class:`Counter` — monotonically increasing counts with labels, and
  :class:`Gauge` — a value that goes up and down, both
  :class:`LabelledSeries` (one value per label set);
* :class:`Histogram` — fixed-bucket latency histogram with quantile
  estimation (upper-bound interpolation, like Prometheus');
* :class:`MetricsRegistry` — named metrics rendered in the Prometheus
  text exposition format.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Iterable, TypeVar

from repro.core.locking import guarded_by

#: metric class resolved by MetricsRegistry._get_or_create.
_M = TypeVar("_M")

# Default latency buckets in seconds: 100 µs .. 1 s, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.0075,
    0.010,
    0.025,
    0.050,
    0.100,
    0.250,
    0.500,
    1.0,
)


@guarded_by("_lock", "_values")
class LabelledSeries:
    """One value per label set: the storage, lookup and text rendering
    that a :class:`Counter` and a :class:`Gauge` share. Subclasses say
    how a value changes and which Prometheus ``TYPE`` they are."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._values: dict[tuple[tuple[str, str], ...], float] = {}
        self._lock = threading.Lock()

    def value(self, **labels: str) -> float:
        key = tuple(sorted(labels.items()))
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        with self._lock:
            if not self._values:
                lines.append(f"{self.name} 0")
            for key, value in sorted(self._values.items()):
                label_text = ",".join(f'{k}="{v}"' for k, v in key)
                suffix = f"{{{label_text}}}" if label_text else ""
                lines.append(f"{self.name}{suffix} {value:g}")
        return lines


class Counter(LabelledSeries):
    """A monotonic counter with optional label sets."""

    kind = "counter"

    def increment(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(LabelledSeries):
    """A value that can go up and down (breaker states, queue depths)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = tuple(sorted(labels.items()))
        with self._lock:
            self._values[key] = value


@guarded_by("_lock", "_counts", "_sum", "_total")
class Histogram:
    """A fixed-bucket histogram of observations (typically seconds)."""

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.buckets = sorted(buckets)
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)  # +inf tail bucket
        self._sum = 0.0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._total += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimate a quantile from the bucket counts.

        Returns the upper bound of the bucket containing the q-quantile
        observation — the same conservative estimate Prometheus produces.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            if self._total == 0:
                raise ValueError("histogram is empty")
            target = q * self._total
            running = 0
            for index, count in enumerate(self._counts):
                running += count
                if running >= target:
                    if index < len(self.buckets):
                        return self.buckets[index]
                    return float("inf")
        return float("inf")

    def render(self) -> list[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} histogram",
        ]
        with self._lock:
            cumulative = 0
            for bound, count in zip(self.buckets, self._counts):
                cumulative += count
                lines.append(f'{self.name}_bucket{{le="{bound:g}"}} {cumulative}')
            cumulative += self._counts[-1]
            lines.append(f'{self.name}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{self.name}_sum {self._sum:g}")
            lines.append(f"{self.name}_count {self._total}")
        return lines


@guarded_by("_lock", "_metrics")
class MetricsRegistry:
    """Holds the service's metrics and renders the exposition text."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help_text), Counter)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help_text), Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help_text, buckets), Histogram
        )

    def _get_or_create(
        self, name: str, factory: Callable[[], _M], expected_type: type[_M]
    ) -> _M:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, expected_type):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def render_prometheus(self) -> str:
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"
