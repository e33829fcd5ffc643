"""Measurement probes: latency samples, peak memory, provenance.

The probes are deliberately dumb and injectable. :class:`LatencyProbe`
takes its clock as a constructor argument (the project's clock-hygiene
rule), collects raw per-call samples and reduces them to the schema's
percentile/throughput/SLA metrics. :class:`MemoryProbe` wraps
:mod:`tracemalloc` — it is never active while latencies are being taken,
because tracing roughly doubles allocation cost and would poison the
timing samples.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
import tracemalloc
from typing import Callable

from repro.core.deadline import percentile


class LatencyProbe:
    """Collects per-call latencies and reduces them to gate metrics."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.samples: list[float] = []

    def sample(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` once, recording its wall time in seconds."""
        started = self._clock()
        result = fn()
        self.samples.append(self._clock() - started)
        return result

    def record(self, seconds: float) -> None:
        """Record an externally measured duration."""
        self.samples.append(seconds)

    def merge_best(self, other: "LatencyProbe") -> None:
        """Keep the per-position minimum of two interleaved rounds.

        Benchmarks here follow the interleaved best-of-N discipline
        (CONTRIBUTING): the minimum of matched rounds strips scheduler
        noise while preserving the sample-to-sample shape.
        """
        if len(other.samples) != len(self.samples):
            raise ValueError(
                "can only merge rounds over the same call sequence "
                f"({len(self.samples)} vs {len(other.samples)} samples)"
            )
        self.samples = [
            min(mine, theirs)
            for mine, theirs in zip(self.samples, other.samples)
        ]

    def percentile_ms(self, q: float) -> float:
        return percentile(self.samples, q) * 1e3

    def total_seconds(self) -> float:
        return sum(self.samples)

    def throughput_rps(self) -> float:
        total = self.total_seconds()
        if total <= 0.0:
            raise ValueError("cannot derive throughput from zero elapsed time")
        return len(self.samples) / total

    def sla_attainment(self, budget_ms: float) -> float:
        """Fraction of calls inside the serving SLA budget."""
        if not self.samples:
            raise ValueError("no samples collected")
        budget = budget_ms / 1e3
        within = sum(1 for sample in self.samples if sample <= budget)
        return within / len(self.samples)


class MemoryProbe:
    """Peak-allocation probe over a ``with`` block, via tracemalloc.

    Nest-safe: if tracing is already on (e.g. under a coverage or test
    harness), the probe only resets and reads the peak counter instead
    of stopping someone else's trace.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self._owns_trace = False

    def __enter__(self) -> "MemoryProbe":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._owns_trace = True
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.peak_bytes = int(peak)
        if self._owns_trace:
            tracemalloc.stop()
            self._owns_trace = False


def fingerprint_env() -> dict[str, object]:
    """The environment half of a record's provenance.

    Enough to explain cross-machine drift when two records disagree:
    interpreter, platform and core count — the knobs that move latency
    and tracemalloc peaks.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def current_git_sha(root: str | None = None) -> str:
    """The commit the record was measured at, or ``"unknown"`` outside a
    repository — provenance must never fail a benchmark run."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"
