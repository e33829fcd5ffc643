"""Load generation: request streams for the load test and the A/B test.

The paper's load test replays historical traffic at more than 1,000
requests per second for several hours (§5.2.2); the A/B test sees a
diurnal load between 200 and 600 requests per second for three weeks
(§5.2.3, Figure 3c). This module produces both shapes as deterministic
streams of :class:`TimedRequest` events.

Executing three weeks of traffic request-for-request is pointless on one
machine, so generators support a ``sample_fraction``: the *nominal* rate
drives the arrival process, but only a thinned sample is emitted; the
timeline aggregator scales reported throughput back up while latency
percentiles are estimated from the executed sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.core.types import ItemId
from repro.data.clicklog import ClickLog
from repro.serving.server import RecommendationRequest
from repro.serving.variants import ServingVariant


@dataclass(frozen=True)
class TimedRequest:
    """A recommendation request with its (simulated) arrival time."""

    arrival_time: float
    request: RecommendationRequest


RateProfile = Callable[[float], float]
"""Nominal requests-per-second as a function of simulated time (seconds)."""


def constant_rate(rps: float) -> RateProfile:
    """A flat load profile."""
    return lambda _t: rps


def ramp_rate(start_rps: float, end_rps: float, duration: float) -> RateProfile:
    """Linear ramp from start to end over ``duration`` (the load test)."""

    def profile(t: float) -> float:
        if t >= duration:
            return end_rps
        return start_rps + (end_rps - start_rps) * t / duration

    return profile


def diurnal_rate(
    low_rps: float, high_rps: float, peak_hour: float = 20.0
) -> RateProfile:
    """A day-periodic profile between ``low_rps`` and ``high_rps``.

    Follows the Figure 3(c) shape: quiet at night, peaking in the evening.
    """

    def profile(t: float) -> float:
        hour = (t / 3600.0) % 24.0
        # Cosine bump centred on the peak hour.
        phase = math.cos((hour - peak_hour) / 24.0 * 2.0 * math.pi)
        return low_rps + (high_rps - low_rps) * (phase + 1.0) / 2.0

    return profile


class TrafficGenerator:
    """Synthesizes request arrivals from a rate profile and a click source.

    Sessions are drawn from a click log (replayed traffic): each generated
    "user" walks one historical session's items in order, issuing one
    request per click. Deterministic given the seed.
    """

    def __init__(
        self,
        source: ClickLog,
        variant: ServingVariant = ServingVariant.HIST,
        seed: int = 7,
    ) -> None:
        sequences = [
            items
            for items in source.session_item_sequences().values()
            if len(items) >= 2
        ]
        if not sequences:
            raise ValueError("click source has no usable sessions")
        self._sequences: list[list[ItemId]] = sequences
        self._variant = variant
        self._rng = np.random.default_rng(seed)

    def generate(
        self,
        profile: RateProfile,
        duration: float,
        sample_fraction: float = 1.0,
        time_step: float = 1.0,
    ) -> Iterator[TimedRequest]:
        """Yield arrivals over ``[0, duration)`` seconds of simulated time.

        Poisson arrivals at the (thinned) nominal rate; each arrival either
        starts a fresh session or continues an active one, mirroring how
        real traffic interleaves sessions.
        """
        if not 0.0 < sample_fraction <= 1.0:
            raise ValueError("sample_fraction must be in (0, 1]")
        rng = self._rng
        active: dict[str, tuple[list[ItemId], int]] = {}
        session_counter = 0
        now = 0.0
        while now < duration:
            rate = profile(now) * sample_fraction
            expected = rate * time_step
            arrivals = rng.poisson(expected) if expected > 0 else 0
            offsets = np.sort(rng.uniform(0.0, time_step, size=arrivals))
            for offset in offsets:
                arrival_time = now + float(offset)
                # Continue an active session 70% of the time if any exist.
                if active and rng.random() < 0.7:
                    session_key = str(
                        rng.choice(np.fromiter(active, dtype=object))
                    )
                else:
                    sequence = self._sequences[
                        int(rng.integers(len(self._sequences)))
                    ]
                    session_key = f"s{session_counter}"
                    session_counter += 1
                    active[session_key] = (sequence, 0)
                sequence, position = active[session_key]
                yield TimedRequest(
                    arrival_time,
                    RecommendationRequest(
                        session_key=session_key,
                        item_id=sequence[position],
                        variant=self._variant,
                    ),
                )
                position += 1
                if position >= len(sequence):
                    del active[session_key]
                else:
                    active[session_key] = (sequence, position)
            now += time_step
