"""Deterministic simulation of the serving cluster on a virtual clock.

:class:`SimulatedCluster` is the glue between the time-free state
machines of the serving stack and the :class:`~repro.testing.clock.VirtualClock`:

* the wrapped :class:`~repro.serving.app.ServingCluster` gets the clock
  as its one ``clock``, so session TTLs, deadlines, circuit breakers and
  service-time measurement all read virtual time;
* fallback stages run on the calling thread (the chain has no other
  mode), so a "slow" recommender models its stall by advancing the
  clock, which the deadline then observes;
* :meth:`run` replays a :class:`~repro.cluster.loadgen.TimedRequest`
  stream through the :class:`~repro.cluster.chaos.ChaosInjector`,
  advancing the clock to each arrival instant first, so TTL expiry,
  breaker cool-downs and kill/restart schedules interleave exactly as
  the arrival timeline dictates;
* :meth:`run_rollout` drives a canary-gated
  :class:`~repro.index.lifecycle.rollout.RolloutController` whose
  backoff sleeps advance the same clock and whose jitter comes from a
  seeded RNG.

Same seed, same schedule → byte-identical
:class:`~repro.cluster.chaos.ChaosReport`, on every run and machine.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator, Sequence

from repro.cluster.chaos import ChaosInjector, ChaosReport, ChaosSchedule, PodKill
from repro.cluster.loadgen import TimedRequest
from repro.core.index import SessionIndex
from repro.index.lifecycle.rollout import (
    RolloutController,
    RolloutPolicy,
    RolloutReport,
)
from repro.serving.app import RecommenderFactory, ServingCluster
from repro.serving.resilience import ResiliencePolicy
from repro.testing.clock import VirtualClock

__all__ = ["SimulatedCluster"]


class SimulatedCluster:
    """A serving cluster whose every time read is the virtual clock's."""

    def __init__(self, cluster: ServingCluster, clock: VirtualClock) -> None:
        self.cluster = cluster
        self.clock = clock

    @classmethod
    def with_index(
        cls,
        index: SessionIndex,
        clock: VirtualClock | None = None,
        resilience: ResiliencePolicy | None = None,
        **kwargs: Any,
    ) -> "SimulatedCluster":
        """Build a fully virtualised cluster around a prebuilt index.

        Accepts the same keyword arguments as
        :meth:`ServingCluster.with_index`.
        """
        clock = clock or VirtualClock()
        cluster = ServingCluster.with_index(
            index,
            clock=clock,
            resilience=resilience,
            **kwargs,
        )
        return cls(cluster, clock)

    # -- chaos replay --------------------------------------------------------

    def _paced(
        self, arrivals: Iterable[TimedRequest]
    ) -> Iterator[TimedRequest]:
        """Advance the clock to each arrival instant before serving it."""
        for timed in arrivals:
            self.clock.advance_to(timed.arrival_time)
            yield timed

    def run(
        self,
        arrivals: Iterable[TimedRequest],
        kills: ChaosSchedule | Iterable[PodKill] = (),
    ) -> ChaosReport:
        """Replay a traffic trace (with optional pod kills) to completion.

        The injector applies kills/restarts by comparing schedule times
        against arrival times; pacing the clock alongside keeps every
        other time consumer (TTLs, breakers, deadlines) in step with the
        same timeline.
        """
        injector = ChaosInjector(self.cluster, kills)
        return injector.run(self._paced(arrivals))

    # -- rollout replay ------------------------------------------------------

    def run_rollout(
        self,
        factory: RecommenderFactory,
        version: str | None = None,
        policy: RolloutPolicy | None = None,
        seed: int = 0,
    ) -> RolloutReport:
        """Drive a canary-gated rollout entirely on virtual time.

        Retry backoffs (and their jitter) advance the virtual clock via
        the controller's injected ``sleep``; the jitter RNG is seeded,
        so the whole rollout — including failure/retry interleavings —
        replays identically for a given seed.
        """
        controller = RolloutController(
            self.cluster,
            policy=policy,
            rng=random.Random(seed),
            sleep=self.clock.sleep,
        )
        return controller.run(factory, version=version)
