"""Reactive autoscaling policy for the serving fleet (§4.2/§7).

Serenade deliberately over-provisions: each pod gets three cores but uses
about one, "to be prepared for peak loads, e.g., during denial-of-service
attacks" (§7). The paper accepts that elastic scaling of the pod pool
loses the removed pods' sessions (§4.2); here a scale-down drains them
to their new owners on the ring first. This module makes the trade-off
explorable:

* :class:`AutoscalePolicy` — hysteresis thresholds on observed core
  usage, evaluated at a fixed cadence, with cooldown and min/max pod
  bounds (a Kubernetes HPA, in miniature);
* :class:`ScalingAction` — one executed decision.

:class:`~repro.cluster.simulation.ClusterSimulator` runs the policy when
it is given one: it scales the real cluster inside its queueing replay
and records every action together with the latency timeline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AutoscalePolicy:
    """Hysteresis scaling rule over average per-pod core usage."""

    scale_up_at: float = 0.60  # avg busy fraction per provisioned core
    scale_down_at: float = 0.15
    min_pods: int = 2
    max_pods: int = 10
    cooldown_seconds: float = 60.0
    #: simulated seconds between evaluations, each over the window since
    #: the last one.
    evaluation_interval: float = 10.0

    def validate(self) -> None:
        if not 0.0 < self.scale_down_at < self.scale_up_at <= 1.0:
            raise ValueError(
                "need 0 < scale_down_at < scale_up_at <= 1, got "
                f"{self.scale_down_at} / {self.scale_up_at}"
            )
        if not 1 <= self.min_pods <= self.max_pods:
            raise ValueError("need 1 <= min_pods <= max_pods")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")

    def decide(self, usage_fraction: float, current_pods: int) -> int:
        """Target pod count given the observed usage."""
        if usage_fraction > self.scale_up_at and current_pods < self.max_pods:
            return current_pods + 1
        if usage_fraction < self.scale_down_at and current_pods > self.min_pods:
            return current_pods - 1
        return current_pods


@dataclass(frozen=True)
class ScalingAction:
    """One executed scaling decision."""

    at_time: float
    from_pods: int
    to_pods: int
    observed_usage: float
