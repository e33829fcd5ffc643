"""Correctness tooling: workload generators, differential oracle, virtual time.

Three pillars, one per module:

* :mod:`repro.testing.generators` — seeded, reproducible workload
  generators (click logs, queries, arrival/chaos schedules) with the
  skew knobs real traffic has: power-law popularity, timestamp ties,
  bursts, bots. :mod:`repro.testing.strategies` exposes the same shapes
  as Hypothesis strategies plus pinned CI profiles.
* :mod:`repro.testing.oracle` — the differential oracle: replay one
  workload through VS-kNN, VMIS-kNN (both variants), the columnar
  scorer, the batch engine and the study backends, diff the outputs, and
  ddmin-shrink any divergence to a minimal JSON repro under
  ``tests/regressions/``.
* :mod:`repro.testing.clock` — a virtual monotonic clock. A serving
  cluster built on it (``ServingCluster(..., clock=VirtualClock())``)
  reads only virtual time, the chaos injector paces it to each arrival
  and a rollout controller sleeps on it, so chaos, resilience and
  rollout scenarios are exact, seed-replayable unit tests with zero real
  sleeps.

See ``docs/testing.md`` for the guided tour.
"""

from repro.testing.clock import VirtualClock
from repro.testing.generators import (
    WorkloadConfig,
    WorkloadGenerator,
    workload_corpus,
)
from repro.testing.oracle import (
    DifferentialRunner,
    DivergenceCase,
    HyperParams,
    OracleReport,
    default_grid,
    load_regression,
    write_regression,
)

__all__ = [
    "VirtualClock",
    "WorkloadConfig",
    "WorkloadGenerator",
    "workload_corpus",
    "DifferentialRunner",
    "DivergenceCase",
    "HyperParams",
    "OracleReport",
    "default_grid",
    "load_regression",
    "write_regression",
]
