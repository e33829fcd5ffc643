"""Offline index generation, persistence, compression and maintenance.

The package's names are imported on first use, not when the package is:
``from repro.index.serialization import load_columnar`` is all a serving
process needs of it, and must not drag in the lifecycle (and through it
the cluster simulators) on every start.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.index.builder import BuildReport, IndexBuilder, build_index
    from repro.index.capacity import (
        CPYTHON,
        CapacityEstimate,
        CostSchedule,
        NATIVE,
        estimate_capacity,
        extrapolate,
        measure_index,
    )
    from repro.index.compression import (
        CompressedSessionIndex,
        compression_ratio,
        uncompressed_payload_bytes,
    )
    from repro.index.lifecycle import (
        CanaryQualityGate,
        ClickLogValidator,
        DailyIndexLifecycle,
        GatePolicy,
        IndexRegistry,
        IngestionPolicy,
        RolloutController,
        RolloutPolicy,
        ValidationReport,
    )
    from repro.index.maintenance import IncrementalIndexer, rebuild_equivalent
    from repro.index.serialization import (
        deserialize_index,
        load_columnar,
        load_index,
        save_index,
        serialize_index,
    )

_EXPORTS = {
    "repro.index.builder": ("BuildReport", "IndexBuilder", "build_index"),
    "repro.index.capacity": (
        "CPYTHON",
        "CapacityEstimate",
        "CostSchedule",
        "NATIVE",
        "estimate_capacity",
        "extrapolate",
        "measure_index",
    ),
    "repro.index.compression": (
        "CompressedSessionIndex",
        "compression_ratio",
        "uncompressed_payload_bytes",
    ),
    "repro.index.lifecycle": (
        "CanaryQualityGate",
        "ClickLogValidator",
        "DailyIndexLifecycle",
        "GatePolicy",
        "IndexRegistry",
        "IngestionPolicy",
        "RolloutController",
        "RolloutPolicy",
        "ValidationReport",
    ),
    "repro.index.maintenance": ("IncrementalIndexer", "rebuild_equivalent"),
    "repro.index.serialization": (
        "deserialize_index",
        "load_columnar",
        "load_index",
        "save_index",
        "serialize_index",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value
