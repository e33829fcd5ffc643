"""Cluster simulation: load tests, timelines and A/B experiments."""

from repro.cluster.autoscaler import AutoscalePolicy, ScalingAction
from repro.cluster.costmodel import (
    DeploymentCost,
    MachinePrices,
    cost_comparison,
    neural_ranker_cost,
    serenade_cost,
)
from repro.cluster.chaos import (
    ChaosEventOutcome,
    ChaosInjector,
    ChaosReport,
    ChaosSchedule,
    ConsumerCrash,
    NetworkPartition,
    PodKill,
    PodSlowdown,
)
from repro.cluster.abtest import (
    ABTest,
    ABTestReport,
    ArmOutcome,
    VariantRecommender,
)
from repro.cluster.loadgen import (
    TimedRequest,
    TrafficGenerator,
    constant_rate,
    diurnal_rate,
    ramp_rate,
    spike_rate,
)
from repro.cluster.metrics import (
    BucketStats,
    LatencyRecorder,
    TimelineAggregator,
    percentile,
)
from repro.cluster.significance import (
    ZTestResult,
    two_proportion_ztest,
    wilson_interval,
)
from repro.cluster.simulation import ClusterSimulator, LoadTestResult, format_timeline

__all__ = [
    "ABTest",
    "AutoscalePolicy",
    "ScalingAction",
    "ChaosEventOutcome",
    "DeploymentCost",
    "MachinePrices",
    "cost_comparison",
    "neural_ranker_cost",
    "serenade_cost",
    "ChaosInjector",
    "ChaosReport",
    "ChaosSchedule",
    "ConsumerCrash",
    "NetworkPartition",
    "PodKill",
    "PodSlowdown",
    "ABTestReport",
    "ArmOutcome",
    "BucketStats",
    "ClusterSimulator",
    "LatencyRecorder",
    "LoadTestResult",
    "TimedRequest",
    "TimelineAggregator",
    "TrafficGenerator",
    "VariantRecommender",
    "ZTestResult",
    "constant_rate",
    "diurnal_rate",
    "format_timeline",
    "percentile",
    "ramp_rate",
    "spike_rate",
    "two_proportion_ztest",
    "wilson_interval",
]
