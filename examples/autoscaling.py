"""Elastic scaling under a flash crowd — the §7 over-provisioning
discussion, made interactive: a reactive autoscaler rides a traffic spike
and sheds pods afterwards.

Run with::

    python examples/autoscaling.py
"""

from __future__ import annotations

from repro.cluster import AutoscalePolicy, ClusterSimulator, TrafficGenerator
from repro.core import SessionIndex
from repro.data import generate_clickstream, temporal_split


def spike_profile(t: float) -> float:
    """Calm 80 rps with a 10x flash crowd between t=30 s and t=60 s."""
    return 800.0 if 30.0 <= t < 60.0 else 80.0


def main() -> None:
    log = generate_clickstream(num_sessions=15_000, num_items=1_500, seed=12)
    split = temporal_split(log)
    index = SessionIndex.from_clicks(split.train, max_sessions_per_item=500)

    from repro.serving import ServingCluster

    cluster = ServingCluster.with_index(index, num_pods=2, m=500, k=100)
    # A request costs a pod about 0.2 ms, so even the flash crowd keeps its
    # three cores about 1% busy (§7's over-provisioning): the thresholds
    # sit at that scale.
    policy = AutoscalePolicy(
        scale_up_at=0.004,
        scale_down_at=0.0015,
        min_pods=2,
        max_pods=6,
        cooldown_seconds=5.0,
        evaluation_interval=5.0,
    )
    simulator = ClusterSimulator(cluster, cores_per_pod=3, policy=policy)
    generator = TrafficGenerator(split.test, seed=6)
    print("90 s of traffic; flash crowd (10x) between t=30 s and t=60 s\n")
    result = simulator.run(
        generator.generate(spike_profile, duration=90.0, sample_fraction=0.4)
    )

    print(f"requests handled: {result.total_requests}")
    print(f"p90 latency: {result.latency.percentile(90) * 1e3:.2f} ms")
    if result.actions:
        print("\nscaling actions:")
        for action in result.actions:
            direction = "UP  " if action.to_pods > action.from_pods else "DOWN"
            print(
                f"  t={action.at_time:>5.0f}s {direction} "
                f"{action.from_pods} -> {action.to_pods} pods "
                f"(observed usage {action.observed_usage:.1%})"
            )
    else:
        print("no scaling actions were needed")
    print(f"\npods over time: {result.pods_over_time}")
    print(f"pods at the end: {len(cluster.pods)}")
    print(f"sessions drained off removed pods: {cluster.ring_info()['drained_sessions']}")
    print(
        "\nnote: the paper accepts that a scale-down loses the removed pods' "
        "sessions (§4.2); here each removed pod first hands its sessions to "
        "their new owners on the ring, so a scale-down loses none. A crash "
        "still loses them (see examples/fault_tolerance.py)."
    )


if __name__ == "__main__":
    main()
