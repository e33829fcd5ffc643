"""Fault injection: kill a serving pod mid-traffic and watch the system
degrade gracefully — the §4.2 trade-off ("session data could be
temporarily lost in cases of machine failures") made measurable.

Run with::

    python examples/fault_tolerance.py
"""

from __future__ import annotations

from repro.cluster import TrafficGenerator, constant_rate
from repro.cluster.chaos import ChaosInjector, PodKill
from repro.core import SessionIndex
from repro.data import generate_clickstream, temporal_split
from repro.serving import ServingCluster


def main() -> None:
    log = generate_clickstream(num_sessions=10_000, num_items=1_200, seed=8)
    split = temporal_split(log)
    index = SessionIndex.from_clicks(split.train, max_sessions_per_item=500)
    cluster = ServingCluster.with_index(index, num_pods=3, m=500, k=100)

    generator = TrafficGenerator(split.test, seed=5)
    injector = ChaosInjector(
        cluster,
        [PodKill(at_time=10.0, pod_id="pod-1", restart_at=20.0)],
    )
    print("running 30 s of traffic; pod-1 dies at t=10 s, returns at t=20 s")
    report = injector.run(generator.generate(constant_rate(100), duration=30.0))

    event = report.events[0]
    print(
        f"\nkill at t={event.at_time:.0f}s: pod {event.pod_id} lost "
        f"{event.sessions_lost} live sessions"
    )
    print(
        f"restart at t={event.restarted_at:.0f}s: {event.sessions_recovered} "
        "recovered from disk (no WAL, so none); the ring moved "
        f"{report.ring['rebalanced_sessions']} sessions the survivors had "
        "kept serving back onto the pod"
    )
    print(f"requests served:   {report.total_requests}")
    print(f"availability:      {report.availability:.4%} (routing failed over)")
    print(
        f"degraded requests: {report.degraded_requests} "
        "(served with less history than the user generated)"
    )
    print(
        f"  of which recovered >= 2 items of context already: "
        f"{report.recovered_requests} "
        "- the paper's argument that lost sessions rebuild quickly"
    )
    print(
        f"sessions re-homed to surviving pods: {len(report.session_moves)}"
    )
    print(f"p90 service time during chaos: {report.latency.percentile(90) * 1e3:.2f} ms")
    print(f"pods at the end: {cluster.router.pods}")


if __name__ == "__main__":
    main()
