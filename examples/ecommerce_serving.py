"""End-to-end Serenade deployment: offline index build, artifact
serialization, a routed serving cluster with business rules, and a load
test — Figure 1 of the paper in one script.

Run with::

    python examples/ecommerce_serving.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.cluster import ClusterSimulator, TrafficGenerator, format_timeline, ramp_rate
from repro.core import VMISKNN, SessionIndex
from repro.data import generate_clickstream, temporal_split
from repro.index import load_index, save_index
from repro.serving import (
    BusinessRules,
    RecommendationRequest,
    ServingCluster,
    ServingVariant,
    exclude_seen_in_session,
    exclude_unavailable,
)


def main() -> None:
    # ---- offline component (left half of Figure 1) ----------------------
    log = generate_clickstream(
        num_sessions=20_000, num_items=2_000, days=14, seed=7
    )
    split = temporal_split(log, test_days=1)

    index = SessionIndex.from_clicks(list(split.train), max_sessions_per_item=500)
    profile = index.memory_profile()
    kept = profile["posting_entries"] / sum(index.item_session_counts.values())
    print(
        f"index built: {profile['num_sessions']:,} sessions, "
        f"{profile['num_items']:,} items, "
        f"{profile['posting_entries']:,} postings "
        f"({kept:.0%} kept after truncation to m)"
    )

    with tempfile.TemporaryDirectory() as workdir:
        artifact = Path(workdir) / "daily-index.vmis"
        size = save_index(index, artifact)
        print(f"index artifact: {artifact} ({size / 1024:.0f} KiB)")

        # ---- online component (right half of Figure 1) ------------------
        serving_index = load_index(artifact)
    out_of_stock = {1, 2, 3}
    rules = BusinessRules(
        [exclude_unavailable(out_of_stock), exclude_seen_in_session]
    )
    cluster = ServingCluster(
        lambda: VMISKNN(serving_index, m=500, k=100),
        num_pods=2,
        rules=rules,
    )

    # A user browses three products; each page view is one request.
    for item in (10, 11, 42):
        response = cluster.handle(
            RecommendationRequest(
                "visitor-1", item, variant=ServingVariant.HIST
            )
        )
    print(
        f"\nvisitor-1 on pod {response.served_by}: "
        f"{len(response.items)} recommendations in "
        f"{response.service_seconds * 1e3:.2f} ms"
    )
    print("top 5:", [scored.item_id for scored in response.items[:5]])

    # A privacy-conscious user: depersonalised serving, no state touched.
    anonymous = cluster.handle(
        RecommendationRequest("visitor-2", 42, consent=False)
    )
    print(
        f"depersonalised response: {len(anonymous.items)} items "
        "(session state untouched)"
    )

    # ---- load test (Figure 3b, scaled down) ------------------------------
    generator = TrafficGenerator(split.test, seed=3)
    simulator = ClusterSimulator(cluster, cores_per_pod=3, sla_millis=50)
    result = simulator.run(
        generator.generate(
            ramp_rate(100, 1100, 40.0), duration=60.0, sample_fraction=0.1
        ),
        bucket_seconds=20.0,
        observed_fraction=0.1,
    )
    print(f"\nload test ({result.total_requests} sampled requests):")
    print(format_timeline(result.timeline))
    summary = result.latency.summary_ms()
    print(
        f"p90 = {summary['p90']:.2f} ms, p99.5 = {summary['p99.5']:.2f} ms, "
        f"SLA attainment = {result.sla_attainment:.2%}"
    )


if __name__ == "__main__":
    main()
