"""Chaos tests for the hardened index lifecycle (ISSUE PR 3 acceptance).

The headline scenario: kill a pod mid-rollout *and* inject one corrupt
index artifact. The fleet must serve zero failed requests throughout,
the corrupt index must never be promoted, the cluster must converge to a
single consistent version, and the automatic rollback must be counted on
``/metrics``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.vmis import VMISKNN
from repro.data.split import temporal_split
from repro.index.builder import IndexBuilder
from repro.index.lifecycle import (
    DailyIndexLifecycle,
    GatePolicy,
    IndexRegistry,
    RolloutController,
    RolloutPolicy,
)
from repro.index.lifecycle.registry import ARTIFACT_NAME
from repro.index.serialization import load_index
from repro.serving.app import ServingCluster
from repro.serving.http import SerenadeService
from repro.serving.server import RecommendationRequest

pytestmark = pytest.mark.chaos


@pytest.fixture()
def split(small_log):
    return temporal_split(small_log, test_days=1)


@pytest.fixture()
def registry(tmp_path, split):
    """v000001: good, promoted. v000002: corrupt on disk. v000003: good."""
    registry = IndexRegistry(tmp_path / "registry")
    train = list(split.train)
    builder = IndexBuilder(max_sessions_per_item=100)
    registry.register(builder.build(train))
    registry.promote("v000001")
    registry.register(builder.build(train))
    artifact = registry.root / "v000002" / ARTIFACT_NAME
    data = bytearray(artifact.read_bytes())
    data[len(data) // 3] ^= 0xFF  # the injected bit-flip
    artifact.write_bytes(bytes(data))
    registry.register(builder.build(train))
    return registry


@pytest.fixture()
def cluster(registry):
    return ServingCluster.with_index(
        registry.load("v000001"),
        num_pods=4,
        m=100,
        k=50,
        index_version="v000001",
    )


def drive_traffic(cluster, count, prefix, failures):
    """Send real consented traffic; record any exception or empty answer."""
    for i in range(count):
        try:
            response = cluster.handle(
                RecommendationRequest(f"{prefix}-{i % 40}", 1 + i % 5)
            )
            if response.degraded:
                failures.append((f"{prefix}-{i}", "degraded"))
        except Exception as error:  # noqa: BLE001 - chaos harness counts all
            failures.append((f"{prefix}-{i}", repr(error)))


def version_factory(registry, version):
    """Pods of the heap oracle over the version's artifact (a corrupt one
    fails its CRC, so every pod load of it fails)."""
    artifact = registry.root / version / ARTIFACT_NAME
    return lambda: VMISKNN(
        load_index(artifact), m=100, k=50, exclude_current_items=True
    )


def make_controller(cluster, **kwargs):
    kwargs.setdefault("canary_probe_requests", 10)
    kwargs.setdefault("min_latency_samples", 1_000_000)
    kwargs.setdefault("backoff_base_seconds", 0.0)
    return RolloutController(
        cluster,
        RolloutPolicy(**kwargs),
        rng=random.Random(0),
        sleep=lambda _s: None,
    )


class TestCorruptArtifactNeverPromoted:
    def test_pipeline_refuses_corrupt_candidate(self, registry, cluster, split):
        lifecycle = DailyIndexLifecycle(
            registry, gate_policy=GatePolicy(max_predictions=30, m=100, k=50)
        )
        failures = []
        drive_traffic(cluster, 40, "before", failures)
        outcome = lifecycle.promote(
            "v000002", split.test_sequences(), cluster=cluster
        )
        drive_traffic(cluster, 40, "after", failures)
        assert not outcome.succeeded
        assert outcome.refused_at == "artifact"
        assert "corrupted" in outcome.refusal_reasons[0]
        assert registry.current_version() == "v000001"
        assert failures == []
        info = cluster.rollout_info()
        assert info["consistent"]
        assert info["committed_version"] == "v000001"

    def test_rollout_of_corrupt_artifact_rolls_back(self, registry, cluster):
        failures = []
        drive_traffic(cluster, 30, "pre", failures)
        report = make_controller(cluster, max_load_attempts=2).run(
            version_factory(registry, "v000002"), version="v000002"
        )
        drive_traffic(cluster, 30, "post", failures)
        assert not report.succeeded
        assert cluster.rollback_count == 1
        assert failures == []
        info = cluster.rollout_info()
        assert info["committed_version"] == "v000001"
        assert info["consistent"]


class TestKillMidRolloutPlusCorruptArtifact:
    def test_acceptance_scenario(self, registry, cluster):
        """Pod kill mid-rollout + one corrupt artifact: zero failed
        requests, no corrupt promotion, convergence, rollback on /metrics."""
        service = SerenadeService(cluster)
        failures = []
        drive_traffic(cluster, 40, "day0", failures)

        # Phase 1: the corrupt artifact is attempted and rolled back.
        corrupt = make_controller(cluster, max_load_attempts=2).run(
            version_factory(registry, "v000002"), version="v000002"
        )
        assert not corrupt.succeeded
        drive_traffic(cluster, 40, "day1", failures)

        # Phase 2: the good build rolls out while a pod dies mid-rollout
        # with live traffic in flight.
        victim = sorted(cluster.pods)[-1]
        controller = make_controller(cluster)
        default_probe = controller._default_canary_probe

        def chaotic_probe(c, canary_pods):
            drive_traffic(c, 20, "mid-rollout", failures)
            c.kill_pod(victim)
            drive_traffic(c, 20, "after-kill", failures)
            return default_probe(c, canary_pods)

        good = controller.run(
            version_factory(registry, "v000003"),
            version="v000003",
            canary_probe=chaotic_probe,
        )
        assert good.succeeded
        assert victim in good.skipped_pods
        drive_traffic(cluster, 40, "day2", failures)

        # Zero failed requests across every phase.
        assert failures == []

        # The corrupt version was never promoted anywhere.
        assert registry.current_version() == "v000001"  # pointer untouched
        info = cluster.rollout_info()
        assert "v000002" not in info["pod_versions"].values()
        assert info["committed_version"] == "v000003"

        # The killed pod converges to the committed version on restart.
        cluster.restart_pod(victim)
        info = cluster.rollout_info()
        assert info["consistent"]
        assert set(info["pod_versions"].values()) == {"v000003"}

        # The rollback is visible on /metrics.
        lines = service.render_metrics().splitlines()
        assert "serenade_index_rollbacks_total 1" in lines
        assert "serenade_rollout_state 3" in lines  # completed
        for pod_id in cluster.pods:
            assert f'serenade_index_version{{pod="{pod_id}"}} 3' in lines


class TestRepeatedChaos:
    def test_alternating_corrupt_and_good_rollouts_stay_available(
        self, registry, cluster
    ):
        """Every failed day must leave the fleet exactly as available as
        the day before; rollbacks accumulate on the counter."""
        failures = []
        for day in range(3):
            bad = make_controller(cluster, max_load_attempts=1).run(
                version_factory(registry, "v000002"), version="v000002"
            )
            assert not bad.succeeded
            drive_traffic(cluster, 25, f"chaos-day-{day}", failures)
            info = cluster.rollout_info()
            assert info["consistent"]
        assert cluster.rollback_count == 3
        assert failures == []
        good = make_controller(cluster).run(
            version_factory(registry, "v000003"), version="v000003"
        )
        assert good.succeeded
        assert cluster.rollout_info()["committed_version"] == "v000003"
