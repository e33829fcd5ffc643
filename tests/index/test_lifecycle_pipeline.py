"""Tests for the daily lifecycle orchestration (repro.index.lifecycle.pipeline)."""

from __future__ import annotations

import pytest

from repro.core.colindex import VMISKNNColumnar
from repro.core.types import Click
from repro.core.vmis import VMISKNN
from repro.data.split import temporal_split
from repro.index.builder import IndexBuilder
from repro.index.lifecycle import (
    DailyIndexLifecycle,
    GatePolicy,
    IndexRegistry,
    IngestionPolicy,
    RolloutPolicy,
)
from repro.index.serialization import serialize_index
from repro.serving.app import ServingCluster


@pytest.fixture(scope="module")
def split(small_log):
    return temporal_split(small_log, test_days=1)


@pytest.fixture(scope="module")
def holdout(split):
    return split.test_sequences()


def make_lifecycle(tmp_path, **kwargs):
    kwargs.setdefault(
        "gate_policy",
        GatePolicy(max_predictions=50, m=100, k=50),
    )
    kwargs.setdefault(
        "rollout_policy",
        RolloutPolicy(canary_probe_requests=5, min_latency_samples=1_000_000),
    )
    return DailyIndexLifecycle(
        IndexRegistry(tmp_path / "registry"),
        max_sessions_per_item=100,
        **kwargs,
    )


class TestBuildAndRegister:
    def test_clean_log_registers_with_provenance(self, tmp_path, split):
        lifecycle = make_lifecycle(tmp_path)
        manifest, report = lifecycle.build_and_register(
            list(split.train), provenance={"click_log": "day-0.tsv"}
        )
        assert manifest is not None
        assert manifest.version == "v000001"
        assert manifest.provenance["click_log"] == "day-0.tsv"
        assert manifest.provenance["validation"]["input_clicks"] > 0
        assert manifest.build_stats["sessions"] == manifest.num_sessions
        assert report.quarantine_rate == 0.0

    def test_build_matches_the_reference_builder(self, tmp_path, split):
        """The array build registers the loop build's index and the four
        counts of its stage report."""
        clicks = list(split.train)
        lifecycle = make_lifecycle(tmp_path)
        manifest, _ = lifecycle.build_and_register(clicks)
        builder = IndexBuilder(max_sessions_per_item=100)
        reference = builder.build(clicks)
        report = builder.last_report
        assert manifest.build_stats == {
            "input_clicks": report.input_clicks,
            "sessions": report.sessions,
            "postings_after_truncation": report.postings_after_truncation,
            "distinct_items": report.distinct_items,
        }
        assert serialize_index(
            lifecycle.registry.load(manifest.version)
        ) == serialize_index(reference)

    def test_untrustworthy_log_refused(self, tmp_path):
        lifecycle = make_lifecycle(
            tmp_path, ingestion_policy=IngestionPolicy(max_quarantine_rate=0.1)
        )
        # one giant machine-speed session: 100% quarantined
        clicks = [Click(1, i, i // 20) for i in range(400)]
        manifest, report = lifecycle.build_and_register(clicks)
        assert manifest is None
        assert report.quarantine_rate == 1.0
        assert lifecycle.registry.versions() == []


class TestPromotion:
    def test_first_promotion_no_cluster(self, tmp_path, split, holdout):
        lifecycle = make_lifecycle(tmp_path)
        manifest, _ = lifecycle.build_and_register(list(split.train))
        outcome = lifecycle.promote(manifest.version, holdout)
        assert outcome.succeeded
        assert outcome.promoted_version == "v000001"
        assert lifecycle.registry.current_version() == "v000001"

    def test_degenerate_candidate_never_promoted(self, tmp_path, split, holdout):
        lifecycle = make_lifecycle(tmp_path)
        manifest, _ = lifecycle.build_and_register(list(split.train))
        lifecycle.promote(manifest.version, holdout)
        # day 2: a truncated export produces an implausible index
        tiny = [Click(s, s % 3, s * 60) for s in range(6)]
        bad_manifest, report = lifecycle.build_and_register(tiny)
        assert bad_manifest is not None  # clean clicks, registers fine
        outcome = lifecycle.promote(bad_manifest.version, holdout)
        assert not outcome.succeeded
        assert outcome.refused_at == "gate"
        assert outcome.refusal_reasons
        assert lifecycle.registry.current_version() == "v000001"


class TestFullRun:
    def test_day_zero_through_rollout(self, tmp_path, split, holdout):
        lifecycle = make_lifecycle(tmp_path)
        day_zero = IndexBuilder(max_sessions_per_item=100).build(
            list(split.train)
        )
        lifecycle.registry.register(day_zero)
        lifecycle.registry.promote("v000001")
        cluster = ServingCluster.with_index(
            lifecycle.registry.load("v000001"),
            num_pods=3,
            m=100,
            k=50,
            index_version="v000001",
        )
        outcome = lifecycle.run(list(split.train), holdout, cluster=cluster)
        assert outcome.succeeded, outcome.refusal_reasons
        assert outcome.validation is not None
        assert outcome.manifest is not None
        assert outcome.gate is not None and outcome.gate.passed
        assert outcome.rollout is not None and outcome.rollout.succeeded
        info = cluster.rollout_info()
        assert info["committed_version"] == outcome.manifest.version
        assert info["consistent"]
        # The rollout keeps every pod on the columnar engine, answering as
        # the heap oracle does.
        served = [pod.recommender for pod in cluster.pods.values()]
        assert [type(model) for model in served] == [VMISKNNColumnar] * 3
        oracle = VMISKNN(
            lifecycle.registry.load(outcome.manifest.version),
            m=100,
            k=50,
            exclude_current_items=True,
        )
        for sequence in list(holdout.values())[:20]:
            assert served[0].recommend(sequence) == oracle.recommend(sequence)

    def test_promote_decodes_the_candidate_once(
        self, tmp_path, split, holdout, monkeypatch
    ):
        """The gate and the rollout share one decoded candidate."""
        lifecycle = make_lifecycle(tmp_path)
        first, _ = lifecycle.build_and_register(list(split.train))
        lifecycle.promote(first.version, holdout)
        cluster = ServingCluster.with_index(
            lifecycle.registry.load(first.version),
            num_pods=2,
            m=100,
            k=50,
            index_version=first.version,
        )
        second, _ = lifecycle.build_and_register(list(split.train))
        loaded = []
        original = IndexRegistry.load

        def spy(registry, version):
            loaded.append(version)
            return original(registry, version)

        monkeypatch.setattr(IndexRegistry, "load", spy)
        outcome = lifecycle.promote(second.version, holdout, cluster=cluster)
        assert outcome.succeeded, outcome.refusal_reasons
        assert loaded.count(second.version) == 1
        # The baseline the gate compares against is the current version.
        assert loaded.count(first.version) == 1

    def test_rollout_failure_restores_registry_pointer(
        self, tmp_path, split, holdout, monkeypatch
    ):
        from repro.index.lifecycle import pipeline as pipeline_module

        lifecycle = make_lifecycle(tmp_path)
        first, _ = lifecycle.build_and_register(list(split.train))
        lifecycle.promote(first.version, holdout)
        cluster = ServingCluster.with_index(
            lifecycle.registry.load(first.version),
            num_pods=2,
            m=100,
            k=50,
            index_version=first.version,
        )

        class AlwaysRollback:
            def __init__(self, *args, **kwargs):
                from repro.index.lifecycle.rollout import RolloutController

                self._inner = RolloutController(*args, **kwargs)

            def run(self, factory, version=None, canary_probe=None):
                from repro.index.lifecycle.rollout import CanaryStats

                return self._inner.run(
                    factory,
                    version,
                    canary_probe=lambda _c, _p: CanaryStats(
                        canary_requests=10, canary_failures=10
                    ),
                )

        monkeypatch.setattr(
            pipeline_module, "RolloutController", AlwaysRollback
        )
        outcome = lifecycle.run(list(split.train), holdout, cluster=cluster)
        assert not outcome.succeeded
        assert outcome.refused_at == "rollout"
        # the registry pointer went back with the fleet
        assert lifecycle.registry.current_version() == first.version
        assert outcome.promoted_version == first.version
        assert cluster.rollout_info()["committed_version"] == first.version
        assert cluster.rollback_count == 1
