"""The streaming indexer: sealing, convergence, commits, backpressure."""

from __future__ import annotations

import random

import pytest

from repro.core.index import SessionIndex
from repro.core.types import Click
from repro.index.maintenance import IncrementalIndexer
from repro.serving.resilience import AdmissionController
from repro.streaming import (
    BackpressurePolicy,
    ClickProducer,
    ConsumerGroup,
    DeliveryFaultPlan,
    DeliveryFaults,
    PartitionedLog,
    StreamingIndexer,
    StreamingPolicy,
)
from tests.streaming.conftest import (
    assert_index_equal,
    publish_order,
    safe_session_gap,
)


def make_pipeline(log, *, gap=100.0, lateness=0.0, poll=16, **kwargs):
    policy = StreamingPolicy(
        session_gap_seconds=gap,
        allowed_lateness_seconds=lateness,
        poll_max_records=poll,
        backpressure=kwargs.pop("backpressure", BackpressurePolicy()),
    )
    indexer = IncrementalIndexer(max_sessions_per_item=100)
    return StreamingIndexer(log, indexer, policy=policy, **kwargs)


class TestPolicy:
    def test_rejects_inconsistent_knobs(self):
        with pytest.raises(ValueError, match="session_gap_seconds"):
            StreamingPolicy(session_gap_seconds=0.0)
        with pytest.raises(ValueError, match="allowed_lateness_seconds"):
            StreamingPolicy(allowed_lateness_seconds=-1.0)
        with pytest.raises(ValueError, match="poll_max_records"):
            StreamingPolicy(poll_max_records=0)
        with pytest.raises(ValueError, match="staleness_bound_events"):
            StreamingPolicy(staleness_bound_events=0)

    def test_lateness_beyond_the_gap_is_rejected(self):
        """lateness > gap would let an on-time click be older than the
        newest sealed session — the indexer would have to drop it."""
        with pytest.raises(ValueError, match="must not exceed"):
            StreamingPolicy(
                session_gap_seconds=60.0, allowed_lateness_seconds=61.0
            )

    def test_backpressure_capacity_curve(self):
        policy = BackpressurePolicy(
            target_lag_events=100, max_lag_events=300, min_capacity=4
        )
        assert policy.capacity_for(0, 64) == 64
        assert policy.capacity_for(100, 64) == 64
        assert policy.capacity_for(200, 64) == 34  # halfway down the ramp
        assert policy.capacity_for(300, 64) == 4
        assert policy.capacity_for(10_000, 64) == 4
        with pytest.raises(ValueError, match="max_lag_events"):
            BackpressurePolicy(target_lag_events=10, max_lag_events=10)


class TestSealing:
    def test_sessions_seal_only_after_the_gap(self):
        log = PartitionedLog(num_partitions=1)
        producer = ClickProducer(log, "p")
        pipeline = make_pipeline(log, gap=100.0)
        producer.publish_all([Click(0, 1, 1000), Click(0, 2, 1010)])
        pipeline.run_until_caught_up()
        # Watermark is 1010; session 0's last event + gap is not passed.
        assert pipeline.sessions_applied == 0
        assert pipeline.health()["pending_sessions"] == 1

        producer.publish(Click(1, 5, 1200))  # pushes the watermark past
        pipeline.run_until_caught_up()
        assert pipeline.sessions_applied == 1
        assert pipeline.indexer.index.session_items[0] == (1, 2)

    def test_flush_seals_everything(self):
        log = PartitionedLog(num_partitions=1)
        ClickProducer(log, "p").publish_all([Click(0, 1, 10), Click(1, 2, 20)])
        pipeline = make_pipeline(log, gap=1000.0)
        pipeline.run_until_caught_up()
        assert pipeline.sessions_applied == 0
        assert pipeline.flush() == 2
        assert pipeline.lag_events() == 0

    def test_duplicate_delivery_is_idempotent(self):
        """Every polled record delivered twice: the offset-keyed buffers
        absorb it and the index matches the clean batch build."""
        log = PartitionedLog(num_partitions=2)
        clicks = [Click(s, 1 + s % 3, 100 + 10 * s) for s in range(12)]
        ClickProducer(log, "p").publish_all(clicks)
        duplicate_all = DeliveryFaults(
            DeliveryFaultPlan(duplicate_rate=1.0), random.Random(0)
        )
        pipeline = make_pipeline(log, gap=50.0, poll_transform=duplicate_all)
        pipeline.run_until_caught_up()
        pipeline.flush()
        assert duplicate_all.duplicated > 0
        assert_index_equal(
            pipeline.indexer.index,
            SessionIndex.from_clicks(clicks, max_sessions_per_item=100),
        )
        # Duplicates of already *applied* sessions are counted, not lost.
        assert pipeline.sessions_duplicate == 0  # absorbed pre-seal here


class TestConvergence:
    def test_streamed_index_equals_batch_rebuild(self, workload_clicks):
        """The convergence half of the bounded-staleness contract, under
        duplicated + reordered delivery."""
        lateness = 20.0
        gap = safe_session_gap(workload_clicks, lateness)
        log = PartitionedLog(num_partitions=3)
        producer = ClickProducer(log, "p")
        faults = DeliveryFaults(
            DeliveryFaultPlan(duplicate_rate=0.3, shuffle_rate=0.5),
            random.Random(5),
        )
        pipeline = make_pipeline(
            log, gap=gap, lateness=lateness, poll=8, poll_transform=faults
        )
        ordered = publish_order(workload_clicks)
        for start in range(0, len(ordered), 16):
            producer.publish_all(ordered[start : start + 16])
            pipeline.run_until_caught_up()
        pipeline.flush()

        assert faults.duplicated > 0 and faults.shuffled_batches > 0
        assert pipeline.too_late_events == 0
        assert pipeline.sessions_stale == 0
        assert_index_equal(
            pipeline.indexer.index,
            SessionIndex.from_clicks(workload_clicks, max_sessions_per_item=100),
        )

    def test_every_acked_click_is_accounted_for(self, workload_clicks):
        log = PartitionedLog(num_partitions=2)
        ClickProducer(log, "p").publish_all(publish_order(workload_clicks))
        pipeline = make_pipeline(log, gap=safe_session_gap(workload_clicks, 0.0))
        pipeline.run_until_caught_up()
        pipeline.flush()
        assert pipeline.events_consumed == len(workload_clicks)
        # The applied fingerprints keep every click of every session (the
        # index itself collapses repeats), so the ledger must balance:
        # applied + replayed + too-late == acknowledged.
        applied_clicks = sum(
            len(items)
            for _, _, items in pipeline.indexer.state_dict()["applied"]
        )
        accounted = (
            applied_clicks
            + pipeline.replayed_records
            + pipeline.too_late_events
        )
        assert accounted == len(workload_clicks)


class TestCommits:
    def test_commit_low_watermark_holds_back_unsealed_clicks(self):
        log = PartitionedLog(num_partitions=1)
        producer = ClickProducer(log, "p")
        pipeline = make_pipeline(log, gap=100.0)
        producer.publish_all(
            [Click(0, 1, 1000), Click(1, 2, 1300), Click(1, 3, 1310)]
        )
        pipeline.run_until_caught_up()
        # Session 0 sealed (offset 0 applied); session 1 is still open
        # from offset 1 — the commit must stop there.
        assert pipeline.sessions_applied == 1
        assert pipeline.group.offsets.get(0) == 1

    def test_commit_each_step_false_defers_to_explicit_commit(self):
        log = PartitionedLog(num_partitions=1)
        ClickProducer(log, "p").publish_all([Click(0, 1, 10), Click(1, 2, 500)])
        pipeline = make_pipeline(log, gap=100.0, commit_each_step=False)
        pipeline.run_until_caught_up()
        pipeline.flush()
        assert pipeline.group.offsets.as_dict() == {}
        pipeline.commit()
        assert pipeline.group.offsets.get(0) == 2


class TestObservability:
    def test_staleness_and_watermark_series(self):
        log = PartitionedLog(num_partitions=1)
        producer = ClickProducer(log, "p")
        pipeline = make_pipeline(log, gap=100.0)
        assert pipeline.staleness_seconds() == 0.0
        producer.publish_all([Click(0, 1, 1000), Click(1, 2, 1200)])
        pipeline.run_until_caught_up()
        # Session 0 sealed at 1000; the log head is at 1200.
        assert pipeline.staleness_seconds() == 200.0
        assert pipeline.watermark_seconds() == 1200.0
        assert pipeline.within_staleness_bound()

    def test_health_snapshot_shape(self):
        log = PartitionedLog(num_partitions=1)
        pipeline = make_pipeline(log)
        health = pipeline.health()
        assert health["crashed"] is False
        assert health["lag_events"] == 0
        assert health["within_staleness_bound"] is True
        assert health["group"]["members"] == ["indexer-0"]

    def test_shared_group_rejects_duplicate_member(self):
        log = PartitionedLog(num_partitions=2)
        group = ConsumerGroup(log, "indexer")
        make_pipeline(log, group=group, member_id="a")
        with pytest.raises(ValueError, match="already joined"):
            make_pipeline(log, group=group, member_id="a")


class TestBackpressure:
    def test_lag_resizes_admission_and_recovers(self):
        log = PartitionedLog(num_partitions=1)
        producer = ClickProducer(log, "p")
        admission = AdmissionController(capacity=64)
        pipeline = make_pipeline(
            log,
            gap=10.0,
            poll=4,
            admission=admission,
            backpressure=BackpressurePolicy(
                target_lag_events=8, max_lag_events=32, min_capacity=2
            ),
        )
        producer.publish_all([Click(s, 1, 100 + s) for s in range(40)])
        pipeline.step()  # polls 4 of 40: lag is far over the max
        assert admission.capacity == 2
        pipeline.run_until_caught_up()
        pipeline.flush()
        # Lag drained: full serving capacity is restored.
        assert admission.capacity == 64
