"""The structured runner: arms, profiles, records end to end."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.arms import ARMS, PROFILES
from repro.bench.comparator import DEFAULT_ENVELOPES, compare_dirs
from repro.bench.runner import (
    DEFAULT_SEED,
    arm_names,
    baseline_status,
    resolve_arms,
    resolve_profile,
    run_arm,
    run_arms,
    summarize_record,
)
from repro.bench.schema import (
    CORE_METRICS,
    SCHEMA_VERSION,
    iter_record_paths,
    load_record,
    record_path,
    validate_record,
)


class TestResolution:
    def test_arm_names_are_the_registry(self):
        assert arm_names() == sorted(ARMS)
        assert set(arm_names()) == {"fig3a", "fig3a_vec", "streaming"}

    def test_committed_baselines_are_one_per_arm(self):
        """The repo root holds exactly one ``BENCH_<arm>.json`` per
        registered arm, each recorded by that arm on the gate's regime:
        an orphan baseline or an arm without one fails here, not first
        in the CI gate."""
        root = Path(__file__).resolve().parents[2]
        baselines = dict(iter_record_paths(root))
        assert sorted(baselines) == arm_names()
        for arm, path in baselines.items():
            record = load_record(path)
            validate_record(record)
            assert record.arm == arm
            assert (record.profile, record.seed) == ("quick", DEFAULT_SEED)

    def test_resolve_all(self):
        assert [s.name for s in resolve_arms(None)] == arm_names()
        assert [s.name for s in resolve_arms(["all"])] == arm_names()

    def test_resolve_subset_and_unknown(self):
        assert [s.name for s in resolve_arms(["fig3a"])] == ["fig3a"]
        with pytest.raises(ValueError, match="unknown arm"):
            resolve_arms(["fig9z"])

    def test_resolve_profile(self):
        assert resolve_profile("smoke") is PROFILES["smoke"]
        with pytest.raises(ValueError, match="unknown profile"):
            resolve_profile("leisurely")


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """One real smoke run of every arm, shared across the module."""
    out = tmp_path_factory.mktemp("bench-smoke")
    return out, run_arms(None, "smoke", out, seed=7)


class TestRunArms:
    def test_every_arm_produces_a_valid_record(self, smoke_records):
        out, published = smoke_records
        assert [record.arm for record, _ in published] == arm_names()
        for record, path in published:
            assert path == record_path(out, record.arm)
            reloaded = load_record(path)
            validate_record(reloaded)
            assert reloaded.schema_version == SCHEMA_VERSION
            assert reloaded.profile == "smoke"
            assert reloaded.seed == 7
            assert reloaded.workload["regime"]
            assert set(CORE_METRICS) <= set(reloaded.metrics)

    def test_metrics_are_sane(self, smoke_records):
        _, published = smoke_records
        for record, _ in published:
            assert record.metric_value("latency_p50_ms") > 0
            assert (
                record.metric_value("latency_p50_ms")
                <= record.metric_value("latency_p90_ms")
                <= record.metric_value("latency_p99_ms")
            )
            assert record.metric_value("throughput_rps") > 0
            assert 0.0 <= record.metric_value("sla_attainment") <= 1.0
            assert record.metric_value("peak_memory_bytes") > 0

    def test_every_default_envelope_binds_a_reported_metric(self, smoke_records):
        """An envelope for a metric no arm reports binds nothing."""
        _, published = smoke_records
        reported = {name for record, _ in published for name in record.metrics}
        assert set(DEFAULT_ENVELOPES) <= reported

    def test_vectorized_arm_times_the_whole_scorer_too(self, smoke_records):
        """fig3a_vec reports neighbour search (core metrics) and the full
        recommend(prefix, 21); the second contains the first."""
        _, published = smoke_records
        record = next(r for r, _ in published if r.arm == "fig3a_vec")
        assert record.metrics["recommend_p50_ms"].direction == "lower"
        assert record.metrics["recommend_throughput_rps"].direction == "higher"
        assert record.metric_value("recommend_p50_ms") > record.metric_value(
            "latency_p50_ms"
        )
        assert 0 < record.metric_value(
            "recommend_throughput_rps"
        ) < record.metric_value("throughput_rps")
        assert any("recommend" in note for note in record.notes)

    def test_self_comparison_passes_the_gate(self, smoke_records):
        out, _ = smoke_records
        report = compare_dirs(out, out)
        assert report.exit_code == 0
        assert report.render().endswith("gate verdict: PASS")

    def test_summary_line(self, smoke_records):
        _, published = smoke_records
        line = summarize_record(published[0][0])
        assert published[0][0].arm in line
        assert "p90" in line and "SLA" in line

    def test_injected_clock_is_used(self):
        """SRN001-style clock injection: a fake clock, not wall time."""
        ticks = iter(range(1, 100_000))

        def fake_clock() -> float:
            return next(ticks) * 1e-4

        record = run_arm(
            ARMS["fig3a"],
            PROFILES["smoke"],
            seed=7,
            clock=fake_clock,
            wall_clock=lambda: 123.0,
        )
        assert record.created_unix == 123.0
        # Every fake-clock interval is exactly 0.1 ms.
        assert record.metric_value("latency_p50_ms") == pytest.approx(0.1)


class TestBaselineStatus:
    def test_lists_every_arm(self, smoke_records, tmp_path):
        out, _ = smoke_records
        lines = baseline_status(out)
        text = "\n".join(lines)
        for name in arm_names():
            assert name in text
        assert "no baseline committed" not in text
        empty = "\n".join(baseline_status(tmp_path))
        assert empty.count("no baseline committed") == len(arm_names())

    def test_unreadable_baseline_is_surfaced(self, tmp_path):
        record_path(tmp_path, "fig3a").write_text("{broken")
        text = "\n".join(baseline_status(tmp_path))
        assert "UNREADABLE" in text
