"""The regression gate: compare BENCH_* records under a noise envelope.

Timing numbers jitter; a gate that fires on every wiggle gets deleted
within a week. Each metric therefore carries a **noise envelope** — a
relative tolerance *and* an absolute floor, both of which must be
exceeded on the worse side before a change counts as a regression (or,
symmetrically, as a reportable improvement). Latency envelopes are wide
(shared CI runners), model-derived quantities like the extrapolated
index size are tight (they are deterministic), and SLA attainment is
gated on an absolute drop.

The baseline follows the same shrink-only ratchet discipline as the
serenade-lint baseline: :func:`tighten_baseline` moves a metric only in
the improving direction and only when the improvement clears the
envelope, so lucky runs cannot loosen the gate and real wins tighten it
permanently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.bench.schema import (
    BenchRecord,
    BenchSchemaError,
    LOWER,
    Metric,
    load_record,
    record_path,
)

# -- envelopes ---------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """How much worse a metric may get before the gate fires.

    Both bounds must be exceeded: the change must be more than ``rel``
    of the baseline value *and* more than ``abs_floor`` in the metric's
    own units. The floor keeps tiny baselines (a 0.2 ms p50) from
    tripping on microscopic absolute wiggles; the relative bound keeps
    huge baselines honest.
    """

    rel: float
    abs_floor: float


#: Defaults per metric name. Latency/throughput envelopes absorb
#: cross-machine variance between the baseline host and CI runners;
#: deterministic model outputs are held tight.
DEFAULT_ENVELOPES: dict[str, Envelope] = {
    "latency_p50_ms": Envelope(rel=0.75, abs_floor=0.05),
    "latency_p90_ms": Envelope(rel=0.75, abs_floor=0.10),
    "latency_p99_ms": Envelope(rel=1.00, abs_floor=0.25),
    "throughput_rps": Envelope(rel=0.50, abs_floor=25.0),
    "sla_attainment": Envelope(rel=0.0, abs_floor=0.02),
    "peak_memory_bytes": Envelope(rel=0.50, abs_floor=2 * 1024 * 1024),
    "vsknn_speedup": Envelope(rel=0.60, abs_floor=0.25),
}

#: Applied to metrics with no named envelope.
FALLBACK_ENVELOPE = Envelope(rel=0.50, abs_floor=0.0)


class EnvelopePolicy:
    """Per-metric envelopes, overridable from a JSON policy file."""

    def __init__(
        self,
        envelopes: Mapping[str, Envelope] | None = None,
        fallback: Envelope = FALLBACK_ENVELOPE,
    ) -> None:
        self._envelopes = dict(DEFAULT_ENVELOPES)
        self._envelopes.update(envelopes or {})
        self._fallback = fallback

    def envelope_for(self, metric: str) -> Envelope:
        return self._envelopes.get(metric, self._fallback)

    @classmethod
    def from_json(cls, path: str | Path) -> "EnvelopePolicy":
        """Load overrides: ``{"metric": {"rel": .., "abs": ..}, ...}``;
        the key ``"default"`` replaces the fallback envelope."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise BenchSchemaError(
                f"cannot read envelope policy {path}: {error}"
            ) from error
        if not isinstance(payload, dict):
            raise BenchSchemaError("envelope policy must be a JSON object")
        overrides: dict[str, Envelope] = {}
        fallback = FALLBACK_ENVELOPE
        for name, entry in payload.items():
            if not isinstance(entry, dict) or not {"rel", "abs"} <= set(entry):
                raise BenchSchemaError(
                    f"envelope for {name!r} must be an object with "
                    "'rel' and 'abs'"
                )
            envelope = Envelope(
                rel=float(entry["rel"]), abs_floor=float(entry["abs"])
            )
            if name == "default":
                fallback = envelope
            else:
                overrides[name] = envelope
        return cls(overrides, fallback)


# -- verdicts ----------------------------------------------------------------

#: Metric-level statuses.
METRIC_OK = "ok"
METRIC_IMPROVED = "improved"
METRIC_REGRESSED = "regressed"
METRIC_NEW = "new"
METRIC_MISSING = "missing"

#: Arm-level statuses.
ARM_OK = "ok"
ARM_IMPROVED = "improved"
ARM_REGRESSION = "regression"
ARM_NEW = "new"          # no baseline yet: passes, prompts a commit
ARM_MISSING = "missing"  # baseline exists, candidate vanished: fails
ARM_ERROR = "error"      # schema/profile/seed mismatch: diagnostics


@dataclass(frozen=True)
class MetricVerdict:
    """One metric's comparison outcome."""

    metric: str
    status: str
    baseline: float | None
    candidate: float | None
    unit: str = ""
    detail: str = ""


@dataclass
class ArmComparison:
    """One arm's comparison outcome with per-metric verdicts."""

    arm: str
    status: str
    verdicts: list[MetricVerdict] = field(default_factory=list)
    message: str = ""

    @property
    def regressions(self) -> list[MetricVerdict]:
        return [
            v
            for v in self.verdicts
            if v.status in (METRIC_REGRESSED, METRIC_MISSING)
        ]


def _classify(
    name: str, baseline: Metric, candidate: Metric, envelope: Envelope
) -> MetricVerdict:
    sign = 1.0 if baseline.direction == LOWER else -1.0
    # Positive delta = worse, regardless of direction.
    delta = sign * (candidate.value - baseline.value)
    threshold_rel = abs(baseline.value) * envelope.rel
    outside = abs(delta) > threshold_rel and abs(delta) > envelope.abs_floor
    if outside and delta > 0:
        status = METRIC_REGRESSED
        detail = (
            f"worse by {abs(delta):.4g} {baseline.unit} "
            f"(> rel {envelope.rel:.0%} and > abs {envelope.abs_floor:g})"
        )
    elif outside:
        status = METRIC_IMPROVED
        detail = f"better by {abs(delta):.4g} {baseline.unit}"
    else:
        status = METRIC_OK
        detail = "within envelope"
    return MetricVerdict(
        metric=name,
        status=status,
        baseline=baseline.value,
        candidate=candidate.value,
        unit=baseline.unit,
        detail=detail,
    )


def compare_records(
    baseline: BenchRecord,
    candidate: BenchRecord,
    policy: EnvelopePolicy | None = None,
) -> ArmComparison:
    """Compare one arm's candidate record against its baseline."""
    policy = policy or EnvelopePolicy()
    if baseline.profile != candidate.profile:
        return ArmComparison(
            arm=baseline.arm,
            status=ARM_ERROR,
            message=(
                f"profile mismatch: baseline {baseline.profile!r} vs "
                f"candidate {candidate.profile!r} — records are not comparable"
            ),
        )
    if baseline.seed != candidate.seed:
        return ArmComparison(
            arm=baseline.arm,
            status=ARM_ERROR,
            message=(
                f"seed mismatch: baseline {baseline.seed} vs candidate "
                f"{candidate.seed} — different workloads are not comparable"
            ),
        )
    verdicts: list[MetricVerdict] = []
    for name, base_metric in baseline.metrics.items():
        cand_metric = candidate.metrics.get(name)
        if cand_metric is None:
            verdicts.append(
                MetricVerdict(
                    metric=name,
                    status=METRIC_MISSING,
                    baseline=base_metric.value,
                    candidate=None,
                    unit=base_metric.unit,
                    detail="metric vanished from the candidate",
                )
            )
            continue
        if cand_metric.direction != base_metric.direction:
            return ArmComparison(
                arm=baseline.arm,
                status=ARM_ERROR,
                message=(
                    f"metric {name!r} changed direction "
                    f"({base_metric.direction} -> {cand_metric.direction})"
                ),
            )
        verdicts.append(
            _classify(name, base_metric, cand_metric, policy.envelope_for(name))
        )
    for name, cand_metric in candidate.metrics.items():
        if name not in baseline.metrics:
            verdicts.append(
                MetricVerdict(
                    metric=name,
                    status=METRIC_NEW,
                    baseline=None,
                    candidate=cand_metric.value,
                    unit=cand_metric.unit,
                    detail="no baseline yet",
                )
            )
    if any(v.status in (METRIC_REGRESSED, METRIC_MISSING) for v in verdicts):
        status = ARM_REGRESSION
    elif any(v.status == METRIC_IMPROVED for v in verdicts):
        status = ARM_IMPROVED
    else:
        status = ARM_OK
    return ArmComparison(arm=baseline.arm, status=status, verdicts=verdicts)


@dataclass
class ComparisonReport:
    """The whole gate run: one :class:`ArmComparison` per arm."""

    arms: list[ArmComparison]

    @property
    def exit_code(self) -> int:
        """0 = pass, 1 = regression (or vanished arm), 2 = diagnostics."""
        if any(arm.status == ARM_ERROR for arm in self.arms):
            return 2
        if any(
            arm.status in (ARM_REGRESSION, ARM_MISSING) for arm in self.arms
        ):
            return 1
        return 0

    def render(self) -> str:
        lines: list[str] = []
        for arm in self.arms:
            lines.append(f"[{arm.arm}] {arm.status.upper()}")
            if arm.message:
                lines.append(f"  {arm.message}")
            for verdict in arm.verdicts:
                if verdict.status == METRIC_OK:
                    continue
                base = (
                    "-" if verdict.baseline is None else f"{verdict.baseline:.4g}"
                )
                cand = (
                    "-"
                    if verdict.candidate is None
                    else f"{verdict.candidate:.4g}"
                )
                lines.append(
                    f"  {verdict.metric:<20} {verdict.status:<10} "
                    f"{base} -> {cand} {verdict.unit}  ({verdict.detail})"
                )
        verdict_word = {0: "PASS", 1: "REGRESSION", 2: "ERROR"}[self.exit_code]
        lines.append(f"gate verdict: {verdict_word}")
        return "\n".join(lines)


def compare_dirs(
    baseline_dir: str | Path,
    candidate_dir: str | Path,
    arms: Iterable[str] | None = None,
    policy: EnvelopePolicy | None = None,
) -> ComparisonReport:
    """Compare ``BENCH_<arm>.json`` files between two directories.

    With ``arms=None`` the union of arms present in either directory is
    compared, so a vanished arm cannot pass silently.
    """
    baseline_dir, candidate_dir = Path(baseline_dir), Path(candidate_dir)
    if arms is None:
        names = sorted(
            {p.stem[len("BENCH_"):] for p in baseline_dir.glob("BENCH_*.json")}
            | {p.stem[len("BENCH_"):] for p in candidate_dir.glob("BENCH_*.json")}
        )
    else:
        names = sorted(set(arms))
    comparisons: list[ArmComparison] = []
    for name in names:
        base_path = record_path(baseline_dir, name)
        cand_path = record_path(candidate_dir, name)
        try:
            if not base_path.exists():
                if not cand_path.exists():
                    comparisons.append(
                        ArmComparison(
                            arm=name,
                            status=ARM_ERROR,
                            message=(
                                f"no record for arm {name!r} in either "
                                "directory"
                            ),
                        )
                    )
                    continue
                load_record(cand_path)  # still validate the candidate
                comparisons.append(
                    ArmComparison(
                        arm=name,
                        status=ARM_NEW,
                        message=(
                            "no committed baseline — commit "
                            f"{base_path.name} to start the trajectory"
                        ),
                    )
                )
                continue
            if not cand_path.exists():
                comparisons.append(
                    ArmComparison(
                        arm=name,
                        status=ARM_MISSING,
                        message=(
                            f"baseline exists but candidate run produced no "
                            f"{cand_path.name}"
                        ),
                    )
                )
                continue
            comparisons.append(
                compare_records(
                    load_record(base_path), load_record(cand_path), policy
                )
            )
        except BenchSchemaError as error:
            comparisons.append(
                ArmComparison(arm=name, status=ARM_ERROR, message=str(error))
            )
    return ComparisonReport(comparisons)


def tighten_baseline(
    baseline: BenchRecord,
    candidate: BenchRecord,
    policy: EnvelopePolicy | None = None,
) -> BenchRecord | None:
    """The shrink-only ratchet: move metrics toward the candidate only
    where it improved beyond the envelope.

    Returns the tightened record, or ``None`` when nothing cleared the
    envelope. Raises :class:`BenchSchemaError` if the candidate regresses
    anywhere — a regression must never refresh the baseline.
    """
    comparison = compare_records(baseline, candidate, policy)
    if comparison.status == ARM_ERROR:
        raise BenchSchemaError(comparison.message)
    if comparison.status == ARM_REGRESSION:
        raise BenchSchemaError(
            f"arm {baseline.arm!r} regressed; refusing to touch the baseline"
        )
    improved = {
        v.metric for v in comparison.verdicts if v.status == METRIC_IMPROVED
    }
    new_metrics = {
        v.metric for v in comparison.verdicts if v.status == METRIC_NEW
    }
    if not improved and not new_metrics:
        return None
    metrics: dict[str, Metric] = {}
    for name, base_metric in baseline.metrics.items():
        if name in improved:
            metrics[name] = candidate.metrics[name]
        else:
            metrics[name] = base_metric
    for name in new_metrics:
        metrics[name] = candidate.metrics[name]
    tightened = sorted(improved | new_metrics)
    return BenchRecord(
        arm=candidate.arm,
        profile=candidate.profile,
        seed=candidate.seed,
        git_sha=candidate.git_sha,
        created_unix=candidate.created_unix,
        env=candidate.env,
        workload=candidate.workload,
        metrics=metrics,
        notes=candidate.notes
        + (f"baseline ratcheted on: {', '.join(tightened)}",),
    )
