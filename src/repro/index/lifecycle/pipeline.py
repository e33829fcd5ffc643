"""The one-call daily pipeline: validate → build → register → gate → roll.

This is the module the CLI (``repro index ...``) and operational jobs
drive. Each stage is independently usable; :class:`DailyIndexLifecycle`
wires them in the order the paper's daily refresh runs them, with the
hardening this package adds at every hand-off:

* the click log is validated first — a quarantine rate above the policy
  budget refuses the build outright (the day's export is untrustworthy);
* the built index is registered as a versioned, checksummed artifact;
* promotion runs the canary quality gate against the currently promoted
  version on a holdout slice;
* rollout, when a cluster is attached, is staged with automatic
  rollback; the registry's CURRENT pointer only moves when the gate
  passed, so a corrupt or anomalous build can never become the version
  restarted pods converge to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.colindex import ColumnarSessionIndex, VMISKNNColumnar
from repro.core.index import SessionIndex
from repro.core.types import Click, ItemId
from repro.index.lifecycle.gate import CanaryQualityGate, GatePolicy, GateReport
from repro.index.lifecycle.registry import (
    IndexManifest,
    IndexRegistry,
    RegistryError,
)
from repro.index.lifecycle.rollout import (
    RolloutController,
    RolloutPolicy,
    RolloutReport,
)
from repro.index.lifecycle.validation import (
    ClickLogValidator,
    IngestionPolicy,
    ValidationReport,
)
from repro.serving.app import ServingCluster


@dataclass
class LifecycleOutcome:
    """What one end-to-end lifecycle run did, stage by stage."""

    validation: ValidationReport | None = None
    manifest: IndexManifest | None = None
    gate: GateReport | None = None
    rollout: RolloutReport | None = None
    promoted_version: str | None = None
    #: stage that refused, or None when everything succeeded.
    refused_at: str | None = None
    refusal_reasons: list[str] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.refused_at is None


class DailyIndexLifecycle:
    """Orchestrates the guarded daily refresh against one registry."""

    def __init__(
        self,
        registry: IndexRegistry,
        ingestion_policy: IngestionPolicy | None = None,
        gate_policy: GatePolicy | None = None,
        rollout_policy: RolloutPolicy | None = None,
        max_sessions_per_item: int = 500,
    ) -> None:
        self.registry = registry
        self.ingestion_policy = ingestion_policy or IngestionPolicy()
        self.gate_policy = gate_policy or GatePolicy()
        self.rollout_policy = rollout_policy or RolloutPolicy()
        self.max_sessions_per_item = max_sessions_per_item

    # -- individual stages ----------------------------------------------------

    def build_and_register(
        self,
        clicks: Iterable[Click],
        provenance: dict | None = None,
    ) -> tuple[IndexManifest | None, ValidationReport]:
        """Validate the click log, build and register a candidate.

        Returns ``(manifest, validation_report)``; the manifest is None
        when the log quarantined more than the policy budget allows.
        """
        validator = ClickLogValidator(self.ingestion_policy)
        clean, report = validator.validate(clicks)
        if not report.acceptable(self.ingestion_policy):
            return None, report
        index = SessionIndex.from_clicks(
            clean, max_sessions_per_item=self.max_sessions_per_item
        )
        profile = index.memory_profile()
        build_stats = {
            "input_clicks": len(clean),
            "sessions": profile["num_sessions"],
            "postings_after_truncation": profile["posting_entries"],
            "distinct_items": profile["num_items"],
        }
        manifest = self.registry.register(
            index,
            build_stats=build_stats,
            provenance={
                **(provenance or {}),
                "validation": report.summary(),
            },
        )
        return manifest, report

    def _gate(
        self,
        candidate: SessionIndex,
        holdout: Sequence[Sequence[ItemId]],
    ) -> GateReport:
        """Run the canary quality gate for a decoded candidate.

        The baseline is the currently promoted version (loaded with
        corruption fallback); a first-ever candidate is gated on
        structural checks only.
        """
        current: SessionIndex | None = None
        if self.registry.current_version() is not None:
            current, _ = self.registry.load_current()
        gate = CanaryQualityGate(self.gate_policy)
        return gate.evaluate(candidate, holdout, current=current)

    def promote(
        self,
        version: str,
        holdout: Sequence[Sequence[ItemId]],
        cluster: ServingCluster | None = None,
    ) -> LifecycleOutcome:
        """Gate a candidate; on pass move CURRENT and optionally roll out.

        With a cluster attached, a rollout failure (canary regression,
        load failures) rolls the registry pointer back too, so CURRENT
        always names the version the fleet actually converges to.
        """
        outcome = LifecycleOutcome()
        try:
            # Decoded once: the gate reads it and the rollout converts it.
            candidate = self.registry.load(version)
            outcome.gate = self._gate(candidate, holdout)
        except (ValueError, RegistryError) as error:
            # A corrupt or missing candidate artifact is a refusal, not a
            # crash: the day's promotion simply does not happen.
            outcome.refused_at = "artifact"
            outcome.refusal_reasons = [str(error)]
            return outcome
        if not outcome.gate.passed:
            outcome.refused_at = "gate"
            outcome.refusal_reasons = outcome.gate.reasons()
            return outcome

        previous = self.registry.current_version()
        self.registry.promote(version)
        outcome.promoted_version = version
        if cluster is None:
            return outcome

        # Converted once, here: every pod the factory builds shares it.
        index = ColumnarSessionIndex.from_session_index(candidate)
        policy = self.gate_policy
        controller = RolloutController(cluster, self.rollout_policy)
        outcome.rollout = controller.run(
            lambda: VMISKNNColumnar(
                index, m=policy.m, k=policy.k, exclude_current_items=True
            ),
            version=version,
        )
        if not outcome.rollout.succeeded:
            outcome.refused_at = "rollout"
            if outcome.rollout.rollback_reason:
                outcome.refusal_reasons = [outcome.rollout.rollback_reason]
            outcome.promoted_version = previous
            if previous is not None:
                self.registry.promote(previous)
        return outcome

    # -- the full daily run ---------------------------------------------------

    def run(
        self,
        clicks: Iterable[Click],
        holdout: Sequence[Sequence[ItemId]],
        cluster: ServingCluster | None = None,
        provenance: dict | None = None,
    ) -> LifecycleOutcome:
        """Validate, build, register, gate, promote and roll out one day."""
        manifest, validation = self.build_and_register(clicks, provenance)
        if manifest is None:
            outcome = LifecycleOutcome(validation=validation)
            outcome.refused_at = "validation"
            outcome.refusal_reasons = [
                f"quarantine rate {validation.quarantine_rate:.1%} exceeds "
                f"{self.ingestion_policy.max_quarantine_rate:.1%}"
            ]
            return outcome
        outcome = self.promote(manifest.version, holdout, cluster=cluster)
        outcome.validation = validation
        outcome.manifest = manifest
        return outcome
