"""Golden-file tests: every rule detects its seeded fixture violations.

Each ``fixtures/srn00N_*.py`` file seeds violations of one rule alongside
compliant code that must stay silent. The ``.expected`` file next to it
holds the exact rendered diagnostics; regenerate after an intentional
rule change with::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/analysis/test_rules.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"

RULE_FIXTURES = {
    "SRN001": "srn001_clock.py",
    "SRN002": "srn002_float_eq.py",
    "SRN003": "srn003_deadline.py",
    "SRN004": "srn004_locks.py",
    "SRN005": "srn005_exceptions.py",
    "SRN006": "srn006_buffers.py",
    "SRN007": "srn007_deadline_flow.py",
    "SRN008": "srn008_escape.py",
    "SRN009": "srn009_resources.py",
}


def fixture_config() -> AnalysisConfig:
    """All rules everywhere, no baseline — fixtures are self-contained."""
    return AnalysisConfig(root=FIXTURES, baseline=None)


def run_fixture(name: str):
    return analyze_paths([FIXTURES / name], fixture_config(), use_baseline=False)


@pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
def test_fixture_matches_golden(rule_id, fixture):
    report = run_fixture(fixture)
    rendered = "\n".join(d.render() for d in report.findings) + "\n"
    golden = (FIXTURES / fixture).with_suffix(".expected")
    if os.environ.get("REGEN_GOLDENS"):
        golden.write_text(rendered)
        pytest.skip("regenerated golden file")
    assert rendered == golden.read_text()


@pytest.mark.parametrize("rule_id,fixture", sorted(RULE_FIXTURES.items()))
def test_fixture_only_fires_its_own_rule(rule_id, fixture):
    report = run_fixture(fixture)
    assert report.findings, f"{fixture} seeded violations but none detected"
    assert {d.rule for d in report.findings} == {rule_id}


def test_srn001_counts_and_lines():
    report = run_fixture(RULE_FIXTURES["SRN001"])
    # three monotonic calls, one sleep, one datetime.now, one random.random —
    # and nothing from the injectable-default / seeded-RNG good variants.
    assert len(report.findings) == 6
    assert not any(d.line >= 29 for d in report.findings), (
        "a compliant seam in the good variants was flagged"
    )


def test_srn002_ignores_non_float_comparisons():
    report = run_fixture(RULE_FIXTURES["SRN002"])
    messages = {(d.line, d.rule) for d in report.findings}
    assert len(messages) == 3
    # the string/int comparisons in not_scores() stay silent.
    assert not any(line > 15 for line, _ in messages)


def test_srn003_all_four_shapes_detected():
    report = run_fixture(RULE_FIXTURES["SRN003"])
    texts = [d.message for d in report.findings]
    assert len(texts) == 4
    assert any("never" in t and "consults" in t for t in texts)
    assert any("fresh Deadline" in t for t in texts)
    assert any("loop performs blocking calls" in t for t in texts)
    assert any("Future.result()" in t for t in texts)


def test_srn004_detects_two_lock_ordering_cycle():
    """Acceptance criterion: an injected A->B->A lock cycle is flagged."""
    report = run_fixture(RULE_FIXTURES["SRN004"])
    cycles = [d for d in report.findings if "lock-ordering cycle" in d.message]
    assert len(cycles) == 1
    assert "Left._lock" in cycles[0].message
    assert "Right._lock" in cycles[0].message


def test_srn004_detects_guarded_access_and_holds_lock_misuse():
    report = run_fixture(RULE_FIXTURES["SRN004"])
    messages = [d.message for d in report.findings]
    assert any("Counter.count" in m and "outside" in m for m in messages)
    assert any("@holds_lock method Counter._reset" in m for m in messages)
    assert any("undeclared attribute Counter.stray" in m for m in messages)
    assert any("not reentrant" in m for m in messages)


def test_srn004_subclass_inherits_the_base_lock_declarations():
    """A subclass of a guarded class in the same module is held to the
    base's ``@guarded_by``: lock-free access is flagged, access under the
    inherited lock is not."""
    report = run_fixture(RULE_FIXTURES["SRN004"])
    subclass = [d for d in report.findings if "Tally" in d.message]
    assert [(d.line, d.message) for d in subclass] == [
        (
            96,
            "access to Tally._values guarded by '_lock' outside "
            "`with self._lock:` (and 'add_bad' is not @holds_lock)",
        )
    ]


def test_srn005_good_handlers_stay_silent():
    report = run_fixture(RULE_FIXTURES["SRN005"])
    assert len(report.findings) == 3
    # logged_good starts at line 29; everything after it is compliant.
    assert all(d.line < 29 for d in report.findings)
