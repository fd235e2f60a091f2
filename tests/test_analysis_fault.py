"""Tests for the R-rule recovery/fault-tolerance linter."""

import pytest

from repro.analysis.fault_lint import (
    check_builtin_fault_artifacts,
    lint_recovery_policy,
)
from repro.analysis.findings import Severity, reconcile_expected
from repro.runtime.faults import (
    BROKEN_RECOVERY_POLICIES,
    RECOVERY_POLICIES,
    RecoveryPolicy,
)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestRecoveryPolicyLint:
    @pytest.mark.parametrize("name", sorted(RECOVERY_POLICIES))
    def test_builtin_good_policies_are_clean(self, name):
        assert lint_recovery_policy(RECOVERY_POLICIES[name]) == []

    @pytest.mark.parametrize("name", sorted(BROKEN_RECOVERY_POLICIES))
    def test_builtin_broken_policies_trip_documented_rules(self, name):
        policy, expected = BROKEN_RECOVERY_POLICIES[name]
        assert rule_ids(lint_recovery_policy(policy)) == sorted(expected)

    def test_r001_zero_backoff(self):
        p = RecoveryPolicy(name="p", mode="retry", backoff_base_s=0.0)
        assert "R001" in rule_ids(lint_recovery_policy(p))

    def test_fail_fast_backoff_fields_ignored(self):
        # A fail-fast policy never retries; its backoff shape is moot.
        p = RecoveryPolicy(name="p", mode="fail_fast", backoff_base_s=0.0)
        assert lint_recovery_policy(p) == []


class TestBuiltinSweep:
    def test_sweep_is_green(self):
        report = check_builtin_fault_artifacts()
        assert report.ok, report.render()
        assert report.checked > 0

    def test_expected_findings_demoted_to_info(self):
        report = check_builtin_fault_artifacts()
        notes = [f for f in report.findings if f.severity == Severity.INFO]
        assert notes
        assert all(f.message.startswith("expected") for f in notes)

    def test_missing_expected_finding_is_an_error(self):
        # A policy documented as tripping R001 that does not actually
        # trip it means the linter regressed — that must be an ERROR.
        clean = RECOVERY_POLICIES["retry"]
        findings = reconcile_expected(
            lint_recovery_policy(clean), ("R001",), subject="recovery:retry"
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "R001"
        assert findings[0].severity == Severity.ERROR
        assert "did not trip" in findings[0].message
