"""Tests for the R-rule recovery/fault-tolerance linter."""

import pytest

from repro.analysis import (
    Severity,
    check_builtin_fault_artifacts,
    lint_fault_outcome,
    lint_recovery_policy,
)
from repro.analysis.fault_lint import MAX_SANE_RETRIES
from repro.analysis.findings import reconcile_expected
from repro.llm.serving import Request
from repro.runtime import (
    BROKEN_RECOVERY_POLICIES,
    RECOVERY_POLICIES,
    RecoveryPolicy,
    RuntimeStats,
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
        p = RecoveryPolicy(name="p", mode="retry", max_retries=3,
                           backoff_base_s=0.0)
        assert "R001" in rule_ids(lint_recovery_policy(p))

    def test_r001_shrinking_backoff(self):
        p = RecoveryPolicy(name="p", mode="retry", max_retries=3,
                           backoff_base_s=0.1, backoff_factor=0.5)
        assert "R001" in rule_ids(lint_recovery_policy(p))

    def test_r002_unbounded_budget(self):
        p = RecoveryPolicy(name="p", mode="reroute",
                           max_retries=MAX_SANE_RETRIES + 1)
        assert "R002" in rule_ids(lint_recovery_policy(p))
        ok = RecoveryPolicy(name="p", mode="reroute",
                            max_retries=MAX_SANE_RETRIES)
        assert "R002" not in rule_ids(lint_recovery_policy(ok))

    def test_r003_hair_trigger_deadline(self):
        p = RecoveryPolicy(name="p", deadline_s=1e-4)
        assert rule_ids(lint_recovery_policy(p)) == ["R003"]
        assert lint_recovery_policy(p, min_service_s=1e-5) == []

    def test_r004_zero_queue_depth(self):
        p = RecoveryPolicy(name="p", shed_queue_depth=0)
        assert rule_ids(lint_recovery_policy(p)) == ["R004"]

    def test_fail_fast_backoff_fields_ignored(self):
        # A fail-fast policy never retries; its backoff shape is moot.
        p = RecoveryPolicy(name="p", mode="fail_fast", backoff_base_s=0.0)
        assert lint_recovery_policy(p) == []


class TestFaultOutcomeLint:
    @staticmethod
    def stats(**kw):
        s = RuntimeStats(kv_budget_bytes=1.0, total_blocks=8)
        for key, value in kw.items():
            setattr(s, key, value)
        return s

    @staticmethod
    def done(rid, out=4):
        r = Request(rid, 0.0, prompt_len=8, output_len=out)
        r.generated = out
        r.finish_s = 1.0
        return r

    def test_clean_outcome_passes(self):
        s = self.stats(completed=[self.done(0), self.done(1)])
        assert lint_fault_outcome(s) == []

    def test_duplicate_terminal_bucket_flagged(self):
        r = self.done(0)
        s = self.stats(completed=[r], failed=[r])
        findings = lint_fault_outcome(s)
        assert rule_ids(findings) == ["R005"]
        assert "two terminal buckets" in findings[0].message

    def test_short_generation_flagged(self):
        r = self.done(0)
        r.generated = 2
        findings = lint_fault_outcome(self.stats(completed=[r]))
        assert any("generated 2/4" in f.message for f in findings)

    def test_missing_finish_timestamp_flagged(self):
        r = self.done(0)
        r.finish_s = None
        findings = lint_fault_outcome(self.stats(completed=[r]))
        assert any("finish timestamp" in f.message for f in findings)

    def test_negative_waste_flagged(self):
        s = self.stats(wasted_recompute_tokens=-1)
        assert rule_ids(lint_fault_outcome(s)) == ["R005"]


class TestBuiltinSweep:
    def test_sweep_is_green(self):
        report = check_builtin_fault_artifacts()
        assert report.ok, report.render()
        assert report.checked > 0

    def test_expected_findings_demoted_to_info(self):
        report = check_builtin_fault_artifacts(run_chaos=False)
        notes = [f for f in report.findings if f.severity == Severity.INFO]
        assert notes
        assert all(f.message.startswith("expected") for f in notes)

    def test_missing_expected_finding_is_an_error(self):
        # A policy documented as tripping R004 that does not actually
        # trip it means the linter regressed — that must be an ERROR.
        clean = RECOVERY_POLICIES["retry"]
        findings = reconcile_expected(
            lint_recovery_policy(clean), ("R004",), subject="recovery:retry"
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "R004"
        assert findings[0].severity == Severity.ERROR
        assert "did not trip" in findings[0].message
