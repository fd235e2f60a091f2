"""Tests for the A-rule autoscaling/fleet linter."""

import pytest

from repro.analysis import (
    Severity,
    check_builtin_fleet_artifacts,
    lint_autoscaler_policy,
    lint_fleet_outcome,
    lint_fleet_spec,
)
from repro.analysis.findings import FAMILIES, reconcile_expected, rule_table
from repro.analysis.fleet_lint import MAX_SANE_REPLICAS
from repro.fleet import (
    AUTOSCALER_POLICIES,
    BROKEN_AUTOSCALER_POLICIES,
    AutoscalerPolicy,
    FleetConfig,
    builtin_fleet_specs,
    run_fleet_policy,
    static_policy,
)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestRegistration:
    def test_a_family_registered(self):
        assert "A" in FAMILIES
        fam = FAMILIES["A"]
        assert fam.gate == "--fleet"
        assert fam.rule_ids == ("A001", "A002", "A003", "A004", "A005")

    def test_a_rules_in_catalogue(self):
        rows = {r["rule_id"] for r in rule_table() if r["family"] == "A"}
        assert rows == {"A001", "A002", "A003", "A004", "A005"}


class TestAutoscalerPolicyLint:
    @pytest.mark.parametrize("name", sorted(AUTOSCALER_POLICIES))
    def test_builtin_good_policies_are_clean(self, name):
        assert lint_autoscaler_policy(AUTOSCALER_POLICIES[name]) == []

    @pytest.mark.parametrize("name", sorted(BROKEN_AUTOSCALER_POLICIES))
    def test_builtin_broken_policies_trip_documented_rules(self, name):
        policy, expected = BROKEN_AUTOSCALER_POLICIES[name]
        assert rule_ids(lint_autoscaler_policy(policy)) == sorted(expected)

    def test_a001_zero_cooldown(self):
        p = AutoscalerPolicy(name="p", cooldown_s=0.0)
        assert "A001" in rule_ids(lint_autoscaler_policy(p))

    def test_a001_empty_hysteresis_band(self):
        p = AutoscalerPolicy(name="p", target=0.5, down_target=0.5)
        assert "A001" in rule_ids(lint_autoscaler_policy(p))

    def test_a002_kill_in_flight(self):
        p = AutoscalerPolicy(name="p", kill_in_flight=True)
        assert rule_ids(lint_autoscaler_policy(p)) == ["A002"]

    def test_a003_unbounded_ceiling(self):
        p = AutoscalerPolicy(name="p", max_replicas=None)
        assert rule_ids(lint_autoscaler_policy(p)) == ["A003"]

    def test_a003_absurd_ceiling_boundary(self):
        bad = AutoscalerPolicy(name="p", max_replicas=MAX_SANE_REPLICAS + 1)
        assert "A003" in rule_ids(lint_autoscaler_policy(bad))
        ok = AutoscalerPolicy(name="p", max_replicas=MAX_SANE_REPLICAS)
        assert lint_autoscaler_policy(ok) == []

    def test_a004_dropped_kv(self):
        p = AutoscalerPolicy(name="p", migrate_kv=False)
        assert rule_ids(lint_autoscaler_policy(p)) == ["A004"]

    def test_static_policies_exempt_from_dynamic_rules(self):
        # A static policy never scales: its cooldown/band/kill knobs
        # are inert, so none of the dynamic-shape rules apply.
        p = AutoscalerPolicy(
            name="p", mode="static", min_replicas=2, max_replicas=2,
            cooldown_s=0.0, kill_in_flight=True, migrate_kv=False,
        )
        assert lint_autoscaler_policy(p) == []


class TestFleetSpecLint:
    @pytest.mark.parametrize("name", sorted(builtin_fleet_specs()))
    def test_builtin_fleets_pass_deployment_rules(self, name):
        assert lint_fleet_spec(builtin_fleet_specs()[name]) == []


class TestFleetOutcomeLint:
    @staticmethod
    def outcome(policy="target-util", chaos=False):
        cfg = FleetConfig(
            quick=True, fault_plan="chaos-mix" if chaos else None
        )
        return run_fleet_policy(cfg, AUTOSCALER_POLICIES[policy])

    def test_live_runs_pass_a005(self):
        assert lint_fleet_outcome(self.outcome()) == []
        assert lint_fleet_outcome(self.outcome(chaos=True)) == []

    def test_duplicate_bucket_flagged(self):
        out = self.outcome()
        out.stats.failed.append(out.stats.completed[0])
        findings = lint_fleet_outcome(out)
        assert rule_ids(findings) == ["A005"]
        assert any("two terminal buckets" in f.message for f in findings)

    def test_lost_turns_flagged(self):
        out = self.outcome()
        out.turns_submitted += 3
        findings = lint_fleet_outcome(out)
        assert any("lost or double-counted" in f.message for f in findings)

    def test_open_cost_integral_flagged(self):
        out = self.outcome()
        victim = next(r for r in out.replicas if r.state == "retired")
        victim.down_s = None
        findings = lint_fleet_outcome(out)
        assert any("cost integral is open" in f.message for f in findings)

    def test_violated_ceiling_flagged(self):
        from dataclasses import replace

        out = self.outcome()
        out.policy = replace(
            out.policy, min_replicas=1, max_replicas=1
        )
        findings = lint_fleet_outcome(out)
        assert any("exceeds the policy" in f.message for f in findings)

    def test_leaked_prefix_blocks_flagged(self):
        out = self.outcome()
        out.prefix_leaked_blocks = 2
        findings = lint_fleet_outcome(out)
        assert any("leaked" in f.message for f in findings)

    def test_impossible_slo_count_flagged(self):
        out = self.outcome()
        out.slo_attained = len(out.stats.completed) + 1
        findings = lint_fleet_outcome(out)
        assert any("slo_attained" in f.message for f in findings)


class TestBuiltinSweep:
    def test_sweep_is_green(self):
        report = check_builtin_fleet_artifacts()
        assert report.ok
        assert report.checked >= 10
        assert report.families == ["A"]

    def test_expected_findings_demoted_to_info(self):
        report = check_builtin_fleet_artifacts(run_fleet=False)
        expected_ids = {
            rid
            for _, expected in BROKEN_AUTOSCALER_POLICIES.values()
            for rid in expected
        }
        demoted = [
            f for f in report.findings if f.rule_id in expected_ids
        ]
        assert demoted
        assert all(f.severity == Severity.INFO for f in demoted)

    def test_missing_expected_finding_is_an_error(self):
        findings = reconcile_expected([], ["A001"], subject="autoscaler:x")
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR
        assert "regressed" in findings[0].message

    def test_good_policy_cannot_be_excused(self):
        # reconcile over a clean policy with a bogus manifest: the
        # missing expected finding surfaces as a checker regression.
        clean = lint_autoscaler_policy(static_policy(2))
        findings = reconcile_expected(
            clean, ["A002"], subject="autoscaler:static-2"
        )
        assert [f.severity for f in findings] == [Severity.ERROR]
