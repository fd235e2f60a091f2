"""Tests for the A-rule fleet linter."""

import pytest

from repro.analysis.findings import FAMILIES, Severity, reconcile_expected, rule_table
from repro.analysis.fleet_lint import (
    check_builtin_fleet_artifacts,
    lint_fleet_outcome,
    lint_fleet_spec,
)
from repro.fleet.autoscaler import AUTOSCALER_POLICIES
from repro.fleet.planner import FleetConfig, run_fleet_policy
from repro.fleet.spec import builtin_fleet_specs


class TestRegistration:
    def test_a_family_registered(self):
        assert "A" in FAMILIES
        fam = FAMILIES["A"]
        assert fam.gate == "--fleet"
        assert fam.rule_ids == ("A005",)

    def test_a_rules_in_catalogue(self):
        rows = {r["rule_id"] for r in rule_table() if r["family"] == "A"}
        assert rows == {"A005"}


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
        assert report.checked == 5  # 2 fleet specs + 3 quick runs
        assert report.families == ["A"]

    def test_missing_expected_finding_is_an_error(self):
        findings = reconcile_expected([], ["A005"], subject="fleet:x")
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR
        assert "regressed" in findings[0].message
