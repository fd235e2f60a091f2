"""Tests for the H002 dual-replay schedule-race check."""

import pytest

from repro.analysis import (
    Severity,
    check_builtin_schedules,
    dual_replay,
)
from repro.analysis.schedule_lint import (
    BROKEN_SCHEDULES,
    builtin_schedule_scenarios,
)


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestBrokenSchedules:
    def test_order_dependent_toy_trips_h002(self):
        """An order-dependent update (x*2 vs x+3 at the same instant)
        must diverge under the reversed tie-break — the end-to-end
        proof that dual replay detects real races."""
        scenario, _ = BROKEN_SCHEDULES["order-dependent"]
        findings = dual_replay(scenario)
        assert "H002" in rule_ids(findings)
        assert all(f.severity == Severity.ERROR for f in findings)


class TestBuiltinScenarios:
    """The determinism contract: every builtin scenario behaves
    identically under the reversed tie-break."""

    @pytest.mark.parametrize("name", sorted(builtin_schedule_scenarios()))
    def test_dual_replay_is_bit_identical(self, name):
        scenario = builtin_schedule_scenarios()[name]
        assert dual_replay(scenario, subject=name) == []


class TestSweep:
    def test_full_sweep_reconciles(self):
        report = check_builtin_schedules()
        assert report.ok
        assert report.families == ["H"]
        # Builtins are silent; the broken fixture reconciles to info.
        assert all(f.severity == Severity.INFO for f in report.findings)
        fired = {f.rule_id for f in report.findings}
        assert fired == {"H002"}
