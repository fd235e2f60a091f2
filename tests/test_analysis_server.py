"""Tests for the Q-rule streaming-server linter."""

from repro.analysis.findings import FAMILIES, Severity
from repro.analysis.server_lint import (
    check_builtin_server_artifacts,
    lint_prefix_ownership,
)
from repro.llm.kv_cache import KVBlockAllocator


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestRegistration:
    def test_q_family_registered_with_server_gate(self):
        fam = FAMILIES["Q"]
        assert fam.gate == "--server"
        assert fam.rule_ids == ("Q002",)


class TestPrefixOwnershipLint:
    def test_clean_allocators_and_no_leaks(self):
        alloc = KVBlockAllocator(total_blocks=8)
        alloc.allocate(0, 32, owner="request")
        assert lint_prefix_ownership([("gpu0", alloc)], {}) == []

    def test_q002_from_recorded_leak_audit(self):
        findings = lint_prefix_ownership([], {3: [("gpu0", 7), ("gpu0", 8)]})
        assert rule_ids(findings) == ["Q002"]
        assert findings[0].location == 3
        assert findings[0].severity == Severity.ERROR

    def test_q002_from_stranded_session_sequence(self):
        alloc = KVBlockAllocator(total_blocks=8)
        alloc.allocate(0, 32)
        alloc.fork(0, -1, owner="session:5")
        findings = lint_prefix_ownership([("gpu1", alloc)], {})
        assert rule_ids(findings) == ["Q002"]
        assert "session:5" in findings[0].message
        # Freeing the prefix clears the finding.
        alloc.free(-1)
        assert lint_prefix_ownership([("gpu1", alloc)], {}) == []


class TestBuiltinSweep:
    def test_full_sweep_including_live_run(self):
        report = check_builtin_server_artifacts()
        assert report.ok, report.render()
        assert report.count(Severity.ERROR) == 0
        assert report.families == ["Q"]
        assert report.checked == 2  # fault-free and gpu-crash
