"""Tests for the Q-rule streaming-server linter."""

import pytest

from repro.analysis.findings import FAMILIES, Severity
from repro.analysis.server_lint import (
    check_builtin_server_artifacts,
    lint_prefix_ownership,
    lint_server_policy,
)
from repro.llm.kv_cache import KVBlockAllocator
from repro.server.admission import BROKEN_SERVER_POLICIES, SERVER_POLICIES, ServerPolicy


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


class TestRegistration:
    def test_q_family_registered_with_server_gate(self):
        fam = FAMILIES["Q"]
        assert fam.gate == "--server"
        assert fam.rule_ids == ("Q001", "Q002", "Q004")


class TestServerPolicyLint:
    @pytest.mark.parametrize("name", sorted(SERVER_POLICIES))
    def test_builtin_good_policies_are_clean(self, name):
        assert lint_server_policy(SERVER_POLICIES[name]) == []

    @pytest.mark.parametrize("name", sorted(BROKEN_SERVER_POLICIES))
    def test_builtin_broken_policies_trip_documented_rules(self, name):
        policy, expected = BROKEN_SERVER_POLICIES[name]
        assert rule_ids(lint_server_policy(policy)) == sorted(expected)

    def test_q001_quota_below_smallest_bucket(self):
        p = ServerPolicy(name="p", bucket_bounds=(128, 512),
                         tenant_quota_tokens=100)
        assert "Q001" in rule_ids(lint_server_policy(p))
        ok = ServerPolicy(name="p", bucket_bounds=(128, 512),
                          tenant_quota_tokens=128)
        assert "Q001" not in rule_ids(lint_server_policy(ok))

    def test_q001_zero_priority_tiers(self):
        p = ServerPolicy(name="p", priority_tiers=0)
        assert "Q001" in rule_ids(lint_server_policy(p))

    @pytest.mark.parametrize("bounds", [
        (),                 # no buckets at all
        (0, 128),           # non-positive bound
        (512, 128, 2048),   # unsorted
        (128, 128, 512),    # duplicate (unreachable bucket)
    ])
    def test_q004_bad_bucket_bounds(self, bounds):
        p = ServerPolicy(name="p", bucket_bounds=bounds)
        assert "Q004" in rule_ids(lint_server_policy(p))


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
    def test_policy_only_sweep_is_clean(self):
        report = check_builtin_server_artifacts(run_server=False)
        assert report.ok
        assert "Q" in report.families
        # Sane + broken policies all checked.
        assert report.checked >= len(SERVER_POLICIES) + len(
            BROKEN_SERVER_POLICIES
        )
        # The broken fixtures surface as reconciled INFO notes.
        assert report.count(Severity.INFO) > 0

    def test_full_sweep_including_live_run(self):
        report = check_builtin_server_artifacts()
        assert report.ok, report.render()
        assert report.count(Severity.ERROR) == 0
