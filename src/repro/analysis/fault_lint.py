"""Static checks on recovery policies (R rules).

A recovery policy is a tiny config object, but a bad one is a tiny
outage amplifier: zero backoff turns one transient into a hot loop.
``lint_recovery_policy`` catches that shape *before* a chaos run
(R001); the retry budget, deadline and shed depth are class constants
of :class:`~repro.runtime.faults.RecoveryPolicy`, so no policy can get
them wrong.  A run's outcome needs no audit afterwards:
:meth:`~repro.runtime.scheduler.RuntimeStats.terminate` refuses a
second verdict or a short FINISH as it is written.

``check_builtin_fault_artifacts`` is the sweep `repro lint --faults`
runs: the shipped good policies must lint clean, and each deliberately
broken policy in :data:`~repro.runtime.faults.BROKEN_RECOVERY_POLICIES`
must trip exactly its documented rules — a missing expected finding is
itself an error (the linter regressed), while the expected ones are
demoted to notes so the gate stays green.
"""

from __future__ import annotations

from typing import List

from ..runtime.faults import (
    BROKEN_RECOVERY_POLICIES,
    RECOVERY_POLICIES,
    RecoveryPolicy,
)
from .findings import (
    Finding,
    Report,
    Rule,
    Severity,
    reconcile_expected,
    register_rules,
)

__all__ = [
    "lint_recovery_policy",
    "check_builtin_fault_artifacts",
]

register_rules(
    "R", "recovery policies", __name__, "--faults",
    [
        Rule("R001", "retry-without-backoff", Severity.ERROR,
             "retrying policy with zero/negative base backoff — failed "
             "requests hammer the pool in a tight loop"),
    ],
)


def lint_recovery_policy(policy: RecoveryPolicy) -> List[Finding]:
    """R001 over one :class:`RecoveryPolicy`."""
    if policy.mode == "fail_fast" or policy.backoff_base_s > 0:
        return []
    return [
        Finding(
            "R001",
            f"mode={policy.mode!r} retries with base backoff "
            f"{policy.backoff_base_s}s — resubmission is immediate, so "
            "a persistent fault is retried in a tight loop",
            subject=f"recovery:{policy.name}",
        )
    ]


def check_builtin_fault_artifacts() -> Report:
    """The ``repro lint --faults`` sweep: every shipped recovery policy
    (good ones must be clean, broken ones must trip their documented
    rules)."""
    report = Report()
    report.add_family("R")
    for name in sorted(RECOVERY_POLICIES):
        report.extend(lint_recovery_policy(RECOVERY_POLICIES[name]))
        report.checked += 1
    for name in sorted(BROKEN_RECOVERY_POLICIES):
        policy, expected = BROKEN_RECOVERY_POLICIES[name]
        report.extend(
            reconcile_expected(
                lint_recovery_policy(policy),
                expected,
                subject=f"recovery:{policy.name}",
                context="builtin broken policy",
            )
        )
        report.checked += 1
    return report
