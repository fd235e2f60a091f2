"""Static checks on recovery policies and fault-run outcomes (R rules).

A recovery policy is a tiny config object, but a bad one is a tiny
outage amplifier: zero backoff turns one transient into a hot loop.
``lint_recovery_policy`` catches that shape *before* a chaos run
(R001); the retry budget, deadline and shed depth are class constants
of :class:`~repro.runtime.faults.RecoveryPolicy`, so no policy can get
them wrong.  ``lint_fault_outcome`` audits the run afterwards for
conservation violations — a request in two terminal buckets, or a
"completed" request that never produced its tokens (R005).

``check_builtin_fault_artifacts`` is the sweep `repro lint --faults`
runs: the shipped good policies must lint clean, and each deliberately
broken policy in :data:`~repro.runtime.faults.BROKEN_RECOVERY_POLICIES`
must trip exactly its documented rules — a missing expected finding is
itself an error (the linter regressed), while the expected ones are
demoted to notes so the gate stays green.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

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
    "lint_fault_outcome",
    "check_builtin_fault_artifacts",
]

register_rules(
    "R", "recovery policies and fault traces", __name__, "--faults",
    [
        Rule("R001", "retry-without-backoff", Severity.ERROR,
             "retrying policy with zero/negative base backoff — failed "
             "requests hammer the pool in a tight loop"),
        Rule("R005", "fault-trace-inconsistent", Severity.ERROR,
             "runtime outcome violates conservation: a request in zero or "
             "two terminal buckets, lost/duplicated decode tokens, or "
             "non-monotone trace timestamps"),
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


#: A finished run's terminal buckets (``RuntimeStats`` fields), in
#: report order.
TERMINAL_BUCKETS = (
    "completed", "rejected", "failed", "shed", "timed_out", "cancelled",
)


def lint_terminal_partition(
    stats, rule_id: str, noun: str, subject: str
) -> Tuple[List[Finding], int]:
    """Every request in at most one of ``stats``' terminal buckets.

    Returns a ``rule_id`` finding per request seen twice (``noun`` names
    it: "request", "turn") and the number of bucket entries, so a caller
    that knows how many requests were submitted can check none was lost.
    Shared by the R005 and A005 conservation audits.
    """
    findings: List[Finding] = []
    seen: Dict[int, str] = {}
    entries = 0
    for name in TERMINAL_BUCKETS:
        for req in getattr(stats, name):
            entries += 1
            rid = req.request_id
            if rid in seen:
                findings.append(
                    Finding(
                        rule_id,
                        f"{noun} {rid} is in two terminal buckets: "
                        f"{seen[rid]} and {name}",
                        subject=subject,
                        location=rid,
                    )
                )
            else:
                seen[rid] = name
    return findings, entries


def lint_fault_outcome(stats, subject: str = "chaos") -> List[Finding]:
    """R005 conservation audit over a finished run's ``RuntimeStats``.

    Every request must land in exactly one terminal bucket, and a
    request counted completed must actually have generated its tokens.
    Duck-typed like the K-rule allocator audit so corrupted snapshots
    from tests exercise the same path as live runs.
    """
    findings, _ = lint_terminal_partition(stats, "R005", "request", subject)
    for req in stats.completed:
        if req.generated != req.output_len:
            findings.append(
                Finding(
                    "R005",
                    f"request {req.request_id} counted completed but "
                    f"generated {req.generated}/{req.output_len} decode "
                    "tokens",
                    subject=subject,
                    location=req.request_id,
                )
            )
        if req.finish_s is None:
            findings.append(
                Finding(
                    "R005",
                    f"request {req.request_id} counted completed without a "
                    "finish timestamp",
                    subject=subject,
                    location=req.request_id,
                )
            )
    if stats.wasted_recompute_tokens < 0:
        findings.append(
            Finding(
                "R005",
                f"negative wasted-recompute accounting "
                f"({stats.wasted_recompute_tokens} tokens)",
                subject=subject,
            )
        )
    return findings


def check_builtin_fault_artifacts(run_chaos: bool = True) -> Report:
    """The ``repro lint --faults`` sweep.

    Lints every shipped recovery policy (good ones must be clean,
    broken ones must trip their documented rules) and, when
    ``run_chaos`` is set, replays a quick chaos scenario per builtin
    fault plan and audits each outcome for R005 conservation.
    """
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
    if run_chaos:
        from ..llm.chaos import ChaosConfig
        from ..llm.chaos import run_chaos as _run
        from ..runtime.faults import builtin_fault_plans
        from .plan_lint import lint_runtime_trace

        for plan in sorted(builtin_fault_plans()):
            cfg = ChaosConfig(plan=plan).quick()
            for policy_name in sorted(RECOVERY_POLICIES):
                stats = _run(cfg, policy_name)
                subject = f"chaos:{plan}/{policy_name}"
                report.extend(lint_fault_outcome(stats, subject=subject))
                report.extend(lint_runtime_trace(stats.trace))
                report.checked += 1
    return report
