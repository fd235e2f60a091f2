"""Static checks on recovery policies and fault-run outcomes (R rules).

A recovery policy is a tiny config object, but a bad one is a tiny
outage amplifier: zero backoff turns one transient into a hot loop,
an unbounded retry budget turns one dead GPU into an event-loop spin,
a microsecond deadline times out every request before the first decode
step.  ``lint_recovery_policy`` catches those shapes *before* a chaos
run (R001–R004); ``lint_fault_outcome`` audits the run afterwards for
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
    "DEFAULT_MIN_SERVICE_S",
    "MAX_SANE_RETRIES",
    "lint_recovery_policy",
    "lint_fault_outcome",
    "check_builtin_fault_artifacts",
]

register_rules(
    "R", "recovery policies and fault traces", __name__, "--faults",
    [
        Rule("R001", "retry-without-backoff", Severity.ERROR,
             "retrying policy with zero/negative base backoff or a decay "
             "factor below 1 — failed requests hammer the pool in a tight "
             "loop"),
        Rule("R002", "unbounded-retry-budget", Severity.ERROR,
             "retry budget absent or effectively infinite; a persistent "
             "fault turns every victim into an event-loop spin"),
        Rule("R003", "timeout-below-service-floor", Severity.ERROR,
             "per-request deadline at or below the minimum service time — "
             "every request times out before it can possibly finish"),
        Rule("R004", "shed-policy-starves", Severity.ERROR,
             "load-shedding threshold admits no queue at all (depth < 1): "
             "the server sheds every arrival even when idle"),
        Rule("R005", "fault-trace-inconsistent", Severity.ERROR,
             "runtime outcome violates conservation: a request in zero or "
             "two terminal buckets, lost/duplicated decode tokens, or "
             "non-monotone trace timestamps"),
    ],
)

#: Floor on a plausible per-request service time.  One decode step on
#: the slowest modelled GPU is already ~10 ms; a deadline at or below
#: this can never be met.
DEFAULT_MIN_SERVICE_S = 1e-3

#: A retry budget above this is indistinguishable from "forever" on the
#: workloads the runtime models (tens of requests): by then the fault
#: is persistent and every retry is pure waste.
MAX_SANE_RETRIES = 100


def lint_recovery_policy(
    policy: RecoveryPolicy, min_service_s: float = DEFAULT_MIN_SERVICE_S
) -> List[Finding]:
    """R001–R004 over one :class:`RecoveryPolicy`."""
    findings: List[Finding] = []
    subject = f"recovery:{policy.name}"
    retrying = policy.mode != "fail_fast"

    if retrying and (policy.backoff_base_s <= 0 or policy.backoff_factor < 1):
        findings.append(
            Finding(
                "R001",
                f"mode={policy.mode!r} retries with base backoff "
                f"{policy.backoff_base_s}s and factor "
                f"{policy.backoff_factor} — resubmission is immediate, so "
                "a persistent fault is retried in a tight loop",
                subject=subject,
            )
        )
    if retrying and policy.max_retries > MAX_SANE_RETRIES:
        findings.append(
            Finding(
                "R002",
                f"max_retries={policy.max_retries} exceeds the sane bound "
                f"({MAX_SANE_RETRIES}); a persistent fault makes every "
                "victim spin until the event-loop backstop trips",
                subject=subject,
            )
        )
    if policy.deadline_s is not None and policy.deadline_s <= min_service_s:
        findings.append(
            Finding(
                "R003",
                f"deadline_s={policy.deadline_s} is at or below the minimum "
                f"service time ({min_service_s}s) — every admitted request "
                "times out before it can finish",
                subject=subject,
            )
        )
    if policy.shed_queue_depth is not None and policy.shed_queue_depth < 1:
        findings.append(
            Finding(
                "R004",
                f"shed_queue_depth={policy.shed_queue_depth} admits no "
                "queue at all: every arrival is shed even when the server "
                "is idle",
                subject=subject,
            )
        )
    return findings


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
