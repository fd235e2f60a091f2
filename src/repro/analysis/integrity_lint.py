"""Static checks on integrity policies and SDC-run outcomes (C rules).

An integrity layer that is misconfigured is worse than none: it costs
throughput while advertising protection it does not deliver.  The C
rules catch the shapes that make it a lie — KV tags nobody verifies
(C001), corruption detected yet served anyway (C002), quarantine that
can never fire or fires on the first transient (C003), verification
modelled as free so every goodput comparison overstates the protected
arm (C004) — and audit finished runs for counter/trace conservation
(C005): every injected corruption, detection, and quarantine in the
stats must appear in the trace, and vice versa.

``check_builtin_integrity_artifacts`` is the ``repro lint --integrity``
sweep: shipped policies lint clean, every deliberately broken policy in
:data:`~repro.integrity.policy.BROKEN_INTEGRITY_POLICIES` trips exactly
its documented rules, synthetic outcome probes trip C002/C005, and a
quick live run per SDC plan and arm must audit clean.
"""

from __future__ import annotations

from typing import List, Optional

from ..integrity.policy import (
    BROKEN_INTEGRITY_POLICIES,
    INTEGRITY_POLICIES,
    IntegrityPolicy,
)
from ..runtime.events import EventKind
from .findings import (
    Finding,
    Report,
    Rule,
    Severity,
    reconcile_expected,
    register_rules,
)

__all__ = [
    "lint_integrity_policy",
    "lint_integrity_outcome",
    "check_builtin_integrity_artifacts",
]

register_rules(
    "C", "integrity policies and SDC traces", __name__, "--integrity",
    [
        Rule("C001", "unverified-migration-path", Severity.ERROR,
             "KV blocks carry content tags but no verification pass ever "
             "checks one — migrations ship poisoned payloads that are "
             "served as if the tags did not exist"),
        Rule("C002", "corruption-detected-but-served", Severity.ERROR,
             "a verifying run completed requests whose payload the ground "
             "truth marks corrupted — detection exists but the serving "
             "path ignored it"),
        Rule("C003", "quarantine-misconfigured", Severity.ERROR,
             "quarantine threshold that can never trigger (no verification "
             "pass produces detections) or triggers on the first detection "
             "(one transient flip permanently removes a replica)"),
        Rule("C004", "checksum-cost-unaccounted", Severity.ERROR,
             "verification enabled with a zero cost model — goodput under "
             "the protected arm silently overstates what the checks "
             "actually cost"),
        Rule("C005", "integrity-trace-inconsistent", Severity.ERROR,
             "stats counters and trace disagree: injected/detected/"
             "quarantine counts must match their corrupt/corrupt_detected/"
             "quarantine trace events, detections cannot exceed "
             "injections, and verification time cannot be negative"),
    ],
)


def lint_integrity_policy(policy: IntegrityPolicy) -> List[Finding]:
    """C001/C003/C004 over one :class:`IntegrityPolicy`."""
    findings: List[Finding] = []
    subject = f"integrity:{policy.name}"

    if policy.tag_kv and not policy.verify_kv:
        findings.append(
            Finding(
                "C001",
                "tag_kv writes a content tag on every KV block but "
                "verify_kv is off — no migration receive or resident "
                "check ever reads one, so the tags are pure overhead "
                "and shipped corruption is served",
                subject=subject,
            )
        )
    if policy.quarantine_after is not None and not policy.verifies_anything:
        findings.append(
            Finding(
                "C003",
                f"quarantine_after={policy.quarantine_after} with no "
                "verification pass enabled: detections can never occur, "
                "so the quarantine trigger is unreachable",
                subject=subject,
            )
        )
    if policy.quarantine_after == 1:
        findings.append(
            Finding(
                "C003",
                "quarantine_after=1 is a hair trigger: a single "
                "transient bit flip permanently removes a replica and "
                "its capacity",
                subject=subject,
            )
        )
    if policy.verify_kernels and policy.kernel_check_cost_frac == 0.0:
        findings.append(
            Finding(
                "C004",
                "verify_kernels is on but kernel_check_cost_frac is 0 — "
                "the ABFT pass is modelled as free",
                subject=subject,
            )
        )
    if policy.verify_kv and policy.kv_check_cost_frac == 0.0:
        findings.append(
            Finding(
                "C004",
                "verify_kv is on but kv_check_cost_frac is 0 — the KV "
                "tag check is modelled as free",
                subject=subject,
            )
        )
    return findings


def lint_integrity_outcome(
    stats,
    policy: Optional[IntegrityPolicy] = None,
    subject: str = "integrity-run",
) -> List[Finding]:
    """C002/C005 audit over a finished run's ``RuntimeStats``.

    Duck-typed on the stats object (like the R005 audit), so synthetic
    probes from tests exercise the same path as live runs.
    """
    findings: List[Finding] = []
    verifying = policy is not None and policy.verifies_anything

    if verifying and stats.corrupted_completed > 0:
        findings.append(
            Finding(
                "C002",
                f"{stats.corrupted_completed} corrupted request(s) "
                "reached the completed bucket under a verifying policy "
                f"({policy.name!r}) — detected corruption must rerun or "
                "fail, never serve",
                subject=subject,
            )
        )
    if stats.sdc_detected > stats.sdc_injected:
        findings.append(
            Finding(
                "C005",
                f"{stats.sdc_detected} detections exceed "
                f"{stats.sdc_injected} injected corruptions — the "
                "verifier is detecting corruption that never happened",
                subject=subject,
            )
        )
    if not verifying and stats.sdc_detected > 0:
        findings.append(
            Finding(
                "C005",
                f"{stats.sdc_detected} detections counted with no "
                "verifying policy attached — nothing could have "
                "produced them",
                subject=subject,
            )
        )
    if stats.verification_s < 0:
        findings.append(
            Finding(
                "C005",
                f"negative verification time ({stats.verification_s}s)",
                subject=subject,
            )
        )
    trace = getattr(stats, "trace", None)
    if trace is not None:
        counts = {
            EventKind.CORRUPT: 0,
            EventKind.CORRUPT_DETECTED: 0,
            EventKind.QUARANTINE: 0,
        }
        for event in trace.events:
            if event.kind in counts:
                counts[event.kind] += 1
        checks = (
            ("sdc_injected", stats.sdc_injected,
             EventKind.CORRUPT, counts[EventKind.CORRUPT]),
            ("sdc_detected", stats.sdc_detected,
             EventKind.CORRUPT_DETECTED, counts[EventKind.CORRUPT_DETECTED]),
            ("quarantines", stats.quarantines,
             EventKind.QUARANTINE, counts[EventKind.QUARANTINE]),
        )
        for counter, value, kind, traced in checks:
            if value != traced:
                findings.append(
                    Finding(
                        "C005",
                        f"stats.{counter}={value} but the trace holds "
                        f"{traced} {kind!r} event(s) — the integrity "
                        "ledger does not balance",
                        subject=subject,
                    )
                )
    return findings


class _SyntheticStats:
    """Minimal stats double for the outcome probes (duck-typed)."""

    def __init__(self, **kw) -> None:
        self.sdc_injected = kw.get("sdc_injected", 0)
        self.sdc_detected = kw.get("sdc_detected", 0)
        self.corrupted_completed = kw.get("corrupted_completed", 0)
        self.quarantines = kw.get("quarantines", 0)
        self.verification_s = kw.get("verification_s", 0.0)
        self.trace = None


def check_builtin_integrity_artifacts(run_live: bool = True) -> Report:
    """The ``repro lint --integrity`` sweep.

    Shipped policies must be clean; broken ones must trip exactly their
    documented rules; two synthetic outcome probes must trip C002 and
    C005; and (with ``run_live``) a quick SDC run per plan and arm must
    audit clean against its own trace.
    """
    report = Report()
    report.add_family("C")
    for name in sorted(INTEGRITY_POLICIES):
        report.extend(lint_integrity_policy(INTEGRITY_POLICIES[name]))
        report.checked += 1
    for name in sorted(BROKEN_INTEGRITY_POLICIES):
        policy, expected = BROKEN_INTEGRITY_POLICIES[name]
        report.extend(
            reconcile_expected(
                lint_integrity_policy(policy),
                expected,
                subject=f"integrity:{policy.name}",
                context="builtin broken policy",
            )
        )
        report.checked += 1

    # Synthetic outcome probes: a served-despite-detection run and an
    # unbalanced ledger.  Both must trip, or the outcome audit regressed.
    verify = INTEGRITY_POLICIES["verify"]
    report.extend(
        reconcile_expected(
            lint_integrity_outcome(
                _SyntheticStats(
                    sdc_injected=3, sdc_detected=3, corrupted_completed=2
                ),
                verify,
                subject="probe:detected-but-served",
            ),
            ("C002",),
            subject="probe:detected-but-served",
            context="builtin broken policy",
        )
    )
    report.checked += 1
    report.extend(
        reconcile_expected(
            lint_integrity_outcome(
                _SyntheticStats(sdc_injected=1, sdc_detected=4),
                verify,
                subject="probe:unbalanced-ledger",
            ),
            ("C005",),
            subject="probe:unbalanced-ledger",
            context="builtin broken policy",
        )
    )
    report.checked += 1

    if run_live:
        from ..integrity.harness import IntegrityConfig, run_integrity

        cfg = IntegrityConfig().quick()
        results = run_integrity(cfg)
        arm_policy = {
            "verify-off": None,
            "verify-on": INTEGRITY_POLICIES["verify"],
            "quarantine": INTEGRITY_POLICIES["quarantine"],
        }
        for arm in sorted(results):
            for plan in sorted(results[arm]):
                report.extend(
                    lint_integrity_outcome(
                        results[arm][plan],
                        arm_policy[arm],
                        subject=f"integrity:{plan}/{arm}",
                    )
                )
                report.checked += 1
    return report
