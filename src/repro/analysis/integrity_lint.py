"""Checks on SDC-run outcomes (C rules).

An integrity layer that is misconfigured is worse than none: it costs
throughput while advertising protection it does not deliver.  The C
rules audit finished runs: corruption detected yet served anyway
(C002), and a ledger that does not balance (C005): more detections than
injections, detections with no verifier, or negative verification
time.  The SDC counts are read from the run's trace, so they cannot
disagree with it.  The policy itself needs no linter:
:class:`~repro.integrity.policy.IntegrityPolicy` refuses a quarantine
threshold with no verification pass when it is built, and its
verification costs are class constants, so no policy can model a check
as free.

``check_builtin_integrity_artifacts`` is the ``repro lint --integrity``
sweep: synthetic outcome probes must trip C002/C005, and a quick live
run per SDC plan and arm must audit clean.
"""

from __future__ import annotations

from typing import List, Optional

from ..integrity.policy import INTEGRITY_POLICIES, IntegrityPolicy
from .findings import (
    Finding,
    Report,
    Rule,
    Severity,
    reconcile_expected,
    register_rules,
)

__all__ = [
    "lint_integrity_outcome",
    "check_builtin_integrity_artifacts",
]

register_rules(
    "C", "SDC traces", __name__, "--integrity",
    [
        Rule("C002", "corruption-detected-but-served", Severity.ERROR,
             "a verifying run completed requests whose payload the ground "
             "truth marks corrupted — detection exists but the serving "
             "path ignored it"),
        Rule("C005", "integrity-trace-inconsistent", Severity.ERROR,
             "the SDC ledger does not balance: detections exceed "
             "injections, detections with no verifier attached, or "
             "negative verification time"),
    ],
)


def lint_integrity_outcome(
    stats,
    policy: Optional[IntegrityPolicy] = None,
    subject: str = "integrity-run",
) -> List[Finding]:
    """C002/C005 audit over a finished run's ``RuntimeStats``.

    Duck-typed on the stats object, so synthetic probes from tests
    exercise the same path as live runs.
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
    return findings


class _SyntheticStats:
    """Minimal stats double for the outcome probes (duck-typed)."""

    def __init__(self, **kw) -> None:
        self.sdc_injected = kw.get("sdc_injected", 0)
        self.sdc_detected = kw.get("sdc_detected", 0)
        self.corrupted_completed = kw.get("corrupted_completed", 0)
        self.verification_s = kw.get("verification_s", 0.0)


def check_builtin_integrity_artifacts(run_live: bool = True) -> Report:
    """The ``repro lint --integrity`` sweep.

    Two synthetic outcome probes must trip C002 and C005, and (with
    ``run_live``) a quick SDC run per plan and arm must audit clean.
    """
    report = Report()
    report.add_family("C")

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
            context="synthetic outcome probe",
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
            context="synthetic outcome probe",
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
