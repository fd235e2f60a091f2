"""Checks on fleet specs and fleet runs (A rules).

Every replica class a fleet may provision must pass the deployment
(M/T) and KV-plan (K) rules: ``lint_fleet_spec``.  ``lint_fleet_outcome``
audits a finished run (A005): a consistent replica lifecycle log,
non-negative cost, the policy's own bounds respected, and zero leaked
prefix blocks.  (Verdicts need no audit: every routed turn carries a
deadline event that always writes one, and
:meth:`~repro.runtime.scheduler.RuntimeStats.terminate` refuses a
second.)  The autoscaler policy itself needs no linter:
:class:`~repro.fleet.autoscaler.AutoscalerPolicy` refuses a dynamic
policy with no hysteresis band or no replica ceiling when it is built,
and a scale-down always drains.

``check_builtin_fleet_artifacts`` is the sweep ``repro lint --fleet``
runs: every replica class of every builtin fleet through the
deployment and KV rules, and live quick fleet runs, including a fault
arm, through the A005 audit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .deploy_model import (
    kv_plan_for_spec,
    spec_kv_budget_bytes,
    spec_kv_bytes_per_token,
)
from .findings import Finding, Report, Rule, Severity, register_rules
from .plan_lint import lint_deployment, lint_kv_plan

if TYPE_CHECKING:  # repro.fleet imports this package; stay lazy at runtime
    from ..fleet.spec import FleetSpec

__all__ = [
    "lint_fleet_spec",
    "lint_fleet_outcome",
    "check_builtin_fleet_artifacts",
]

register_rules(
    "A", "fleet runs", __name__, "--fleet",
    [
        Rule("A005", "fleet-trace-inconsistent", Severity.ERROR,
             "fleet outcome is inconsistent: a broken replica "
             "lifecycle log, negative cost, a violated replica bound, "
             "or leaked prefix blocks"),
    ],
)


def lint_fleet_spec(fleet: FleetSpec) -> List[Finding]:
    """Every replica class through the existing deployment (M/T) and
    KV-plan (K) rules — a fleet may only provision validated classes."""
    findings: List[Finding] = []
    for cls in fleet.classes:
        spec = cls.deployment_spec()
        findings.extend(lint_deployment(spec))
        findings.extend(
            lint_kv_plan(
                kv_plan_for_spec(spec),
                bytes_per_token=spec_kv_bytes_per_token(spec),
                budget_bytes=spec_kv_budget_bytes(spec),
            )
        )
    return findings


def lint_fleet_outcome(outcome, subject: str = "fleet") -> List[Finding]:
    """A005 audit over a finished :class:`FleetOutcome`.

    Duck-typed so corrupted outcomes from tests exercise the same path
    as live runs.
    """
    findings: List[Finding] = []
    for r in outcome.replicas:
        end = r.billed_until(outcome.makespan_s)
        if end < r.up_s or r.ready_s < r.up_s:
            findings.append(
                Finding(
                    "A005",
                    f"replica {r.name} has an inconsistent lifecycle: "
                    f"up={r.up_s} ready={r.ready_s} down={r.down_s}",
                    subject=subject,
                )
            )
        if r.state == "retired" and r.down_s is None:
            findings.append(
                Finding(
                    "A005",
                    f"replica {r.name} is retired without a "
                    "decommission timestamp — its cost integral is open",
                    subject=subject,
                )
            )
    if outcome.cost_usd < 0:
        findings.append(
            Finding(
                "A005",
                f"negative fleet cost (${outcome.cost_usd})",
                subject=subject,
            )
        )
    policy = outcome.policy
    peak, _ = outcome.replica_extremes()
    if peak > policy.max_replicas:
        findings.append(
            Finding(
                "A005",
                f"peak concurrent replicas {peak} exceeds the policy "
                f"ceiling {policy.max_replicas}",
                subject=subject,
            )
        )
    if outcome.prefix_leaked_blocks:
        findings.append(
            Finding(
                "A005",
                f"{outcome.prefix_leaked_blocks} prefix block(s) leaked "
                "across scale events — KV conservation is broken",
                subject=subject,
            )
        )
    if outcome.slo_attained > len(outcome.stats.completed):
        findings.append(
            Finding(
                "A005",
                f"slo_attained={outcome.slo_attained} exceeds completed "
                f"turns ({len(outcome.stats.completed)})",
                subject=subject,
            )
        )
    return findings


def check_builtin_fleet_artifacts() -> Report:
    """The ``repro lint --fleet`` sweep.

    Validates every builtin fleet spec through the deployment/KV rules,
    then replays quick fleet scenarios (fault-free, a static baseline
    and the chaos-mix arm) and audits each outcome for A005.
    """
    from ..fleet.autoscaler import AUTOSCALER_POLICIES
    from ..fleet.planner import FleetConfig, run_fleet_policy
    from ..fleet.spec import builtin_fleet_specs

    report = Report()
    report.add_family("A")
    for name in sorted(builtin_fleet_specs()):
        report.extend(lint_fleet_spec(builtin_fleet_specs()[name]))
        report.checked += 1
    sweeps = [
        (FleetConfig(quick=True), "target-util"),
        (FleetConfig(quick=True), "static-2"),
        (FleetConfig(quick=True, fault_plan="chaos-mix"), "target-util"),
    ]
    for cfg, policy_name in sweeps:
        outcome = run_fleet_policy(cfg, AUTOSCALER_POLICIES[policy_name])
        subject = (
            f"fleet:{cfg.profile}"
            f"{'/' + cfg.fault_plan if cfg.fault_plan else ''}"
            f"/{policy_name}"
        )
        report.extend(lint_fleet_outcome(outcome, subject=subject))
        report.checked += 1
    return report
