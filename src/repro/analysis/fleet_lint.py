"""Static checks on autoscaling policies and fleet runs (A rules).

An autoscaler is a feedback controller over real money: a policy with
no hysteresis band oscillates (every scale-up is undone one evaluation
later — paying the boot cost of a replica for zero served tokens), a
scale-down that aborts in-flight work converts elasticity into an
outage, and a missing replica ceiling turns one traffic spike into an
unbounded bill.  ``lint_autoscaler_policy`` catches those shapes
*before* a fleet run (A001–A004); ``lint_fleet_outcome`` audits the
run afterwards (A005): every submitted turn in exactly one terminal
bucket across all scale events, a consistent replica lifecycle log,
non-negative cost, the policy's own bounds respected, and zero leaked
prefix blocks.

``check_builtin_fleet_artifacts`` is the sweep ``repro lint --fleet``
runs: every replica class of every builtin fleet must pass the
existing M/T (deployment) and K (KV-plan) rules; the shipped
autoscaler policies must lint clean; each fixture in
:data:`~repro.fleet.autoscaler.BROKEN_AUTOSCALER_POLICIES` must trip
exactly its documented rules; and live quick fleet runs — including a
fault arm and the kill-in-flight fixture — must pass the A005 audit
and the runtime-trace rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .deploy_model import (
    kv_plan_for_spec,
    spec_kv_budget_bytes,
    spec_kv_bytes_per_token,
)
from .fault_lint import lint_terminal_partition
from .findings import (
    Finding,
    Report,
    Rule,
    Severity,
    reconcile_expected,
    register_rules,
)
from .plan_lint import lint_deployment, lint_kv_plan

if TYPE_CHECKING:  # repro.fleet imports this package; stay lazy at runtime
    from ..fleet.autoscaler import AutoscalerPolicy
    from ..fleet.spec import FleetSpec

__all__ = [
    "MAX_SANE_REPLICAS",
    "lint_autoscaler_policy",
    "lint_fleet_spec",
    "lint_fleet_outcome",
    "check_builtin_fleet_artifacts",
]

register_rules(
    "A", "autoscaling policies and fleet runs", __name__, "--fleet",
    [
        Rule("A001", "scale-flapping", Severity.ERROR,
             "no cooldown or no hysteresis band between the scale-up and "
             "scale-down thresholds — consecutive evaluations can reverse "
             "each other, paying boot cost for zero served tokens"),
        Rule("A002", "scale-down-data-loss", Severity.ERROR,
             "scale-down aborts in-flight requests instead of draining; "
             "every downscale event is a configured mini-outage"),
        Rule("A003", "unbounded-scale-up-cost", Severity.ERROR,
             "no (or an absurd) replica ceiling: a traffic spike or a "
             "feedback bug writes a blank check against the fleet budget"),
        Rule("A004", "drain-without-migration", Severity.ERROR,
             "drained replicas drop their session KV prefixes instead of "
             "migrating them — every surviving session silently re-pays "
             "its whole prefill after each scale-down"),
        Rule("A005", "fleet-trace-inconsistent", Severity.ERROR,
             "fleet outcome violates conservation: submitted turns not "
             "partitioned into terminal buckets, an inconsistent replica "
             "lifecycle log, negative cost, a violated replica bound, or "
             "leaked prefix blocks"),
    ],
)

#: A replica ceiling above this is indistinguishable from "unbounded"
#: for the fleets the simulator models (single-digit replica counts).
MAX_SANE_REPLICAS = 64


def lint_autoscaler_policy(policy: AutoscalerPolicy) -> List[Finding]:
    """A001–A004 over one :class:`AutoscalerPolicy`."""
    findings: List[Finding] = []
    subject = f"autoscaler:{policy.name}"
    dynamic = policy.mode != "static"

    if dynamic and policy.cooldown_s <= 0:
        findings.append(
            Finding(
                "A001",
                f"cooldown_s={policy.cooldown_s} — nothing stops the next "
                "evaluation from reversing this one; scale decisions can "
                f"flap every {policy.interval_s}s",
                subject=subject,
            )
        )
    if dynamic and policy.down_target >= policy.target:
        findings.append(
            Finding(
                "A001",
                f"down_target={policy.down_target} >= target="
                f"{policy.target}: the hysteresis band is empty, so one "
                "signal value can trigger scale-up and scale-down "
                "simultaneously",
                subject=subject,
            )
        )
    if dynamic and policy.kill_in_flight:
        findings.append(
            Finding(
                "A002",
                "kill_in_flight=True: scale-down aborts resident requests "
                "instead of draining them — elasticity configured as data "
                "loss",
                subject=subject,
            )
        )
    if dynamic and (
        policy.max_replicas is None
        or policy.max_replicas > MAX_SANE_REPLICAS
    ):
        ceiling = (
            "absent"
            if policy.max_replicas is None
            else f"{policy.max_replicas}"
        )
        findings.append(
            Finding(
                "A003",
                f"max_replicas is {ceiling} (sane bound "
                f"{MAX_SANE_REPLICAS}): a spike or a stuck-high signal "
                "provisions replicas without limit",
                subject=subject,
            )
        )
    if dynamic and not policy.migrate_kv:
        findings.append(
            Finding(
                "A004",
                "migrate_kv=False: drained replicas drop session prefixes, "
                "so every scale-down silently re-prefills surviving "
                "sessions' history",
                subject=subject,
            )
        )
    return findings


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
    """A005 conservation audit over a finished :class:`FleetOutcome`.

    Duck-typed (like the R005 audit) so corrupted outcomes from tests
    exercise the same path as live runs.
    """
    stats = outcome.stats
    findings, terminal = lint_terminal_partition(stats, "A005", "turn", subject)
    if terminal != outcome.turns_submitted:
        findings.append(
            Finding(
                "A005",
                f"{outcome.turns_submitted} turns submitted but "
                f"{terminal} landed in terminal buckets — work was lost "
                "or double-counted across scale events",
                subject=subject,
            )
        )
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
    if policy.max_replicas is not None and peak > policy.max_replicas:
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
    if outcome.slo_attained > len(stats.completed):
        findings.append(
            Finding(
                "A005",
                f"slo_attained={outcome.slo_attained} exceeds completed "
                f"turns ({len(stats.completed)})",
                subject=subject,
            )
        )
    return findings


def check_builtin_fleet_artifacts(run_fleet: bool = True) -> Report:
    """The ``repro lint --fleet`` sweep.

    Validates every builtin fleet spec through the deployment/KV rules,
    lints every shipped autoscaler policy (good clean, broken
    reconciled), and — when ``run_fleet`` is set — replays quick fleet
    scenarios (fault-free, the chaos-mix arm, and the kill-in-flight
    fixture) and audits each outcome for A005 conservation plus the
    runtime-trace rules.
    """
    from ..fleet.autoscaler import (
        AUTOSCALER_POLICIES,
        BROKEN_AUTOSCALER_POLICIES,
    )
    from ..fleet.spec import builtin_fleet_specs

    report = Report()
    report.add_family("A")
    for name in sorted(builtin_fleet_specs()):
        report.extend(lint_fleet_spec(builtin_fleet_specs()[name]))
        report.checked += 1
    for name in sorted(AUTOSCALER_POLICIES):
        report.extend(lint_autoscaler_policy(AUTOSCALER_POLICIES[name]))
        report.checked += 1
    for name in sorted(BROKEN_AUTOSCALER_POLICIES):
        policy, expected = BROKEN_AUTOSCALER_POLICIES[name]
        report.extend(
            reconcile_expected(
                lint_autoscaler_policy(policy),
                expected,
                subject=f"autoscaler:{policy.name}",
                context="builtin broken policy",
            )
        )
        report.checked += 1
    if run_fleet:
        from ..fleet.planner import FleetConfig, run_fleet_policy
        from .plan_lint import lint_runtime_trace

        sweeps = [
            (FleetConfig(quick=True), "target-util"),
            (FleetConfig(quick=True), "static-2"),
            (FleetConfig(quick=True, fault_plan="chaos-mix"), "target-util"),
        ]
        for cfg, policy_name in sweeps:
            outcome = run_fleet_policy(
                cfg, AUTOSCALER_POLICIES[policy_name]
            )
            subject = (
                f"fleet:{cfg.profile}"
                f"{'/' + cfg.fault_plan if cfg.fault_plan else ''}"
                f"/{policy_name}"
            )
            report.extend(lint_fleet_outcome(outcome, subject=subject))
            report.extend(lint_runtime_trace(outcome.stats.trace))
            report.checked += 1
        # The A002 fixture run: losses must be *accounted* (shed), so
        # even deliberate data loss keeps A005 conservation clean.
        reaper, _expected = BROKEN_AUTOSCALER_POLICIES["reaper"]
        outcome = run_fleet_policy(FleetConfig(quick=True), reaper)
        report.extend(
            lint_fleet_outcome(outcome, subject="fleet:diurnal/reaper")
        )
        report.checked += 1
    return report
