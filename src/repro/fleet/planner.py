"""The capacity planner: policy × replica-mix sweep → Pareto frontier.

``repro fleet`` answers the question the paper's kernel-level savings
ultimately feed: *how much deployed hardware does a traffic curve
actually need?*  The planner runs one pinned workload through every
policy under comparison — static provisioning baselines and the
dynamic autoscalers — and places each run on a cost-vs-goodput plane:

* **cost** — integrated replica-hours × $/GPU-hour (booting and
  draining replicas bill too; that lag is the price of elasticity);
* **goodput** — completed output tokens per second, with
  ``slo_attainment`` (turns completed within the TTFT SLO) as the
  quality-of-service axis static provisioning is judged on.

The frontier is the non-dominated set; ``dominates`` names, for every
dynamic policy, the static baselines it beats outright (strictly lower
cost, equal-or-better goodput SLO and availability) — the claim the
tests assert on the ``ext_fleet`` experiment and on the quick replays,
fault-free and under the chaos-mix fault plan.

Everything is a pure function of (fleet, profile, policy set, fault
plan, seed): :func:`fleet_report_json` serialises with sorted keys and
pinned rounding, so two runs are byte-identical
(``tests/test_replay_pins.py`` pins the quick replays by sha256).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..runtime.faults import builtin_fault_plans, get_recovery_policy
from .autoscaler import AUTOSCALER_POLICIES, AutoscalerPolicy
from .simulator import SLO_TTFT_S, FleetOutcome, FleetSimulator
from .spec import FleetSpec, builtin_fleet_specs
from .traffic import TrafficProfile, builtin_traffic_profiles, generate_sessions

__all__ = [
    "FleetConfig",
    "run_fleet_policy",
    "pareto_frontier",
    "fleet_report",
    "fleet_report_json",
]

#: Sweep order: baselines first, then the dynamic policies.
DEFAULT_POLICIES: Tuple[str, ...] = (
    "static-2",
    "static-3",
    "static-4",
    "target-util",
    "queue-depth",
)


@dataclass(frozen=True)
class FleetConfig:
    """One planner scenario: fleet + traffic + policy set (+ faults)."""

    fleet: str = "consumer-mix"
    profile: str = "diurnal"
    policies: Tuple[str, ...] = DEFAULT_POLICIES
    recovery: str = "reroute"
    #: None = fault-free; a builtin plan name injects faults mid-run.
    fault_plan: Optional[str] = None
    #: Traffic seed override (None = the profile's pinned seed).
    seed: Optional[int] = None
    quick: bool = False

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("sweep needs at least one policy")
        for name in self.policies:
            if name not in AUTOSCALER_POLICIES:
                raise KeyError(
                    f"unknown autoscaler policy {name!r}; "
                    f"builtin: {sorted(AUTOSCALER_POLICIES)}"
                )

    def fleet_spec(self) -> FleetSpec:
        return builtin_fleet_specs()[self.fleet]

    def traffic(self) -> TrafficProfile:
        profile = builtin_traffic_profiles()[self.profile]
        if self.seed is not None:
            profile = replace(profile, seed=self.seed)
        if self.quick:
            profile = profile.quick()
        return profile


def run_fleet_policy(
    cfg: FleetConfig,
    policy: AutoscalerPolicy,
    loop=None,
) -> FleetOutcome:
    """Run the scenario's pinned workload through one policy.

    ``loop`` is the H002 dual replay's hook, as in
    :func:`~repro.llm.chaos.run_chaos`: a tie-break-reversed loop.
    """
    profile = cfg.traffic()
    plan = (
        builtin_fault_plans()[cfg.fault_plan]
        if cfg.fault_plan is not None
        else None
    )
    sim = FleetSimulator(
        cfg.fleet_spec(),
        policy,
        get_recovery_policy(cfg.recovery),
        fault_plan=plan,
        horizon_s=profile.horizon_s,
        loop=loop,
    )
    return sim.run(generate_sessions(profile))


def pareto_frontier(
    points: Dict[str, Tuple[float, float]],
) -> List[str]:
    """Names whose (cost, goodput) no other point dominates.  ``a``
    dominates ``b`` when it is no worse on both axes (cost lower-or-
    equal, goodput higher-or-equal) and strictly better on one."""
    names = sorted(points)
    front = []
    for name in names:
        cost, good = points[name]
        dominated = any(
            (points[o][0] <= cost and points[o][1] >= good)
            and (points[o][0] < cost or points[o][1] > good)
            for o in names
            if o != name
        )
        if not dominated:
            front.append(name)
    return front


def _outcome_dict(outcome: FleetOutcome) -> Dict:
    stats = outcome.stats
    peak, trough = outcome.replica_extremes()
    by_class: Dict[str, float] = {}
    for r in outcome.replicas:
        seconds = max(
            0.0, r.billed_until(outcome.makespan_s) - r.up_s
        )
        by_class[r.cls.name] = by_class.get(r.cls.name, 0.0) + seconds
    return {
        "turns": {
            "submitted": outcome.turns_submitted,
            "completed": len(stats.completed),
            "rejected": len(stats.rejected),
            "failed": len(stats.failed),
            "shed": len(stats.shed),
            "timed_out": len(stats.timed_out),
            "cancelled": len(stats.cancelled),
        },
        "sessions": {
            "submitted": outcome.sessions_submitted,
            "completed": outcome.sessions_completed,
            "aborted": outcome.sessions_aborted,
        },
        "scaling": {
            "scale_ups": outcome.scale_ups,
            "scale_downs": outcome.scale_downs,
            "scale_denied": outcome.scale_denied,
            "drains": outcome.drains,
            "kills": outcome.kills,
            "peak_replicas": peak,
            "trough_replicas": trough,
            "replica_seconds_by_class": {
                k: round(v, 9) for k, v in sorted(by_class.items())
            },
        },
        "kv_migration": {
            "migrations": outcome.kv_migrations,
            "migrated_tokens": outcome.kv_migrated_tokens,
            "drops": outcome.kv_migration_drops,
            "leaked_blocks": outcome.prefix_leaked_blocks,
        },
        "cost": {
            "usd": round(outcome.cost_usd, 9),
            "replica_seconds": round(outcome.replica_seconds, 9),
            "usd_per_mtok": (
                round(outcome.cost_per_mtok, 9)
                if outcome.cost_per_mtok != float("inf")
                else None
            ),
        },
        "service": {
            "goodput_tokens_per_s": round(stats.goodput_tokens_per_s, 6),
            "availability": round(stats.availability, 6),
            "slo_ttft_s": SLO_TTFT_S,
            "slo_attainment": round(outcome.slo_attainment, 6),
            "makespan_s": round(outcome.makespan_s, 9),
            "faults": stats.faults,
            "retries": stats.retries,
            "preemptions": stats.preemptions,
        },
        "trace_sha256": stats.trace.digest(),
    }


def fleet_report(cfg: FleetConfig) -> Dict:
    """Deterministic JSON-ready sweep summary (``repro fleet --json``)."""
    profile = cfg.traffic()
    outcomes: Dict[str, FleetOutcome] = {}
    for name in cfg.policies:
        outcomes[name] = run_fleet_policy(cfg, AUTOSCALER_POLICIES[name])
    points = {
        name: (
            round(out.cost_usd, 9),
            round(out.stats.goodput_tokens_per_s, 6),
        )
        for name, out in outcomes.items()
    }
    frontier = pareto_frontier(points)
    statics = {
        n for n in outcomes if AUTOSCALER_POLICIES[n].mode == "static"
    }
    dominates: Dict[str, List[str]] = {}
    for name, out in sorted(outcomes.items()):
        if name in statics:
            continue
        beaten = [
            s
            for s in sorted(statics)
            if out.cost_usd < outcomes[s].cost_usd
            and out.slo_attainment >= outcomes[s].slo_attainment
            and out.stats.availability >= outcomes[s].stats.availability
        ]
        dominates[name] = beaten
    scale = profile.scale_factor()
    peak_by_policy = {
        name: out.replica_extremes()[0] for name, out in outcomes.items()
    }
    return {
        "scenario": {
            "fleet": cfg.fleet,
            "profile": cfg.profile,
            "recovery": cfg.recovery,
            "fault_plan": cfg.fault_plan,
            "seed": profile.seed,
            "quick": cfg.quick,
            "policies": list(cfg.policies),
        },
        "traffic": {
            "shape": profile.shape,
            "horizon_s": profile.horizon_s,
            "base_rate": profile.base_rate,
            "peak_rate": profile.peak_rate,
            "mean_rate": round(profile.mean_rate(), 6),
            "sessions": len(generate_sessions(profile)),
            "modeled_users": profile.modeled_users,
            "scale_factor": round(scale, 6),
        },
        "policies": {
            name: _outcome_dict(out)
            for name, out in sorted(outcomes.items())
        },
        "pareto_frontier": frontier,
        "dominates": dominates,
        "fleet_scale": {
            # The simulated workload is a 1-in-scale_factor sample of
            # the modeled population: extrapolated peak fleet size and
            # $/hour at peak, per policy.
            name: {
                "peak_replicas": round(peak_by_policy[name] * scale, 1),
                "usd_per_hour_at_peak": round(
                    sum(
                        sorted(
                            r.cls.hourly_cost
                            for r in outcomes[name].replicas
                        )[: peak_by_policy[name]]
                    )
                    * scale,
                    2,
                ),
            }
            for name in sorted(outcomes)
        },
    }


def fleet_report_json(cfg: FleetConfig) -> str:
    """Byte-stable serialisation: sorted keys, pinned rounding."""
    payload = {"schema": "repro-fleet/v1", "report": fleet_report(cfg)}
    return json.dumps(payload, indent=2, sort_keys=True)
