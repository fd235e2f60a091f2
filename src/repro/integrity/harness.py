"""The integrity experiment: detection rate vs goodput under SDC.

Runs the SAME silent-data-corruption fault plans, workload, and seeds
under three arms —

``verify-off``
    No integrity policy at all (the control arm).  Corruptions land
    silently; the ground-truth ``corrupted_completed`` counter shows
    how many poisoned requests a real server would have served.
``verify-on``
    The ``verify`` policy: ABFT kernel checks, weight digests, and KV
    content tags every iteration and on every migration receive.
``quarantine``
    ``verify`` plus replica quarantine after 3 detections: the router
    stops trusting hardware that keeps corrupting.

— and reports detection rate, false negatives (corrupted requests that
completed anyway), goodput, and the modelled verification overhead per
arm.  Everything is deterministic: ``integrity_report_json`` is
byte-identical across runs, and ``tests/test_replay_pins.py`` pins its
quick replays by sha256.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..llm.chaos import PROMPT_LEN, ChaosConfig, run_chaos
from ..runtime.scheduler import RuntimeStats
from .policy import INTEGRITY_POLICIES, IntegrityPolicy

__all__ = [
    "SDC_ROUTER_PLANS",
    "SDC_DISAGG_PLANS",
    "IntegrityConfig",
    "run_integrity",
    "integrity_report",
    "integrity_report_json",
]

#: The silent-corruption builtin plans, by target runtime.
SDC_ROUTER_PLANS: Tuple[str, ...] = ("sdc-replica", "weight-flip")
SDC_DISAGG_PLANS: Tuple[str, ...] = ("kv-poison",)

#: Arm name -> integrity policy (None = the control arm).
_ARMS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("verify-off", None),
    ("verify-on", "verify"),
    ("quarantine", "quarantine"),
)


@dataclass(frozen=True)
class IntegrityConfig:
    """One integrity experiment: a chaos scenario run once per SDC plan.

    Every arm and plan shares ``chaos`` (workload, fleet and seeds);
    each run replaces only its ``plan``.
    """

    chaos: ChaosConfig = ChaosConfig()
    #: Recovery policy shared by every arm — quarantine reuses its
    #: reroute machinery, so the arms differ ONLY in integrity.
    recovery: str = "reroute"
    plans: Tuple[str, ...] = SDC_ROUTER_PLANS + SDC_DISAGG_PLANS

    def __post_init__(self) -> None:
        if self.chaos.fault_plan is not None:
            raise ValueError("integrity runs its builtin SDC plans, not a custom one")
        if not self.plans:
            raise ValueError("need at least one fault plan")
        known = set(SDC_ROUTER_PLANS) | set(SDC_DISAGG_PLANS)
        unknown = [p for p in self.plans if p not in known]
        if unknown:
            raise ValueError(
                f"not SDC plans: {unknown}; available: {sorted(known)}"
            )

    def quick(self) -> "IntegrityConfig":
        """A smaller copy for smoke tests and the CI gate."""
        return replace(self, chaos=self.chaos.quick())


def run_integrity(
    cfg: IntegrityConfig,
) -> Dict[str, Dict[str, RuntimeStats]]:
    """Every arm x every plan, identical workload and seeds.

    Returns ``{arm: {plan: stats}}``.
    """
    results: Dict[str, Dict[str, RuntimeStats]] = {}
    for arm, policy_name in _ARMS:
        policy: Optional[IntegrityPolicy] = (
            INTEGRITY_POLICIES[policy_name] if policy_name else None
        )
        results[arm] = {
            plan: run_chaos(
                replace(cfg.chaos, plan=plan), cfg.recovery, integrity=policy
            )
            for plan in cfg.plans
        }
    return results


def _plan_metrics(stats: RuntimeStats) -> Dict:
    injected = stats.sdc_injected
    detected = stats.sdc_detected
    return {
        "sdc_injected": injected,
        "sdc_detected": detected,
        "detection_rate": round(detected / injected, 6) if injected else 1.0,
        "corrupted_completed": stats.corrupted_completed,
        "quarantines": stats.quarantines,
        "completed": len(stats.completed),
        "failed": len(stats.failed),
        "retries": stats.retries,
        "verification_s": round(stats.verification_s, 9),
        "goodput_tokens_per_s": round(stats.goodput_tokens_per_s, 6),
        "makespan_s": round(stats.makespan_s, 9),
        "trace_sha256": stats.trace.digest(),
    }


def _arm_summary(by_plan: Dict[str, Dict]) -> Dict:
    plans = [by_plan[name] for name in sorted(by_plan)]
    injected = sum(m["sdc_injected"] for m in plans)
    detected = sum(m["sdc_detected"] for m in plans)
    return {
        "sdc_injected": injected,
        "sdc_detected": detected,
        "detection_rate": round(detected / injected, 6) if injected else 1.0,
        "false_negatives": sum(m["corrupted_completed"] for m in plans),
        "quarantines": sum(m["quarantines"] for m in plans),
        "verification_s": round(
            sum(m["verification_s"] for m in plans), 9
        ),
        "goodput_tokens_per_s": round(
            sum(m["goodput_tokens_per_s"] for m in plans), 6
        ),
    }


def integrity_report(cfg: IntegrityConfig) -> Dict:
    """Deterministic JSON-ready report (``repro integrity --json``)."""
    results = run_integrity(cfg)
    arms = {}
    for arm in sorted(results):
        by_plan = {
            plan: _plan_metrics(stats)
            for plan, stats in sorted(results[arm].items())
        }
        arms[arm] = {"plans": by_plan, "summary": _arm_summary(by_plan)}
    off = arms["verify-off"]["summary"]
    on = arms["verify-on"]["summary"]
    overhead = 0.0
    if off["goodput_tokens_per_s"] > 0:
        overhead = 1.0 - on["goodput_tokens_per_s"] / off["goodput_tokens_per_s"]
    chaos = cfg.chaos
    return {
        "schema": "repro-integrity/v1",
        "scenario": {
            "model": chaos.model,
            "framework": chaos.framework,
            "gpu": chaos.gpu,
            "replicas": chaos.replicas,
            "num_requests": chaos.num_requests,
            "arrival_rate": chaos.arrival_rate,
            "prompt_len": PROMPT_LEN,
            "output_len": chaos.output_len,
            "seed": chaos.seed,
            "recovery": cfg.recovery,
            "plans": list(cfg.plans),
        },
        "arms": arms,
        "headline": {
            "detection_rate_verify_on": on["detection_rate"],
            "false_negatives_verify_on": on["false_negatives"],
            "served_corrupted_verify_off": off["false_negatives"],
            "goodput_cost_frac": round(overhead, 6),
        },
    }


def integrity_report_json(cfg: IntegrityConfig) -> str:
    """Byte-stable serialisation: sorted keys, no whitespace drift."""
    return json.dumps(integrity_report(cfg), indent=2, sort_keys=True)
