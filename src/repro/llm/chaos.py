"""Chaos harness: recovery policies compared under identical faults.

The question the ROADMAP's capacity-planning goal actually needs
answered is not "how fast is the server?" but "how much of its
throughput survives a GPU crash, and which recovery policy keeps the
most of it?".  This module runs the SAME workload under the SAME pinned
:class:`~repro.runtime.faults.FaultPlan` once per recovery policy and
reports SLO metrics (goodput, availability, retries-per-request, wasted
recompute tokens) side by side.

Everything here is deterministic end to end: the workload comes from a
seeded generator, the fault plan is pinned, backoff jitter is an
integer hash — so ``chaos_report`` produces byte-identical JSON on
every run, and ``tests/test_replay_pins.py`` pins its quick replays by
sha256.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..runtime.faults import (
    RECOVERY_POLICIES,
    FaultPlan,
    FaultTolerantRuntime,
    builtin_fault_plans,
    get_recovery_policy,
)
from ..runtime.request import SessionRequest
from ..runtime.scheduler import RuntimeStats
from .serving import poisson_workload, replica_pools

__all__ = [
    "ChaosConfig",
    "build_chaos_runtime",
    "run_chaos",
    "chaos_report",
]

#: Plans that target the replica router (GPU-level faults) vs the
#: disaggregated runtime (migration faults).
ROUTER_PLANS = ("gpu-crash", "stragglers", "chaos-mix", "sdc-replica", "weight-flip")
DISAGG_PLANS = ("flaky-link", "kv-poison")

#: Prompt tokens of every request in the router workload.
PROMPT_LEN = 64


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos scenario: workload + fleet + fault plan.

    Every replica runs the router's scheduler defaults (FCFS, chunked
    prefill, preemption) over :func:`~repro.llm.serving.replica_pools`.
    """

    model: str = "opt-13b"
    framework: str = "spinfer"
    gpu: str = "RTX4090"
    replicas: int = 2
    num_requests: int = 24
    arrival_rate: float = 4.0
    output_len: int = 96
    seed: int = 3
    plan: str = "gpu-crash"
    #: A custom :class:`FaultPlan` (``repro chaos --plan-file``).  When
    #: set it replaces the builtin ``plan``; the runtime target is
    #: inferred from the events — a plan whose every target is
    #: ``prefill``/``decode`` drives the disaggregated runtime, anything
    #: else the replica router.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError("need at least one replica")
        if self.num_requests <= 0 or self.arrival_rate <= 0:
            raise ValueError("need a positive workload")
        if self.fault_plan is not None:
            return  # a custom plan, not one of the builtins
        known = set(ROUTER_PLANS) | set(DISAGG_PLANS)
        if self.plan not in known:
            raise ValueError(
                f"unknown fault plan {self.plan!r}; "
                f"available: {sorted(known)}"
            )

    def quick(self) -> "ChaosConfig":
        """A smaller copy for smoke tests and the CI gate."""
        from dataclasses import replace

        return replace(self, num_requests=12, output_len=64)


def _workload(cfg: ChaosConfig) -> List[SessionRequest]:
    return poisson_workload(
        cfg.num_requests,
        cfg.arrival_rate,
        prompt_len=PROMPT_LEN,
        output_len=cfg.output_len,
        seed=cfg.seed,
    )


def _fault_plan(cfg: ChaosConfig) -> FaultPlan:
    if cfg.fault_plan is not None:
        return cfg.fault_plan
    return builtin_fault_plans()[cfg.plan]


def _targets_disagg(cfg: ChaosConfig) -> bool:
    """Whether the scenario drives the disaggregated runtime."""
    if cfg.fault_plan is not None:
        events = cfg.fault_plan.events
        return bool(events) and all(
            ev.target in ("prefill", "decode") for ev in events
        )
    return cfg.plan in DISAGG_PLANS


def build_chaos_runtime(
    cfg: ChaosConfig, recovery_name: str, loop=None, integrity=None
) -> FaultTolerantRuntime:
    """Replica fleet + injector for one policy run (router plans only)."""
    if _targets_disagg(cfg):
        raise ValueError(
            f"plan {_fault_plan(cfg).name!r} targets the disaggregated runtime; "
            "use run_chaos()"
        )
    return FaultTolerantRuntime(
        replica_pools(cfg.model, cfg.framework, cfg.gpu, cfg.replicas),
        get_recovery_policy(recovery_name),
        fault_plan=_fault_plan(cfg),
        loop=loop,
        integrity=integrity,
    )


def _run_disagg(
    cfg: ChaosConfig, recovery_name: str, loop=None, integrity=None,
) -> RuntimeStats:
    from .disaggregation import DisaggregatedConfig, build_disaggregated_runtime

    dcfg = DisaggregatedConfig(
        model=cfg.model,
        prefill_framework="fastertransformer",
        decode_framework=cfg.framework,
        gpu=cfg.gpu,
        batch_size=8,
        prompt_len=256,
        output_len=cfg.output_len,
    )
    runtime = build_disaggregated_runtime(
        dcfg,
        recovery=get_recovery_policy(recovery_name),
        fault_plan=_fault_plan(cfg),
        loop=loop,
        integrity=integrity,
    )
    requests = [
        SessionRequest(i, 0.0, dcfg.prompt_len, dcfg.output_len)
        for i in range(dcfg.batch_size)
    ]
    return runtime.run(requests)


def run_chaos(
    cfg: ChaosConfig, recovery_name: str, loop=None, integrity=None,
) -> RuntimeStats:
    """One policy, one plan, one workload — fully deterministic.

    ``loop`` lets the H002 dual replay supply an
    :class:`~repro.runtime.core.EventLoop` with a reversed tie-break.
    ``integrity`` (an :class:`~repro.integrity.policy.IntegrityPolicy`, or
    None) switches on checksum verification and quarantine routing —
    None is bit-identical to the pre-integrity runtime.
    """
    import copy

    if _targets_disagg(cfg):
        return _run_disagg(cfg, recovery_name, loop=loop, integrity=integrity)
    runtime = build_chaos_runtime(cfg, recovery_name, loop=loop, integrity=integrity)
    return runtime.run(copy.deepcopy(_workload(cfg)))


def _policy_metrics(stats: RuntimeStats) -> Dict:
    return {
        "completed": len(stats.completed),
        "rejected": len(stats.rejected),
        "failed": len(stats.failed),
        "shed": len(stats.shed),
        "timed_out": len(stats.timed_out),
        "cancelled": len(stats.cancelled),
        "retries": stats.retries,
        "faults": stats.faults,
        "preemptions": stats.preemptions,
        "wasted_recompute_tokens": stats.wasted_recompute_tokens,
        "goodput_tokens_per_s": round(stats.goodput_tokens_per_s, 6),
        "availability": round(stats.availability, 6),
        "retries_per_request": round(stats.retries_per_request, 6),
        "makespan_s": round(stats.makespan_s, 9),
        "trace_sha256": stats.trace.digest(),
    }


def chaos_report(
    cfg: ChaosConfig, policies: Optional[Sequence[str]] = None
) -> Dict:
    """Every policy against the identical workload + fault plan, as a
    deterministic JSON-ready comparison (``repro chaos --json``)."""
    by_policy = {
        name: _policy_metrics(run_chaos(cfg, name))
        for name in sorted(set(policies or RECOVERY_POLICIES))
    }
    winner = max(
        sorted(by_policy),
        key=lambda name: by_policy[name]["goodput_tokens_per_s"],
    )
    plan = _fault_plan(cfg)
    return {
        "scenario": {
            "model": cfg.model,
            "framework": cfg.framework,
            "gpu": cfg.gpu,
            "replicas": cfg.replicas,
            "num_requests": cfg.num_requests,
            "arrival_rate": cfg.arrival_rate,
            "prompt_len": PROMPT_LEN,
            "output_len": cfg.output_len,
            "seed": cfg.seed,
            "plan": plan.name,
        },
        "fault_plan": plan.to_dict(),
        "policies": by_policy,
        "winner_goodput": winner,
    }


def chaos_report_json(
    cfg: ChaosConfig, policies: Optional[Sequence[str]] = None
) -> str:
    """Byte-stable serialisation: sorted keys, no whitespace drift."""
    return json.dumps(chaos_report(cfg, policies), indent=2, sort_keys=True)
