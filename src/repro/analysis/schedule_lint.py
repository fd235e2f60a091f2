"""Schedule-race detection by dual replay (H002).

The event runtime's determinism contract says same-timestamp events
fire in ``(phase, insertion)`` order — but nothing *proves* observable
state never depends on the insertion half of that tie-break.  H002
checks exactly that: run the identical scenario twice, once with FIFO
and once with LIFO insertion tie-breaking, and require the observable
behaviour (canonicalised trace + terminal stats, and for the server
its token stream) to be identical.  Any divergence is a real race,
wherever it hides.

The loop guards the rest of its contract itself: ``schedule_at``
rejects non-finite and past times, handles come from a monotone
sequence so a stale ``cancel`` returns False without touching a live
event, and ``run``'s event budget stops a same-instant spin.

``check_builtin_schedules`` is the ``repro lint --schedule`` sweep:
every builtin serving / disaggregation / chaos / server / fleet
scenario must pass dual replay, while the deliberately broken schedule
in :data:`BROKEN_SCHEDULES` must trip it (a missing expected finding
is an error — the checker itself regressed).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime.core import EventLoop
from ..runtime.trace import RuntimeTrace
from .fault_lint import TERMINAL_BUCKETS
from .findings import (
    Finding,
    Report,
    Rule,
    Severity,
    reconcile_expected,
    register_rules,
)

__all__ = [
    "dual_replay",
    "builtin_schedule_scenarios",
    "BROKEN_SCHEDULES",
    "check_builtin_schedules",
]

register_rules(
    "H", "schedule races (dual replay)", __name__, "--schedule",
    [
        Rule("H002", "dual-replay-divergence", Severity.ERROR,
             "observable trace/stats diverge when same-time insertion "
             "tie-breaking is reversed — a real schedule race"),
    ],
)

#: A scenario builds and runs a workload on the supplied loop and
#: returns its terminal stats (with a ``trace``).
Scenario = Callable[[EventLoop], object]


# ---------------------------------------------------------------------------
# H002: dual replay
# ---------------------------------------------------------------------------


def _canonical_log(trace: RuntimeTrace) -> List[Tuple]:
    """Event keys in time order, with same-instant keys canonically
    ordered: simultaneous causally-unrelated emissions (e.g. two
    arrivals at one instant) may legally dispatch in either order."""
    return sorted(
        (e.key() for e in trace.events), key=lambda k: (k[0], repr(k))
    )


def _stats_digest(stats) -> Dict:
    digest: Dict = {
        "makespan_s": round(float(getattr(stats, "makespan_s", 0.0)), 9)
    }
    for bucket in TERMINAL_BUCKETS:
        digest[bucket] = sorted(
            r.request_id for r in getattr(stats, bucket, ())
        )
    for counter in (
        "iterations", "preemptions", "retries", "faults",
        "wasted_recompute_tokens",
    ):
        digest[counter] = getattr(stats, counter, 0)
    digest["stream"] = getattr(stats, "stream", None)
    return digest


def dual_replay(scenario: Scenario, subject: str = "schedule") -> List[Finding]:
    """H002: the scenario must behave identically under both tie-breaks."""
    stats_fifo = scenario(EventLoop(tie_break="fifo"))
    stats_lifo = scenario(EventLoop(tie_break="lifo"))
    findings: List[Finding] = []

    digest_fifo = _stats_digest(stats_fifo)
    digest_lifo = _stats_digest(stats_lifo)
    if digest_fifo != digest_lifo:
        diffs = [
            k for k in digest_fifo if digest_fifo[k] != digest_lifo[k]
        ]
        findings.append(
            Finding(
                "H002",
                "terminal stats diverge when the insertion tie-break is "
                f"reversed (fields: {', '.join(diffs)}) — observable "
                "outcomes depend on scheduling accidents",
                subject=subject,
            )
        )

    log_fifo = _canonical_log(stats_fifo.trace)
    log_lifo = _canonical_log(stats_lifo.trace)
    if log_fifo != log_lifo:
        first = next(
            (
                i
                for i, (a, b) in enumerate(zip(log_fifo, log_lifo))
                if a != b
            ),
            min(len(log_fifo), len(log_lifo)),
        )
        detail = (
            f"first divergence at canonical index {first}: "
            f"fifo={log_fifo[first] if first < len(log_fifo) else '<end>'} "
            f"vs lifo={log_lifo[first] if first < len(log_lifo) else '<end>'}"
        )
        findings.append(
            Finding(
                "H002",
                "event traces diverge when the insertion tie-break is "
                f"reversed ({detail})",
                subject=subject,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# builtin scenarios
# ---------------------------------------------------------------------------


def _serving_scenario(policy: str, chunked: bool) -> Scenario:
    def scenario(loop: EventLoop):
        from ..llm.serving import ServingConfig, ServingSimulator, poisson_workload

        cfg = ServingConfig(
            model="opt-13b",
            framework="spinfer",
            gpu="RTX4090",
            max_batch=8,
            policy=policy,
            chunked_prefill=chunked,
            preemption=chunked,
            kv_cap_tokens=20000,
        )
        sched = ServingSimulator(cfg).build_scheduler()
        requests = poisson_workload(
            12, 6.0, prompt_len=64, output_len=48, seed=5
        )
        return sched.run(requests, loop=loop)

    return scenario


def _disagg_scenario() -> Scenario:
    def scenario(loop: EventLoop):
        from ..llm.disaggregation import (
            DisaggregatedConfig,
            build_disaggregated_runtime,
        )
        from ..runtime.request import SessionRequest

        dcfg = DisaggregatedConfig(
            model="opt-13b",
            prefill_framework="fastertransformer",
            decode_framework="spinfer",
            gpu="RTX4090",
            batch_size=8,
            prompt_len=256,
            output_len=32,
        )
        runtime = build_disaggregated_runtime(dcfg, loop=loop)
        # Every request lands at t=0: the same-instant-arrival stressor
        # — one batch must form regardless of dispatch permutation.
        requests = [
            SessionRequest(i, 0.0, dcfg.prompt_len, dcfg.output_len)
            for i in range(dcfg.batch_size)
        ]
        return runtime.run(requests)

    return scenario


def _chaos_scenario(plan: str, policy: str) -> Scenario:
    def scenario(loop: EventLoop):
        from ..llm.chaos import ChaosConfig, run_chaos

        cfg = ChaosConfig(plan=plan).quick()
        return run_chaos(cfg, policy, loop=loop)

    return scenario


def _server_scenario(plan: Optional[str]) -> Scenario:
    def scenario(loop: EventLoop):
        from ..server.streaming import ServerConfig, build_server

        cfg = ServerConfig(fault_plan=plan).quick()
        server = build_server(cfg, loop=loop)
        stats = server.run(cfg.workload())
        # The token stream is the server's observable output: H002
        # compares it along with the trace and the terminal stats.
        return SimpleNamespace(**vars(stats), stream=server.stream.keys())

    return scenario


def _fleet_scenario(plan: Optional[str]) -> Scenario:
    def scenario(loop: EventLoop):
        from ..fleet.autoscaler import AUTOSCALER_POLICIES
        from ..fleet.planner import FleetConfig, run_fleet_policy

        return run_fleet_policy(
            FleetConfig(fault_plan=plan, quick=True),
            AUTOSCALER_POLICIES["target-util"],
            loop=loop,
        ).stats

    return scenario


def builtin_schedule_scenarios() -> Dict[str, Scenario]:
    """Every scenario the schedule sweep dual-replays:
    plain serving (both policies), plain disaggregation, one recovery
    policy per builtin fault plan, and the quick streaming server and
    autoscaled fleet, each fault-free and under faults."""
    return {
        "serving-fcfs-chunked": _serving_scenario("fcfs", chunked=True),
        "serving-sjf-blocking": _serving_scenario("sjf", chunked=False),
        "disagg-plain": _disagg_scenario(),
        "chaos-gpu-crash/reroute": _chaos_scenario("gpu-crash", "reroute"),
        "chaos-stragglers/retry": _chaos_scenario("stragglers", "retry"),
        "chaos-chaos-mix/reroute": _chaos_scenario("chaos-mix", "reroute"),
        "chaos-flaky-link/retry": _chaos_scenario("flaky-link", "retry"),
        "server-quick": _server_scenario(None),
        "server-quick/gpu-crash": _server_scenario("gpu-crash"),
        "fleet-quick/target-util": _fleet_scenario(None),
        "fleet-quick/target-util/chaos-mix": _fleet_scenario("chaos-mix"),
    }


# ---------------------------------------------------------------------------
# broken fixture
# ---------------------------------------------------------------------------


def _broken_order_dependent(loop: EventLoop):
    """Terminal state depends on which same-time callback runs first."""
    trace = RuntimeTrace()
    cell = {"x": 1.0}

    def double() -> None:
        cell["x"] *= 2.0

    def add() -> None:
        cell["x"] += 3.0

    loop.schedule_at(1.0, double)
    loop.schedule_at(1.0, add)
    loop.schedule_at(
        2.0, lambda: trace.record(2.0, "finish", 0, "toy", x=cell["x"])
    )
    loop.run()
    return SimpleNamespace(trace=trace, makespan_s=loop.now)


#: name -> (scenario, expected rule ids).
BROKEN_SCHEDULES: Dict[str, Tuple[Scenario, Tuple[str, ...]]] = {
    "order-dependent": (_broken_order_dependent, ("H002",)),
}


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def check_builtin_schedules() -> Report:
    """The ``repro lint --schedule`` sweep.

    Dual-replays every builtin scenario (H002), then reconciles the
    deliberately broken schedule against its expected rule.
    """
    report = Report()
    report.add_family("H")
    scenarios = builtin_schedule_scenarios()
    for name in sorted(scenarios):
        report.extend(dual_replay(scenarios[name], subject=f"schedule:{name}"))
        report.checked += 1
    for name in sorted(BROKEN_SCHEDULES):
        scenario, expected = BROKEN_SCHEDULES[name]
        subject = f"schedule:broken:{name}"
        report.extend(
            reconcile_expected(
                dual_replay(scenario, subject=subject), expected, subject,
                context="builtin broken schedule",
            )
        )
        report.checked += 1
    return report
