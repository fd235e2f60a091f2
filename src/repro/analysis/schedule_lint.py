"""Happens-before schedule-race detection (H rules).

The event runtime's determinism contract says same-timestamp events
fire in ``(phase, insertion)`` order — but nothing *proves* observable
state never depends on the insertion half of that tie-break.  This
module instruments real runs and checks exactly that:

* **H001** — over a recorded :class:`~repro.runtime.schedule_log.
  ScheduleLog`: two events dispatched at one instant whose write-sets
  intersect, with no phase separation and no causal (scheduled-by)
  ancestry between them.  Their order is a scheduling accident; the
  state they both touch is a race.  Warning severity: write-sets are a
  dynamic over-approximation (derived from trace emissions), so H001 is
  the cheap screen and H002 the semantic verdict.
* **H002** — dual replay: run the identical scenario twice, once with
  FIFO and once with LIFO insertion tie-breaking, and require the
  observable behaviour (canonicalised trace + terminal stats) to be
  identical.  Any divergence is a real race, wherever it hides.
* **H003** — a recorded event fires at a non-finite time or before the
  instant that scheduled it.  The live loop rejects both at
  ``schedule_at`` time; this audits logs that arrive by other routes
  (deserialised artifacts, hand-built fixtures) — the same
  trust-nothing posture as the R005 trace audits.
* **H004** — ``cancel()`` on a handle that already fired or was
  already cancelled: stale bookkeeping in the caller that one day
  cancels a *reused* live handle.
* **H005** — a same-timestamp causal chain deeper than
  :data:`CASCADE_THRESHOLD`: events scheduling events at one instant
  without bound, so the clock cannot advance (the legacy admission
  spin, caught structurally).

``check_builtin_schedules`` is the ``repro lint --schedule`` sweep:
every builtin serving / disaggregation / chaos / server / fleet
scenario must produce a race-free schedule log AND pass dual replay
(for the server, its token stream too), while the deliberately
broken schedules in :data:`BROKEN_SCHEDULES` must trip exactly their
documented rules (a missing expected finding is an error — the checker
itself regressed).
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime.core import EventLoop
from ..runtime.schedule_log import ScheduleLog, ScheduleRecord, ScheduleRecorder
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
    "CASCADE_THRESHOLD",
    "lint_schedule_log",
    "dual_replay",
    "builtin_schedule_scenarios",
    "BROKEN_SCHEDULES",
    "check_builtin_schedules",
]

register_rules(
    "H", "happens-before schedule races", __name__, "--schedule",
    [
        Rule("H001", "tie-break-ordered-write-race", Severity.WARNING,
             "same-timestamp event pair with intersecting write-sets "
             "ordered only by insertion tie-break — the outcome hangs on "
             "scheduling accidents"),
        Rule("H002", "dual-replay-divergence", Severity.ERROR,
             "observable trace/stats diverge when same-time insertion "
             "tie-breaking is reversed — a real schedule race"),
        Rule("H003", "schedule-time-travel", Severity.ERROR,
             "a recorded event fires at a non-finite time or before the "
             "instant that scheduled it"),
        Rule("H004", "cancelled-handle-reuse", Severity.WARNING,
             "cancel() on a handle that already fired or was already "
             "cancelled — stale handle bookkeeping in the caller"),
        Rule("H005", "same-timestamp-cascade", Severity.ERROR,
             "unbounded chain of events scheduling each other at one "
             "instant — the clock cannot advance"),
    ],
)

#: Same-timestamp causal chains at or past this depth are flagged H005.
#: Legitimate same-instant chains in the runtime are 2–3 deep (arrival
#: -> deferred kick); anything tens deep is a spin.
CASCADE_THRESHOLD = 25

#: A scenario builds and runs a workload on the supplied loop and
#: returns its terminal stats; when given a recorder it must attach the
#: runtime's trace (``recorder.set_trace``) before running so write-set
#: attribution works.
Scenario = Callable[..., object]


# ---------------------------------------------------------------------------
# H001 / H003 / H004 / H005: schedule-log audits
# ---------------------------------------------------------------------------


def _writes_intersect(a: ScheduleRecord, b: ScheduleRecord) -> Optional[str]:
    """Shared state location of two write-sets, honouring the pool-wide
    ``(pool, "*")`` wildcard; None when disjoint."""
    for pool, key in a.writes:
        for pool_b, key_b in b.writes:
            if pool != pool_b:
                continue
            if key == key_b or key == "*" or key_b == "*":
                shared = key_b if key == "*" else key
                return f"({pool}, {shared})"
    return None


def lint_schedule_log(
    log: ScheduleLog,
    subject: str = "schedule",
    cascade_threshold: int = CASCADE_THRESHOLD,
) -> List[Finding]:
    """H001/H003/H004/H005 over one recorded schedule."""
    findings: List[Finding] = []
    dispatched = log.dispatched()

    # ---- H003: time travel / non-finite fire times -----------------------
    for rec in log.records:
        if not math.isfinite(rec.fire_t):
            findings.append(
                Finding(
                    "H003",
                    f"event {rec.handle} fires at non-finite time "
                    f"{rec.fire_t!r}",
                    subject=subject,
                    location=rec.handle,
                )
            )
        elif rec.fire_t < rec.scheduled_t:
            findings.append(
                Finding(
                    "H003",
                    f"event {rec.handle} fires at {rec.fire_t} but was "
                    f"scheduled at {rec.scheduled_t} — it travels back in "
                    "time",
                    subject=subject,
                    location=rec.handle,
                )
            )

    # ---- H004: stale cancels ---------------------------------------------
    if log.stale_cancels:
        shown = ", ".join(str(h) for h in log.stale_cancels[:5])
        more = (
            f" (+{len(log.stale_cancels) - 5} more)"
            if len(log.stale_cancels) > 5
            else ""
        )
        findings.append(
            Finding(
                "H004",
                f"{len(log.stale_cancels)} cancel(s) of handles that had "
                f"already fired or been cancelled: {shown}{more} — stale "
                "handle bookkeeping in the caller",
                subject=subject,
                location=log.stale_cancels[0],
            )
        )

    # ---- H001: tie-break-ordered write races -----------------------------
    by_time: Dict[float, List[ScheduleRecord]] = {}
    for rec in dispatched:
        by_time.setdefault(rec.fire_t, []).append(rec)
    ancestry_cache: Dict[int, set] = {}

    def ancestors(handle: int) -> set:
        if handle not in ancestry_cache:
            ancestry_cache[handle] = log.ancestors(handle)
        return ancestry_cache[handle]

    for t in sorted(by_time):
        group = by_time[t]
        if len(group) < 2:
            continue
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                if a.phase != b.phase:
                    continue  # phase separation IS a guaranteed order
                if not a.writes or not b.writes:
                    continue
                shared = _writes_intersect(a, b)
                if shared is None:
                    continue
                if (
                    a.handle in ancestors(b.handle)
                    or b.handle in ancestors(a.handle)
                ):
                    continue  # causally ordered via scheduled-by chain
                findings.append(
                    Finding(
                        "H001",
                        f"events {a.handle} and {b.handle} both fire at "
                        f"t={t} and both write {shared}, ordered only by "
                        "insertion tie-break — use defer() or distinct "
                        "times to make the order intentional",
                        subject=subject,
                        location=a.handle,
                    )
                )

    # ---- H005: same-timestamp cascades -----------------------------------
    depth: Dict[int, int] = {}
    by_handle = {r.handle: r for r in log.records}
    worst: Tuple[int, Optional[int]] = (0, None)
    for rec in dispatched:  # parents dispatch before children
        parent = by_handle.get(rec.parent) if rec.parent is not None else None
        if (
            parent is not None
            and parent.dispatched
            and parent.fire_t == rec.fire_t
        ):
            depth[rec.handle] = depth.get(parent.handle, 1) + 1
        else:
            depth[rec.handle] = 1
        if depth[rec.handle] > worst[0]:
            worst = (depth[rec.handle], rec.handle)
    if worst[0] >= cascade_threshold:
        findings.append(
            Finding(
                "H005",
                f"same-timestamp causal chain of depth {worst[0]} (>= "
                f"{cascade_threshold}) ending at event {worst[1]} — events "
                "keep scheduling events without advancing the clock",
                subject=subject,
                location=worst[1],
            )
        )
    return findings


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
    def scenario(loop: EventLoop, recorder: Optional[ScheduleRecorder] = None):
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
        if recorder is not None:
            recorder.set_trace(sched.trace)
        requests = poisson_workload(
            12, 6.0, prompt_len=64, output_len=48, seed=5
        )
        return sched.run(requests, loop=loop)

    return scenario


def _disagg_scenario() -> Scenario:
    def scenario(loop: EventLoop, recorder: Optional[ScheduleRecorder] = None):
        from ..llm.disaggregation import (
            DisaggregatedConfig,
            build_disaggregated_runtime,
        )
        from ..llm.serving import Request

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
        if recorder is not None:
            recorder.set_trace(runtime.trace)
        # Every request lands at t=0: the same-instant-arrival stressor
        # — one batch must form regardless of dispatch permutation.
        requests = [
            Request(i, 0.0, dcfg.prompt_len, dcfg.output_len)
            for i in range(dcfg.batch_size)
        ]
        return runtime.run(requests)

    return scenario


def _chaos_scenario(plan: str, policy: str) -> Scenario:
    def scenario(loop: EventLoop, recorder: Optional[ScheduleRecorder] = None):
        from ..llm.chaos import ChaosConfig, run_chaos

        cfg = ChaosConfig(plan=plan).quick()
        return run_chaos(cfg, policy, loop=loop, recorder=recorder)

    return scenario


def _server_scenario(plan: Optional[str]) -> Scenario:
    def scenario(loop: EventLoop, recorder: Optional[ScheduleRecorder] = None):
        from ..server.streaming import ServerConfig, build_server

        cfg = ServerConfig(fault_plan=plan).quick()
        server = build_server(cfg, loop=loop)
        if recorder is not None:
            recorder.set_trace(server.runtime.trace)
        stats = server.run(cfg.workload())
        # The token stream is the server's observable output: H002
        # compares it along with the trace and the terminal stats.
        return SimpleNamespace(**vars(stats), stream=server.stream.keys())

    return scenario


def _fleet_scenario(plan: Optional[str]) -> Scenario:
    def scenario(loop: EventLoop, recorder: Optional[ScheduleRecorder] = None):
        from ..fleet.autoscaler import AUTOSCALER_POLICIES
        from ..fleet.planner import FleetConfig, run_fleet_policy

        return run_fleet_policy(
            FleetConfig(fault_plan=plan, quick=True),
            AUTOSCALER_POLICIES["target-util"],
            loop=loop,
            recorder=recorder,
        ).stats

    return scenario


def builtin_schedule_scenarios() -> Dict[str, Scenario]:
    """Every scenario the schedule sweep instruments and dual-replays:
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
# broken fixtures
# ---------------------------------------------------------------------------


def _toy_stats(trace: RuntimeTrace, loop: EventLoop) -> SimpleNamespace:
    return SimpleNamespace(trace=trace, makespan_s=loop.now)


def _broken_write_race(loop: EventLoop, recorder=None):
    """Two same-time, same-phase events both write sequence 0."""
    trace = RuntimeTrace()
    if recorder is not None:
        recorder.set_trace(trace)
    loop.schedule_at(1.0, lambda: trace.record(1.0, "admit", 0, "gpu0"))
    loop.schedule_at(1.0, lambda: trace.record(1.0, "preempt", 0, "gpu0"))
    loop.run()
    return _toy_stats(trace, loop)


def _broken_order_dependent(loop: EventLoop, recorder=None):
    """Terminal state depends on which same-time callback runs first."""
    trace = RuntimeTrace()
    if recorder is not None:
        recorder.set_trace(trace)
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
    return _toy_stats(trace, loop)


def _broken_time_travel_log() -> ScheduleLog:
    """A log that arrived by an untrusted route: one event fires before
    the instant that scheduled it, another at NaN."""
    return ScheduleLog(
        records=[
            ScheduleRecord(
                handle=0, fire_t=0.5, scheduled_t=1.0, phase=0, parent=None,
                dispatch_index=0,
            ),
            ScheduleRecord(
                handle=1, fire_t=float("nan"), scheduled_t=0.0, phase=0,
                parent=None, dispatch_index=1,
            ),
        ]
    )


def _broken_stale_cancel(loop: EventLoop, recorder=None):
    """Cancels a handle that already fired, then one already cancelled."""
    trace = RuntimeTrace()
    if recorder is not None:
        recorder.set_trace(trace)
    h0 = loop.schedule_at(0.5, lambda: None)
    h1 = loop.schedule_at(0.7, lambda: None)
    loop.cancel(h1)
    loop.schedule_at(1.0, lambda: loop.cancel(h0))  # h0 fired at 0.5
    loop.schedule_at(1.5, lambda: loop.cancel(h1))  # h1 already cancelled
    loop.run()
    return _toy_stats(trace, loop)


def _broken_cascade(loop: EventLoop, recorder=None):
    """Defers itself 60 times at one instant — a same-time spin."""
    trace = RuntimeTrace()
    if recorder is not None:
        recorder.set_trace(trace)
    remaining = {"n": 60}

    def spin() -> None:
        if remaining["n"] > 0:
            remaining["n"] -= 1
            loop.defer(spin)

    loop.schedule_at(1.0, spin)
    loop.run()
    return _toy_stats(trace, loop)


#: name -> (kind, artifact, expected rule ids).  ``kind`` selects how
#: the sweep evaluates the fixture: ``scenario`` fixtures run on an
#: instrumented loop and are linted (plus dual-replayed when H002 is
#: expected); ``log`` fixtures are hand-built ScheduleLogs audited
#: directly, the way deserialised artifacts would be.
BROKEN_SCHEDULES: Dict[str, Tuple[str, object, Tuple[str, ...]]] = {
    "write-race": ("scenario", _broken_write_race, ("H001",)),
    "order-dependent": ("scenario", _broken_order_dependent, ("H002",)),
    "time-travel-log": ("log", _broken_time_travel_log, ("H003",)),
    "stale-cancel": ("scenario", _broken_stale_cancel, ("H004",)),
    "same-time-cascade": ("scenario", _broken_cascade, ("H005",)),
}


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def check_builtin_schedules(run_dual_replay: bool = True) -> Report:
    """The ``repro lint --schedule`` sweep.

    Instruments every builtin scenario (schedule-log audit), dual-
    replays each one (H002), then reconciles the deliberately broken
    schedules against their expected rules.
    """
    report = Report()
    report.add_family("H")
    scenarios = builtin_schedule_scenarios()
    for name in sorted(scenarios):
        scenario = scenarios[name]
        subject = f"schedule:{name}"
        loop = EventLoop()
        recorder = ScheduleRecorder(loop)
        scenario(loop, recorder)
        report.extend(lint_schedule_log(recorder.log, subject=subject))
        report.checked += 1
        if run_dual_replay:
            report.extend(dual_replay(scenario, subject=subject))
            report.checked += 1
    for name in sorted(BROKEN_SCHEDULES):
        kind, artifact, expected = BROKEN_SCHEDULES[name]
        subject = f"schedule:broken:{name}"
        findings: List[Finding] = []
        if kind == "log":
            findings.extend(
                lint_schedule_log(artifact(), subject=subject)
            )
        else:
            loop = EventLoop()
            recorder = ScheduleRecorder(loop)
            artifact(loop, recorder)
            findings.extend(
                lint_schedule_log(recorder.log, subject=subject)
            )
            if "H002" in expected:
                findings.extend(dual_replay(artifact, subject=subject))
        report.extend(
            reconcile_expected(
                findings, expected, subject,
                context="builtin broken schedule",
            )
        )
        report.checked += 1
    return report
