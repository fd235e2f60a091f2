"""The session-aware streaming server.

:class:`StreamingServer` is the top of the request-lifecycle stack the
runtime refactor built:

1. a :class:`~repro.server.admission.AdmissionGate` (buckets, priority
   tiers, tenant quotas) decides *whether and when* a turn enters;
2. the :class:`~repro.runtime.faults.FaultTolerantRuntime` routes it to
   a replica pool — with session affinity, so turns chase their prefix;
3. the :class:`~repro.server.sessions.SessionManager` turns finished
   turns into shared KV prefixes and admissions into COW forks;
4. every decoded token flows through one optional
   :class:`~repro.runtime.request.TokenStream`, flushed end-of-instant
   via ``loop.defer`` so the stream is a deterministic function of the
   workload.

Turn chaining is event-driven: when a turn reaches ANY terminal bucket
the router's ``terminal_listener`` lands here; a completed turn
schedules the session's next turn after its pinned think time, anything
else (shed, failed, timed out, cancelled, refused) aborts the session
and frees its prefix immediately.  The autoscaling
:class:`~repro.fleet.simulator.FleetSimulator` is this same server with
an elastic replica set, an admit-everything gate and no token stream.

Everything — the workload, the gate, routing, token timestamps — is
deterministic, so :func:`server_report` serialises byte-identically
across runs; ``repro server --json`` replays are diffed with ``cmp``
in CI, exactly like the chaos harness.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..llm.serving import ServingConfig, ServingSimulator
from ..runtime import (
    FaultPlan,
    FaultTolerantRuntime,
    RuntimeStats,
    SessionRequest,
    TokenStream,
    builtin_fault_plans,
    get_recovery_policy,
)
from .admission import SERVER_POLICIES, AdmissionGate, ServerPolicy
from .sessions import SessionManager, SessionSpec, session_workload

__all__ = [
    "ServerConfig",
    "StreamingServer",
    "build_server",
    "run_server",
    "server_report",
    "server_report_json",
]


@dataclass(frozen=True)
class ServerConfig:
    """One server scenario: fleet + multi-turn workload + policies."""

    model: str = "opt-13b"
    framework: str = "spinfer"
    gpu: str = "RTX4090"
    replicas: int = 2
    sessions: int = 8
    turns: int = 3
    arrival_rate: float = 2.0
    mean_new_tokens: int = 96
    mean_output: int = 48
    mean_think_s: float = 0.4
    tenants: Tuple[str, ...] = ("acme", "globex")
    seed: int = 5
    max_batch: int = 16
    kv_cap_tokens: Optional[int] = 20000
    server_policy: str = "standard"
    recovery: str = "reroute"
    #: None = fault-free; a builtin plan name injects faults mid-run.
    fault_plan: Optional[str] = None
    #: The control arm: False disables the prefix cache entirely.
    reuse_prefix: bool = True

    def __post_init__(self) -> None:
        if self.replicas <= 0:
            raise ValueError("need at least one replica")
        if self.sessions <= 0 or self.turns <= 0:
            raise ValueError("need a positive workload")

    def quick(self) -> "ServerConfig":
        from dataclasses import replace

        return replace(self, sessions=4, turns=2, mean_output=24)

    def workload(self) -> List[SessionSpec]:
        policy = SERVER_POLICIES[self.server_policy]
        return session_workload(
            sessions=self.sessions,
            turns=self.turns,
            arrival_rate=self.arrival_rate,
            mean_new_tokens=self.mean_new_tokens,
            mean_output=self.mean_output,
            mean_think_s=self.mean_think_s,
            tenants=self.tenants,
            priority_tiers=policy.priority_tiers,
            seed=self.seed,
        )


class StreamingServer:
    """Admission gate + replica router + session prefix cache + an
    optional token stream, driving whole conversations to completion.

    Every replica runs the chunked-prefill, preemptive FCFS scheduler
    (the router's defaults).  ``stream=None`` runs without a token
    stream: no token events and no end-of-instant flushes."""

    def __init__(
        self,
        pools: Sequence,
        recovery,
        server_policy: ServerPolicy,
        reuse_prefix: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        loop=None,
        stream: Optional[TokenStream] = None,
    ) -> None:
        self.runtime = FaultTolerantRuntime(
            pools, recovery, fault_plan=fault_plan, loop=loop
        )
        self.loop = self.runtime.loop
        self.stream = stream
        for sched in self.runtime.schedulers:
            sched.stream = stream
        self.sessions = SessionManager(self.runtime, enabled=reuse_prefix)
        self.gate = AdmissionGate(server_policy)
        self.runtime.terminal_listener = self._on_terminal
        self._specs: Dict[int, SessionSpec] = {}
        self._turn_of: Dict[int, Tuple[int, int]] = {}
        self._history: Dict[int, int] = {}
        self._next_request_id = 0
        #: Every turn materialised as a request, in submission order.
        self.requests: List[SessionRequest] = []
        self.sessions_completed = 0
        self.sessions_aborted = 0
        self.prefix_leaks: Dict[int, List[Tuple[str, int]]] = {}

    # ---- turn lifecycle --------------------------------------------------------------

    def _begin_turn(self, session_id: int, turn_idx: int) -> None:
        spec = self._specs[session_id]
        turn = spec.turns[turn_idx]
        history = self._history.get(session_id, 0)
        req = SessionRequest(
            request_id=self._next_request_id,
            arrival_s=self.loop.now,
            prompt_len=history + turn.new_tokens,
            output_len=turn.output_len,
            session_id=session_id,
            turn=turn_idx,
            tenant=spec.tenant,
            priority=spec.priority,
            cached_tokens=history,
        )
        self._next_request_id += 1
        self.requests.append(req)
        self._turn_of[req.request_id] = (session_id, turn_idx)
        verdict = self.gate.offer(req)
        if verdict == "admit":
            self._submit(req)
        elif verdict == "refuse":
            # The prompt outgrew every bucket: the conversation is over.
            self._turn_of.pop(req.request_id, None)
            self._abort_session(session_id)
        # "park": the gate holds it until a terminal releases quota.

    def _submit(self, req: SessionRequest) -> None:
        prefer = self.sessions.pool_for(req.session_id)
        self.runtime.submit(req, prefer=prefer)

    def _abort_session(self, session_id: int) -> None:
        self.sessions_aborted += 1
        leaked = self.sessions.end_session(session_id)
        if leaked:
            self.prefix_leaks[session_id] = leaked

    def _on_terminal(self, req) -> None:
        for released in self.gate.release(req):
            self._submit(released)
        info = self._turn_of.pop(req.request_id, None)
        if info is None:
            return
        session_id, turn_idx = info
        spec = self._specs[session_id]
        completed = req.finish_s is not None and req.generated >= req.output_len
        if not completed:
            self._abort_session(session_id)
            return
        self._history[session_id] = req.prompt_len + req.output_len
        if turn_idx + 1 < len(spec.turns):
            think = spec.turns[turn_idx + 1].think_s
            self.loop.schedule_after(
                think,
                lambda: self._begin_turn(session_id, turn_idx + 1),
            )
        else:
            self.sessions_completed += 1
            leaked = self.sessions.end_session(session_id)
            if leaked:
                self.prefix_leaks[session_id] = leaked

    # ---- entry point -----------------------------------------------------------------

    def _schedule_sessions(self, specs: Sequence[SessionSpec]) -> None:
        for spec in sorted(specs, key=lambda s: (s.start_s, s.session_id)):
            self._specs[spec.session_id] = spec
            self.loop.schedule_at(
                spec.start_s,
                (lambda sid: lambda: self._begin_turn(sid, 0))(
                    spec.session_id
                ),
            )

    def run(self, specs: Sequence[SessionSpec]) -> RuntimeStats:
        if not specs:
            raise ValueError("empty session workload")
        if len({s.session_id for s in specs}) != len(specs):
            raise ValueError("session ids must be unique")
        self._schedule_sessions(specs)
        self.loop.run()
        # Backstop for sessions interrupted mid-conversation (parked
        # forever, aborted by faults): free their prefixes and audit.
        for session_id, leaked in self.sessions.teardown().items():
            self.prefix_leaks.setdefault(session_id, leaked)
        return self.runtime.finalize()


# ---------------------------------------------------------------------------
# scenario runner + report
# ---------------------------------------------------------------------------


def build_server(cfg: ServerConfig, loop=None) -> StreamingServer:
    serving_cfg = ServingConfig(
        model=cfg.model,
        framework=cfg.framework,
        gpu=cfg.gpu,
        max_batch=cfg.max_batch,
        kv_cap_tokens=cfg.kv_cap_tokens,
    )
    sim = ServingSimulator(serving_cfg)
    pools = [sim.build_pool(name=f"gpu{i}") for i in range(cfg.replicas)]
    plan = (
        builtin_fault_plans()[cfg.fault_plan]
        if cfg.fault_plan is not None
        else None
    )
    return StreamingServer(
        pools,
        get_recovery_policy(cfg.recovery),
        server_policy=SERVER_POLICIES[cfg.server_policy],
        reuse_prefix=cfg.reuse_prefix,
        fault_plan=plan,
        loop=loop,
        stream=TokenStream(),
    )


def run_server(
    cfg: ServerConfig, loop=None
) -> Tuple[StreamingServer, RuntimeStats]:
    server = build_server(cfg, loop=loop)
    stats = server.run(cfg.workload())
    return server, stats


def _percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (the serving layer's convention)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def _ttfts(stats: RuntimeStats) -> List[float]:
    return [
        r.ttft_s
        for r in stats.completed
        if r.ttft_s is not None
    ]


def server_report(cfg: ServerConfig) -> Dict:
    """Deterministic JSON-ready summary (``repro server --json``)."""
    server, stats = run_server(cfg)
    ttfts = _ttfts(stats)
    stream_digest = hashlib.sha256(
        repr([e.key() for e in server.stream.events]).encode()
    ).hexdigest()
    return {
        "scenario": {
            "model": cfg.model,
            "framework": cfg.framework,
            "gpu": cfg.gpu,
            "replicas": cfg.replicas,
            "sessions": cfg.sessions,
            "turns": cfg.turns,
            "arrival_rate": cfg.arrival_rate,
            "seed": cfg.seed,
            "server_policy": cfg.server_policy,
            "recovery": cfg.recovery,
            "fault_plan": cfg.fault_plan,
            "reuse_prefix": cfg.reuse_prefix,
        },
        "sessions": {
            "submitted": len(server._specs),
            "completed": server.sessions_completed,
            "aborted": server.sessions_aborted,
            "turns_submitted": len(server.requests),
            "turns_completed": len(stats.completed),
        },
        "admission": {
            "parked": server.gate.parked_total,
            "refused": len(server.gate.refused),
            "buckets": {
                str(idx): count
                for idx, count in sorted(server.gate.bucket_counts.items())
            },
        },
        "prefix_cache": {
            "hits": server.sessions.hits,
            "misses": server.sessions.misses,
            "invalidations": server.sessions.invalidations,
            "retained": server.sessions.retained,
            "prefill_tokens": stats.prefill_tokens,
            "cached_prefill_tokens": stats.cached_prefill_tokens,
            "leaked_blocks": sum(
                len(server.prefix_leaks[sid])
                for sid in sorted(server.prefix_leaks)
            ),
        },
        "stream": {
            "events": len(server.stream.events),
            "flushes": server.stream.flushes,
            "sha256": stream_digest,
        },
        "latency": {
            "mean_ttft_s": round(
                sum(ttfts) / len(ttfts), 9
            )
            if ttfts
            else 0.0,
            "p50_ttft_s": round(_percentile(ttfts, 50.0), 9),
            "p99_ttft_s": round(_percentile(ttfts, 99.0), 9),
        },
        "runtime": {
            "makespan_s": round(stats.makespan_s, 9),
            "preemptions": stats.preemptions,
            "retries": stats.retries,
            "faults": stats.faults,
            "goodput_tokens_per_s": round(stats.goodput_tokens_per_s, 6),
            "availability": round(stats.availability, 6),
        },
    }


def server_report_json(cfg: ServerConfig) -> str:
    """Byte-stable serialisation: sorted keys, no whitespace drift."""
    payload = {"schema": "repro-server/v1", "report": server_report(cfg)}
    return json.dumps(payload, indent=2, sort_keys=True)
