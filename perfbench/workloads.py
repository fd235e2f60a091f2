"""The benchmark's four workloads: inputs, program runs and output checks.

Each workload draws its inputs from the benchmark seed, hands only those
inputs to the program, and checks what comes back.  A workload is driven
in three steps so the runner can time them apart:

* :meth:`Workload.prepare` — once per process, untimed (oracles);
* :meth:`Workload.setup` — fixtures, inputs and the program objects
  (timed as set-up);
* :meth:`Workload.run` — the timed phase; returns a result that
  :meth:`Workload.outcome` checks and measures.

The serving workloads arrive open-loop (Poisson) in simulated time; one
closed-loop client in this process drives every workload.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.fleet.autoscaler import AUTOSCALER_POLICIES
from repro.fleet.simulator import FleetSimulator
from repro.fleet.spec import builtin_fleet_specs
from repro.fleet.traffic import builtin_traffic_profiles, generate_sessions
from repro.integrity import INTEGRITY_POLICIES
from repro.llm.functional_model import FunctionalTransformer, TinyConfig
from repro.llm.serving import ServingConfig, ServingSimulator, poisson_workload
from repro.runtime import (
    FaultTolerantRuntime,
    builtin_fault_plans,
    get_recovery_policy,
)
from repro.runtime.events import EventKind
from repro.server.sessions import session_workload
from repro.server.streaming import ServerConfig, build_server

@dataclass
class Outcome:
    """What one run produced: operation counts, checks and metrics."""

    attempted: int
    failed: int
    #: Content hash of the observable output (stream, trace or tokens).
    digest: str
    problems: List[str] = field(default_factory=list)
    #: Workload-specific end-to-end metrics (modelled or functional).
    e2e: Dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics read from the program's own outputs.
    counts: Dict[str, float] = field(default_factory=dict)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (the serving layer's convention)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


def sha256(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class Workload:
    """Base class; ``scale`` < 1 shrinks the input sizes (own tests)."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale

    def n(self, full: int, floor: int = 1) -> int:
        """An input size, scaled."""
        return max(floor, int(round(full * self.scale)))

    def prepare(self) -> None:
        """Untimed one-off work: the oracles the outputs are checked against."""
        self.oracles = self.compute_oracles()

    def compute_oracles(self) -> dict:
        return {}

    def setup(self):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def outcome(self, state, result) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------

_BUCKETS = ("completed", "rejected", "failed", "shed", "timed_out", "cancelled")


def _serving_outcome(
    requests: Sequence,
    stats,
    loop,
    schedulers: Sequence,
    digest: str,
    extra_terminal: Sequence = (),
    prefix_leaks: int = 0,
) -> Outcome:
    """Checks and metrics shared by the serving workloads.

    Every submitted request must land in exactly one terminal bucket
    (``extra_terminal`` holds those the admission gate refused or still
    parks), every request must complete, and no KV block may stay
    allocated once the run has drained.
    """
    problems: List[str] = []
    seen: Dict[int, int] = {}
    for bucket in _BUCKETS:
        for req in getattr(stats, bucket):
            seen[req.request_id] = seen.get(req.request_id, 0) + 1
    for req in extra_terminal:
        seen[req.request_id] = seen.get(req.request_id, 0) + 1
    ids = [r.request_id for r in requests]
    bad = {rid for rid in ids if seen.get(rid, 0) != 1}
    bad |= set(seen) - set(ids)
    if bad:
        problems.append(f"{len(bad)} request(s) not in exactly one terminal bucket")
    done = {r.request_id for r in stats.completed}
    unfinished = [rid for rid in ids if rid not in done]
    if unfinished:
        problems.append(f"{len(unfinished)} request(s) did not complete")
    if prefix_leaks:
        problems.append(f"{prefix_leaks} session prefix block(s) leaked")
    held = sum(s.pool.allocator.used_blocks for s in schedulers if s.pool.alive)
    if held:
        problems.append(f"{held} KV block(s) still allocated after the run")
    failed = len(bad | set(unfinished))
    if (prefix_leaks or held) and not failed:
        failed = len(ids)

    ttfts = [
        r.ttft_s if r.request_id in done and r.ttft_s is not None else math.inf
        for r in requests
    ]
    tpots = [
        (r.finish_s - r.first_token_s) / (r.output_len - 1)
        for r in stats.completed
        if r.output_len > 1
    ]
    bd = stats.decode_breakdown
    batches = [e.info["batch"] for e in stats.trace.of_kind(EventKind.DECODE_STEP)]
    waits = [r.start_s - r.arrival_s for r in requests if r.start_s is not None]
    return Outcome(
        attempted=len(ids),
        failed=failed,
        digest=digest,
        problems=problems,
        e2e={
            "sim_ttft_p50_s": percentile(ttfts, 50),
            "sim_ttft_p99_s": percentile(ttfts, 99),
            "sim_tpot_p50_s": percentile(tpots, 50),
            "sim_goodput_tok_s": stats.goodput_tokens_per_s,
        },
        counts={
            "runtime.loop.events": loop.dispatched,
            "runtime.loop.cancelled": loop.cancelled,
            "runtime.sched.iterations": stats.iterations,
            "runtime.sched.batch_mean": sum(batches) / len(batches) if batches else 0.0,
            "runtime.sched.preemptions": stats.preemptions,
            "runtime.sched.queue_wait_p50_s": percentile(waits, 50),
            "runtime.sched.queue_wait_p99_s": percentile(waits, 99),
            "runtime.router.retries": stats.retries,
            "runtime.router.faults": stats.faults,
            "integrity.sdc_injected": stats.sdc_injected,
            "integrity.sdc_detected": stats.sdc_detected,
            "integrity.detection_rate": (
                stats.sdc_detected / stats.sdc_injected if stats.sdc_injected else 0.0
            ),
            "integrity.quarantines": stats.quarantines,
            "integrity.verification_s": stats.verification_s,
            "sim.prefill_s": stats.prefill_s,
            "sim.decode.linear_s": bd.linear_s,
            "sim.decode.attention_s": bd.attention_s,
            "sim.decode.comm_s": bd.comm_s,
            "sim.decode.other_s": bd.other_s,
        },
    )


def _prefix_counts(sessions, stats) -> Dict[str, float]:
    lookups = sessions.hits + sessions.misses
    tokens = stats.cached_prefill_tokens + stats.prefill_tokens
    return {
        "server.prefix.hit_frac": sessions.hits / lookups if lookups else 0.0,
        "server.prefix.cached_token_frac": (
            stats.cached_prefill_tokens / tokens if tokens else 0.0
        ),
    }


class MultiturnPrefix(Workload):
    """Multi-turn sessions through the streaming server, prefix reuse on."""

    name = "multiturn-prefix"

    def config(self) -> ServerConfig:
        return ServerConfig(
            replicas=4,
            sessions=self.n(300, 4),
            turns=4,
            # Loaded enough that the admission gate parks turns, short
            # of a backlog that grows over the run.
            arrival_rate=4.0,
            seed=self.seed,
            server_policy="standard",
            reuse_prefix=True,
        )

    def setup(self):
        cfg = self.config()
        specs = session_workload(
            sessions=cfg.sessions,
            turns=cfg.turns,
            arrival_rate=cfg.arrival_rate,
            mean_new_tokens=cfg.mean_new_tokens,
            mean_output=cfg.mean_output,
            mean_think_s=cfg.mean_think_s,
            tenants=cfg.tenants,
            priority_tiers=3,
            seed=cfg.seed,
        )
        return build_server(cfg), specs

    def run(self, state):
        server, specs = state
        return server.run(specs)

    def outcome(self, state, stats) -> Outcome:
        server, _ = state
        out = _serving_outcome(
            server.requests,
            stats,
            server.loop,
            server.runtime.schedulers,
            digest=sha256([e.key() for e in server.stream.events]),
            extra_terminal=list(server.gate.refused) + server.gate.parked,
            prefix_leaks=sum(len(v) for v in server.prefix_leaks.values()),
        )
        out.counts.update(_prefix_counts(server.sessions, stats))
        out.counts.update(
            {
                "runtime.stream.events": len(server.stream.events),
                "runtime.stream.flushes": server.stream.flushes,
                "server.gate.parked": server.gate.parked_total,
                "server.gate.refused": len(server.gate.refused),
            }
        )
        return out


class OneshotSDC(Workload):
    """One-shot requests under silent data corruption, quarantine on."""

    name = "oneshot-sdc"
    requests = 1200
    arrival_rate = 12.0

    def setup(self):
        requests = poisson_workload(
            self.n(self.requests, 8),
            self.arrival_rate,
            prompt_len=64,
            output_len=96,
            seed=self.seed,
        )
        sim = ServingSimulator(
            ServingConfig(
                model="opt-13b",
                framework="spinfer",
                gpu="RTX4090",
                max_batch=16,
                policy="fcfs",
                chunked_prefill=True,
                chunk_tokens=128,
                preemption=True,
                kv_cap_tokens=20000,
            )
        )
        # The pinned plan assumes a ~6 s arrival window; stretch it over
        # this workload's so the injections spread out.
        horizon = requests[-1].arrival_s
        plan = builtin_fault_plans()["sdc-replica"].scaled(horizon / 6.0)
        runtime = FaultTolerantRuntime(
            [sim.build_pool(name=f"gpu{i}") for i in range(4)],
            get_recovery_policy("reroute"),
            policy="fcfs",
            prefill_mode="chunked",
            chunk_tokens=128,
            preemption=True,
            fault_plan=plan,
            integrity=INTEGRITY_POLICIES["quarantine"],
        )
        return runtime, requests

    def run(self, state):
        runtime, requests = state
        return runtime.run(requests)

    def outcome(self, state, stats) -> Outcome:
        runtime, requests = state
        out = _serving_outcome(
            requests,
            stats,
            runtime.loop,
            runtime.schedulers,
            digest=sha256(stats.trace.event_log()),
        )
        if stats.corrupted_completed:
            out.problems.append(
                f"{stats.corrupted_completed} corrupted request(s) completed"
            )
            out.failed = max(out.failed, stats.corrupted_completed)
        return out


class FleetChaos(Workload):
    """Autoscaled fleet under bursty traffic and the chaos-mix faults."""

    name = "fleet-chaos"
    sessions = 240

    def setup(self):
        profile = replace(builtin_traffic_profiles()["bursty"], seed=self.seed)
        want = self.n(self.sessions, 4)
        # Draw on a long horizon and keep the first `want` sessions, so
        # every seed carries the same number of sessions.
        profile = replace(profile, horizon_s=4.0 * want / profile.mean_rate())
        specs = generate_sessions(profile)[:want]
        if len(specs) < want:
            raise RuntimeError(f"traffic draw gave {len(specs)} < {want} sessions")
        sim = FleetSimulator(
            builtin_fleet_specs()["consumer-mix"],
            AUTOSCALER_POLICIES["target-util"],
            get_recovery_policy("reroute"),
            fault_plan=builtin_fault_plans()["chaos-mix"],
            horizon_s=specs[-1].start_s,
        )
        return sim, specs

    def run(self, state):
        sim, specs = state
        return sim.run(specs)

    def outcome(self, state, fleet) -> Outcome:
        sim, _ = state
        stats = fleet.stats
        out = _serving_outcome(
            sim.requests,
            stats,
            sim.loop,
            sim.runtime.schedulers,
            digest=sha256(stats.trace.event_log()),
            prefix_leaks=fleet.prefix_leaked_blocks,
        )
        out.e2e["sim_usd_per_mtok"] = fleet.cost_per_mtok
        out.counts.update(_prefix_counts(sim.sessions, stats))
        out.counts.update(
            {
                "fleet.scale_ups": fleet.scale_ups,
                "fleet.scale_downs": fleet.scale_downs,
                "fleet.drains": fleet.drains,
                "fleet.kv_migrations": fleet.kv_migrations,
                "fleet.peak_replicas": fleet.replica_extremes()[0],
            }
        )
        return out


# ---------------------------------------------------------------------------
# functional model
# ---------------------------------------------------------------------------


class StepClock:
    """Wall time of every ``forward`` call, split prompt vs decode step.

    Installed on the model instance only, for the untraced run: one
    clock read on each side of a millisecond-scale forward pass.
    """

    def __init__(self, model: FunctionalTransformer) -> None:
        self.prompt_s: List[float] = []
        self.step_s: List[float] = []
        forward = model.forward
        clock = time.perf_counter

        def timed(token_ids, *args, **kwargs):
            t0 = clock()
            result = forward(token_ids, *args, **kwargs)
            dt = clock() - t0
            (self.step_s if len(token_ids) == 1 else self.prompt_s).append(dt)
            return result

        model.forward = timed


class FunctionalGenerate(Workload):
    """Greedy generation on the pruned functional transformer (spinfer)."""

    name = "functional-generate"
    config = TinyConfig(
        vocab_size=512, num_layers=4, hidden_size=64, num_heads=4,
        ffn_size=256, max_seq=128,
    )
    sparsity = 0.6
    prompts = 25
    prompt_len = 16
    new_tokens = 41  # 40 decode steps per prompt
    #: Dense and sparse kernels sum in different orders, and every
    #: linear rounds its input to FP16, so a last-bit FP32 difference can
    #: move an activation by one FP16 ulp (2^-11 relative) and the
    #: logits by ~1e-3 of their scale.  A dense greedy choice may differ
    #: from the sparse one only where the top logits tie within that.
    tie_rtol = 1e-2

    def inputs(self) -> List[np.ndarray]:
        rng = np.random.default_rng([self.seed, 1])
        return [
            rng.integers(0, self.config.vocab_size, size=self.prompt_len)
            for _ in range(self.n(self.prompts))
        ]

    def build(self, backend: str) -> FunctionalTransformer:
        model = FunctionalTransformer(self.config, seed=self.seed, backend=backend)
        model.prune(self.sparsity, method="magnitude", seed=self.seed)
        model.layer_weight_bytes()  # encodes every linear for `backend`
        return model

    def generate_all(self, model, prompts) -> List[List[int]]:
        return [model.generate(p, self.n(self.new_tokens, 3)) for p in prompts]

    def prepare(self) -> None:
        super().prepare()
        self._dense = self.build("dense")
        self._verified: Dict[str, List[str]] = {}

    def compute_oracles(self) -> dict:
        """Tokens of the dense and Flash-LLM backends on the same prompts."""
        prompts = self.inputs()
        return {
            backend: self.generate_all(self.build(backend), prompts)
            for backend in ("dense", "flash-llm")
        }

    def setup(self):
        model = self.build("spinfer")
        return model, self.inputs(), StepClock(model)

    def run(self, state):
        model, prompts, _ = state
        return self.generate_all(model, prompts)

    def _dense_agrees(self, prompt: np.ndarray, tokens: List[int]) -> bool:
        """Teacher-forced dense check of a greedy sequence: every token
        is the dense argmax, up to a float32 tie."""
        ids = np.concatenate([prompt, np.asarray(tokens[:-1], dtype=np.int64)])
        logits, _ = self._dense.forward(ids)
        logits = logits[len(prompt) - 1 :]
        best = logits.max(axis=1)
        chosen = logits[np.arange(len(tokens)), tokens]
        tol = self.tie_rtol * np.abs(logits).max(axis=1)
        return bool(np.all(best - chosen <= tol))

    def check_tokens(self, prompts, tokens) -> List[str]:
        problems = []
        for i, (prompt, got) in enumerate(zip(prompts, tokens)):
            if got != self.oracles["flash-llm"][i]:
                problems.append(f"prompt {i}: tokens differ from flash-llm")
            elif got != self.oracles["dense"][i] and not self._dense_agrees(prompt, got):
                problems.append(f"prompt {i}: tokens differ from dense")
        return problems

    def outcome(self, state, tokens) -> Outcome:
        _, prompts, clock = state
        digest = sha256(tokens)
        if digest not in self._verified:
            self._verified[digest] = self.check_tokens(prompts, tokens)
        problems = self._verified[digest]
        return Outcome(
            attempted=len(prompts),
            failed=len(problems),
            digest=digest,
            problems=list(problems),
            e2e={
                "func_ttft_ms_p50": 1e3 * float(np.median(clock.prompt_s)),
                "func_tpot_ms_p50": 1e3 * percentile(clock.step_s, 50),
                "func_tpot_ms_p99": 1e3 * percentile(clock.step_s, 99),
            },
        )


WORKLOADS = {
    cls.name: cls
    for cls in (MultiturnPrefix, OneshotSDC, FleetChaos, FunctionalGenerate)
}
