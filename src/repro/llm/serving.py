"""Continuous-batching serving simulator (runtime-backed).

The paper positions SpInfer as orthogonal to online serving systems
(Orca-style continuous batching, vLLM memory management) and claims it
"can complement and improve their performance".  This module tests that
claim quantitatively over the discrete-event core in
:mod:`repro.runtime`: a continuous-batching scheduler admits requests
into a running batch under a live paged-KV budget (the
:class:`~repro.llm.kv_cache.KVBlockAllocator` is the single source of
KV truth), prices each iteration with
:meth:`repro.llm.inference.InferenceEngine.decode_step_seconds`, and
reports latency / TTFT / throughput statistics.

The mechanism by which SpInfer helps is twofold: faster decode steps
(kernel speedup) and — often more importantly — the TCA-BME weight
footprint leaves more DRAM headroom for KV cache, so the server sustains
a larger running batch before hitting the admission wall.  Two
scheduler upgrades over the historical simulator sharpen the test:
**chunked prefill** interleaves prompt processing with decode steps
instead of blocking every running sequence behind each new prompt, and
**preemption-by-recompute** lets admission run on-demand (actual
blocks, not worst-case reservations) with vLLM's recompute discipline
paying for the overcommit.

``ServingSimulator.run_legacy`` preserves the original hand-rolled loop
(with its infinite-admission hazard fixed) as the translation-validation
baseline: on an FCFS / blocking-prefill / no-preemption configuration
the runtime must reproduce its throughput and makespan within 1 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..gpu.specs import get_gpu
from ..runtime.core import GPUPool
from ..runtime.request import SessionRequest
from ..runtime.scheduler import ContinuousBatchingScheduler, RuntimeStats
from .inference import InferenceConfig, InferenceEngine
from .memory import kv_budget_bytes, kv_bytes_per_token

__all__ = [
    "ServingConfig",
    "ServingSimulator",
    "compare_frameworks",
    "mixed_workload",
    "poisson_workload",
    "replica_pools",
]

def poisson_workload(
    num_requests: int,
    arrival_rate: float,
    prompt_len: int = 64,
    output_len: int = 128,
    seed: int = 0,
) -> List[SessionRequest]:
    """Open-loop Poisson arrivals with fixed prompt/output lengths."""
    import numpy as np

    if num_requests <= 0 or arrival_rate <= 0:
        raise ValueError("need positive request count and arrival rate")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / arrival_rate, size=num_requests)
    arrivals = np.cumsum(gaps)
    return [
        SessionRequest(
            request_id=i,
            arrival_s=float(arrivals[i]),
            prompt_len=prompt_len,
            output_len=output_len,
        )
        for i in range(num_requests)
    ]


def mixed_workload(
    num_requests: int,
    arrival_rate: float,
    output_lens: Sequence[int] = (32, 128, 512),
    prompt_len: int = 64,
    seed: int = 0,
) -> List[SessionRequest]:
    """Poisson arrivals with output lengths drawn from a discrete mix —
    the heterogeneous traffic where scheduling policy starts to matter."""
    import numpy as np

    if not output_lens:
        raise ValueError("need at least one output length")
    base = poisson_workload(num_requests, arrival_rate, prompt_len,
                            output_lens[0], seed)
    rng = np.random.default_rng(seed + 1)
    draws = rng.choice(list(output_lens), size=num_requests)
    for req, out_len in zip(base, draws):
        req.output_len = int(out_len)
    return base


@dataclass(frozen=True)
class ServingConfig:
    """Server deployment parameters."""

    model: str
    framework: str
    gpu: str = "RTX4090"
    num_gpus: int = 1
    sparsity: float = 0.6
    max_batch: int = 32
    #: Admission order: "fcfs" (arrival order) or "sjf" (shortest
    #: remaining output first — trades fairness for mean latency).
    policy: str = "fcfs"
    #: Interleave prompt processing with decode steps instead of
    #: blocking the whole batch behind each new prefill.
    chunked_prefill: bool = False
    #: Prompt tokens processed per iteration in chunked mode.
    chunk_tokens: int = 128
    #: Admit on demand and preempt-by-recompute when the pool runs dry
    #: (off = worst-case block reservation at admission).
    preemption: bool = False
    #: Optional cap on the KV pool, in tokens — lets experiments pit
    #: schedulers against each other at an equal, artificially tight
    #: memory budget.  None = everything the DRAM budget allows.
    kv_cap_tokens: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.policy not in ("fcfs", "sjf"):
            raise ValueError(f"unknown policy {self.policy!r}; use fcfs or sjf")
        if self.chunk_tokens <= 0:
            raise ValueError("chunk_tokens must be positive")
        if self.kv_cap_tokens is not None and self.kv_cap_tokens <= 0:
            raise ValueError("kv_cap_tokens must be positive when set")


class ServingSimulator:
    """Continuous batching as a policy over the discrete-event runtime."""

    def __init__(self, config: ServingConfig):
        self.config = config
        # The engine is used for per-step costs; batch/lengths vary at
        # runtime so the InferenceConfig values here are placeholders.
        self.engine = InferenceEngine(
            InferenceConfig(
                model=config.model,
                framework=config.framework,
                gpu=config.gpu,
                num_gpus=config.num_gpus,
                batch_size=1,
                prompt_len=8,
                output_len=8,
                sparsity=config.sparsity
                if self._framework_sparse(config.framework)
                else 0.0,
            )
        )
        self.gpu = get_gpu(config.gpu)
        self.kv_budget = self._kv_budget_bytes()

    @staticmethod
    def _framework_sparse(framework: str) -> bool:
        from .frameworks import get_framework

        return get_framework(framework).supports_sparsity

    def _kv_budget_bytes(self) -> float:
        """DRAM left for KV cache after weights + runtime overhead."""
        cfg = self.config
        budget = kv_budget_bytes(
            self.engine.model,
            self.engine.framework.weight_format,
            self.engine.config.sparsity,
            self.gpu,
            tensor_parallel=cfg.num_gpus,
        )
        if budget <= 0:
            raise ValueError(
                f"{cfg.model} does not fit {cfg.num_gpus}x{cfg.gpu} under "
                f"{cfg.framework}; no KV budget left"
            )
        return budget

    def _kv_bytes_per_token(self) -> float:
        return kv_bytes_per_token(self.engine.model, self.config.num_gpus)

    # ---- runtime construction --------------------------------------------------------

    def build_pool(self, name: str = "gpu0") -> GPUPool:
        """The per-GPU resource model this server schedules against.

        ``name`` distinguishes replicas when several pools share one
        loop (the fault-tolerant router builds one pool per replica).
        """
        cfg = self.config
        budget = self.kv_budget
        if cfg.kv_cap_tokens is not None:
            budget = min(
                budget, cfg.kv_cap_tokens * self._kv_bytes_per_token()
            )
        return GPUPool(
            engine=self.engine,
            kv_budget_bytes=budget,
            max_batch=cfg.max_batch,
            name=name,
        )

    def build_scheduler(self) -> ContinuousBatchingScheduler:
        cfg = self.config
        return ContinuousBatchingScheduler(
            self.build_pool(),
            policy=cfg.policy,
            prefill_mode="chunked" if cfg.chunked_prefill else "blocking",
            chunk_tokens=cfg.chunk_tokens,
            preemption=cfg.preemption,
        )

    def run(self, requests: List[SessionRequest], loop=None) -> RuntimeStats:
        """Simulate the trace to completion on the event runtime.

        ``loop`` lets the H002 dual replay supply an
        :class:`~repro.runtime.core.EventLoop` with a reversed tie-break.
        """
        return self.build_scheduler().run(requests, loop=loop)

    # ---- legacy baseline -------------------------------------------------------------

    def run_legacy(self, requests: List[SessionRequest]) -> RuntimeStats:
        """The historical hand-rolled loop, kept as the translation-
        validation baseline for the event runtime.

        Differences from the original: a request whose worst-case KV
        need exceeds the whole budget is rejected up front (the original
        never admitted it, never advanced the clock, and spun forever),
        and admission reserves TRUE worst-case bytes for running
        sequences (``prompt + output``) rather than their decayed
        current footprint, so the budget can never be oversubscribed.
        """
        if not requests:
            raise ValueError("empty workload")
        kv_per_token = self._kv_bytes_per_token()
        rejected = [
            r for r in requests
            if (r.prompt_len + r.output_len) * kv_per_token > self.kv_budget
        ]
        reject_ids = {r.request_id for r in rejected}
        pending = sorted(
            (r for r in requests if r.request_id not in reject_ids),
            key=lambda r: r.arrival_s,
        )
        running: List[SessionRequest] = []
        completed: List[SessionRequest] = []
        now = 0.0
        peak_batch = 0
        iterations = 0

        def kv_reserved() -> float:
            return sum(
                (r.prompt_len + r.output_len) * kv_per_token for r in running
            )

        sjf = self.config.policy == "sjf"
        while pending or running:
            if not running and pending and pending[0].arrival_s > now:
                now = pending[0].arrival_s  # idle server fast-forwards
            # Admission: fill the batch while memory and slots allow.
            while pending and len(running) < self.config.max_batch:
                arrived = [r for r in pending if r.arrival_s <= now]
                if not arrived:
                    break
                nxt = min(arrived, key=lambda r: r.output_len) if sjf else arrived[0]
                need = (nxt.prompt_len + nxt.output_len) * kv_per_token
                if kv_reserved() + need > self.kv_budget:
                    break
                pending.remove(nxt)
                nxt.start_s = now
                now += self.engine.prefill_tokens_seconds(nxt.prompt_len)
                running.append(nxt)

            if not running:
                continue  # loop back; `now` jumped to next arrival

            peak_batch = max(peak_batch, len(running))
            avg_context = sum(
                r.prompt_len + r.generated for r in running
            ) / len(running)
            step = self.engine.decode_step_seconds(len(running), avg_context)
            now += step.total_s
            iterations += 1

            still_running: List[SessionRequest] = []
            for r in running:
                r.generated += 1
                if r.first_token_s is None:
                    r.first_token_s = now
                if r.generated >= r.output_len:
                    r.finish_s = now
                    completed.append(r)
                else:
                    still_running.append(r)
            running = still_running

        return RuntimeStats(
            completed=completed,
            rejected=rejected,
            makespan_s=now,
            peak_batch=peak_batch,
            iterations=iterations,
            kv_budget_bytes=self.kv_budget,
        )


def replica_pools(
    model: str, framework: str, gpu: str, replicas: int
) -> List[GPUPool]:
    """The identical replica pools behind the router-backed scenarios
    (chaos, integrity and the streaming server): 16-sequence batches
    over a 20,000-token KV cap, so a scenario stresses admission rather
    than DRAM size."""
    sim = ServingSimulator(
        ServingConfig(
            model=model,
            framework=framework,
            gpu=gpu,
            max_batch=16,
            kv_cap_tokens=20000,
        )
    )
    return [sim.build_pool(name=f"gpu{i}") for i in range(replicas)]


def compare_frameworks(
    workload: List[SessionRequest],
    model: str = "opt-13b",
    gpu: str = "RTX4090",
    num_gpus: int = 1,
    max_batch: int = 32,
) -> Dict[str, RuntimeStats]:
    """Run the same trace under every framework that fits the hardware."""
    import copy

    out: Dict[str, RuntimeStats] = {}
    for framework, sparsity in (
        ("spinfer", 0.6),
        ("flash-llm", 0.6),
        ("fastertransformer", 0.0),
        ("deepspeed", 0.0),
    ):
        cfg = ServingConfig(
            model=model,
            framework=framework,
            gpu=gpu,
            num_gpus=num_gpus,
            sparsity=sparsity,
            max_batch=max_batch,
        )
        try:
            sim = ServingSimulator(cfg)
        except ValueError:
            continue  # model does not fit under this framework
        out[framework] = sim.run(copy.deepcopy(workload))
    return out
