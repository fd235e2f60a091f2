"""Disaggregated prefill/decode serving (paper Section 6).

The paper argues SpInfer's decode-phase optimisation fits the emerging
decoupled architecture (DistServe, Splitwise, Mooncake): run prefill —
where SpInfer can be up to 11.8 % *slower* than cuBLAS (Fig. 16) — on a
dense-GEMM pool, migrate the KV cache, and decode on a SpInfer pool
where the SpMM advantage is largest.

This module quantifies that argument.  Historically it was a closed-form
three-term sum (prefill + migration + decode); it is now a *two-pool
instance of the discrete-event runtime* (:mod:`repro.runtime`): the
prefill pool batches requests and holds their KV in a real block
allocator, the cache crosses the inter-pool link as an explicit timed
``MIGRATE_START``/``MIGRATE_END`` event pair (blocks stay pinned on the
prefill side until the transfer lands), and decode runs through the same
continuous-batching scheduler the serving simulator uses.  For the
single-batch configurations compared here the event schedule reproduces
the closed form exactly — the win is that the same machinery now also
yields event traces and lintable KV snapshots.

Pool KV capacity is demand-sized (``GPUPool(total_blocks=...)``) rather
than DRAM-derived: whether a deployment's KV actually fits its GPUs is
the *deployment checker's* verdict (rules D001/D002), not a runtime
crash, matching how the closed form behaved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..gpu.specs import get_gpu
from ..runtime.core import GPUPool
from ..runtime.request import SessionRequest
from ..runtime.scheduler import DisaggregatedRuntime, RuntimeStats
from .inference import InferenceConfig, InferenceEngine, PhaseBreakdown
from .memory import kv_bytes_per_token
from .models import get_model

__all__ = [
    "DEPLOYMENT_COMPARISONS",
    "DisaggregatedConfig",
    "DisaggregatedResult",
    "kv_migration_seconds",
    "build_disaggregated_runtime",
    "simulate_disaggregated",
    "compare_deployments",
]


@dataclass(frozen=True)
class DisaggregatedConfig:
    """A two-pool deployment."""

    model: str
    prefill_framework: str
    decode_framework: str
    gpu: str = "RTX4090"
    prefill_gpus: int = 1
    decode_gpus: int = 1
    batch_size: int = 16
    prompt_len: int = 512
    output_len: int = 256
    sparsity: float = 0.6

    def __post_init__(self) -> None:
        if self.prefill_gpus <= 0 or self.decode_gpus <= 0:
            raise ValueError("both pools need at least one GPU")
        if self.batch_size <= 0 or self.prompt_len <= 0 or self.output_len <= 0:
            raise ValueError("batch, prompt and output lengths must be positive")


@dataclass
class DisaggregatedResult:
    """Phase times of a disaggregated run."""

    config: DisaggregatedConfig
    prefill: PhaseBreakdown
    kv_migration_s: float
    decode: PhaseBreakdown
    #: Full runtime outcome (event trace, KV snapshots, preemptions…);
    #: ``None`` for results constructed by hand.
    stats: Optional[RuntimeStats] = None

    @property
    def total_s(self) -> float:
        return self.prefill.total_s + self.kv_migration_s + self.decode.total_s

    @property
    def tokens_per_second(self) -> float:
        return (
            self.config.batch_size * self.config.output_len / self.total_s
            if self.total_s > 0
            else 0.0
        )


def _engine(cfg: DisaggregatedConfig, framework: str, gpus: int) -> InferenceEngine:
    from .frameworks import get_framework

    sparsity = cfg.sparsity if get_framework(framework).supports_sparsity else 0.0
    return InferenceEngine(
        InferenceConfig(
            model=cfg.model,
            framework=framework,
            gpu=cfg.gpu,
            num_gpus=gpus,
            batch_size=cfg.batch_size,
            prompt_len=cfg.prompt_len,
            output_len=cfg.output_len,
            sparsity=sparsity,
        )
    )


def kv_migration_seconds(cfg: DisaggregatedConfig) -> float:
    """Ship the prefill-produced KV cache to the decode pool.

    The KV cache for ``batch x prompt`` tokens crosses the inter-pool
    link once (layer-wise streaming overlaps poorly on PCIe, so we
    charge the full volume at link bandwidth); all prefill shards cross
    in parallel, so link time is the per-GPU share.  Pure helper shared
    with the deployment checker (rule D003 budgets it).
    """
    model = get_model(cfg.model)
    gpu = get_gpu(cfg.gpu)
    kv_bytes = (
        2.0 * model.num_layers * model.kv_size * cfg.prompt_len * cfg.batch_size * 2.0
    )
    return (kv_bytes / max(cfg.prefill_gpus, 1)) / (gpu.interconnect_gbs * 1e9)


def _demand_pool(
    engine: InferenceEngine,
    name: str,
    tokens_per_seq: int,
    batch: int,
    block_size: int = 16,
) -> GPUPool:
    """A pool sized to exactly hold ``batch`` sequences' KV."""
    alloc_blocks = batch * -(-tokens_per_seq // block_size)
    budget = alloc_blocks * block_size * kv_bytes_per_token(
        engine.model, engine.config.num_gpus
    )
    return GPUPool(
        engine=engine,
        kv_budget_bytes=budget,
        block_size=block_size,
        max_batch=batch,
        name=name,
        total_blocks=alloc_blocks,
    )


def build_disaggregated_runtime(
    cfg: DisaggregatedConfig,
    snapshot_every: int = 0,
    recovery=None,
    fault_plan=None,
    loop=None,
    integrity=None,
) -> DisaggregatedRuntime:
    """Wire the two pools of ``cfg`` into an event runtime.

    ``recovery`` (a :class:`~repro.runtime.faults.RecoveryPolicy`)
    governs what happens when a ``fault_plan`` loses a KV migration in
    flight: retry across the link after backoff, or fail the batch.
    Both default to None — the fault-free runtime is bit-identical to
    the pre-fault one.
    """
    prefill_engine = _engine(cfg, cfg.prefill_framework, cfg.prefill_gpus)
    decode_engine = _engine(cfg, cfg.decode_framework, cfg.decode_gpus)
    # The migration cost model is linear in migrated tokens; scale the
    # closed-form helper (whole-batch volume) down to a per-token rate
    # so partial batches price correctly too.
    rate = kv_migration_seconds(cfg) / (cfg.batch_size * cfg.prompt_len)
    runtime = DisaggregatedRuntime(
        prefill_pool=_demand_pool(
            prefill_engine, "prefill", cfg.prompt_len, cfg.batch_size
        ),
        decode_pool=_demand_pool(
            decode_engine,
            "decode",
            cfg.prompt_len + cfg.output_len,
            cfg.batch_size,
        ),
        migration_seconds=lambda tokens: rate * tokens,
        snapshot_every=snapshot_every,
        recovery=recovery,
        loop=loop,
        integrity=integrity,
    )
    if fault_plan is not None:
        from ..runtime.faults import FaultInjector

        FaultInjector(fault_plan).arm(runtime)
    return runtime


def simulate_disaggregated(
    cfg: DisaggregatedConfig, snapshot_every: int = 0
) -> DisaggregatedResult:
    """Prefill on pool A, migrate KV, decode on pool B."""
    runtime = build_disaggregated_runtime(cfg, snapshot_every=snapshot_every)
    requests: List[SessionRequest] = [
        SessionRequest(
            request_id=i,
            arrival_s=0.0,
            prompt_len=cfg.prompt_len,
            output_len=cfg.output_len,
        )
        for i in range(cfg.batch_size)
    ]
    stats = runtime.run(requests)
    return DisaggregatedResult(
        config=cfg,
        prefill=runtime.prefill_breakdown,
        kv_migration_s=runtime.kv_migration_s,
        decode=stats.decode_breakdown,
        stats=stats,
    )


#: Canonical comparison order of the disaggregation experiment: both
#: :func:`compare_deployments` and the bench table iterate this tuple,
#: so row order is explicit rather than implied by dict insertion.
DEPLOYMENT_COMPARISONS: Tuple[str, ...] = (
    "dense/dense",
    "spinfer/spinfer",
    "dense-prefill + spinfer-decode",
)

_COMPARISON_FRAMEWORKS: Dict[str, Tuple[str, str]] = {
    "dense/dense": ("fastertransformer", "fastertransformer"),
    "spinfer/spinfer": ("spinfer", "spinfer"),
    "dense-prefill + spinfer-decode": ("fastertransformer", "spinfer"),
}


def compare_deployments(
    model: str = "opt-13b",
    gpu: str = "RTX4090",
    batch_size: int = 16,
    prompt_len: int = 1024,
    output_len: int = 128,
    sparsity: float = 0.6,
) -> Dict[str, DisaggregatedResult]:
    """Homogeneous vs hybrid deployments on equal GPU counts (1 + 1)."""
    out = {}
    for label in DEPLOYMENT_COMPARISONS:
        pf, df = _COMPARISON_FRAMEWORKS[label]
        out[label] = simulate_disaggregated(
            DisaggregatedConfig(
                model=model,
                prefill_framework=pf,
                decode_framework=df,
                gpu=gpu,
                prefill_gpus=1,
                decode_gpus=1,
                batch_size=batch_size,
                prompt_len=prompt_len,
                output_len=output_len,
                sparsity=sparsity,
            )
        )
    return out
