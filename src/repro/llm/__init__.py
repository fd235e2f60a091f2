"""LLM inference substrate: model zoo, memory model, tensor parallelism,
framework presets, and the end-to-end generation simulator."""

from .accuracy import (
    accuracy_sweep,
    layer_reconstruction_error,
    logit_kl_divergence,
    top1_agreement,
)
from .collectives import (
    allgather,
    reduce_scatter,
    ring_allreduce,
    ring_allreduce_seconds,
    tree_allreduce,
    tree_allreduce_seconds,
)
from .disaggregation import (
    DisaggregatedConfig,
    DisaggregatedResult,
    build_disaggregated_runtime,
    kv_migration_seconds,
    simulate_disaggregated,
)
from .frameworks import FRAMEWORKS, FrameworkPreset, get_framework
from .functional_model import FunctionalTransformer, TinyConfig
from .inference import (
    InferenceConfig,
    InferenceEngine,
    InferenceResult,
    PhaseBreakdown,
    simulate_inference,
)
from .kv_cache import KVBlockAllocator, SequenceAllocation
from .memory import (
    MemoryBreakdown,
    estimate_memory,
    kv_budget_bytes,
    kv_bytes_per_token,
)
from .models import MODELS, ModelConfig, WeightMatrix, get_model, kernel_matrix_zoo
from .offloading import (
    OffloadPlan,
    layer_bytes,
    offloaded_decode_step_seconds,
    plan_offload,
)
from .parallel import CommModel, allreduce_seconds, shard_dim, shard_waste
from .planning import DeploymentPlan, best_batch, min_gpus
from .serving import (
    Request,
    ServingConfig,
    ServingSimulator,
    compare_frameworks,
    mixed_workload,
    poisson_workload,
)

__all__ = [
    "FRAMEWORKS",
    "FrameworkPreset",
    "InferenceConfig",
    "InferenceEngine",
    "InferenceResult",
    "MODELS",
    "MemoryBreakdown",
    "ModelConfig",
    "PhaseBreakdown",
    "WeightMatrix",
    "allreduce_seconds",
    "CommModel",
    "estimate_memory",
    "get_framework",
    "get_model",
    "kernel_matrix_zoo",
    "kv_budget_bytes",
    "kv_bytes_per_token",
    "kv_migration_seconds",
    "layer_bytes",
    "shard_dim",
    "shard_waste",
    "simulate_inference",
    "Request",
    "ServingConfig",
    "ServingSimulator",
    "compare_frameworks",
    "KVBlockAllocator",
    "SequenceAllocation",
    "mixed_workload",
    "poisson_workload",
    "DisaggregatedConfig",
    "DisaggregatedResult",
    "build_disaggregated_runtime",
    "FunctionalTransformer",
    "TinyConfig",
    "allgather",
    "reduce_scatter",
    "ring_allreduce",
    "ring_allreduce_seconds",
    "simulate_disaggregated",
    "tree_allreduce",
    "tree_allreduce_seconds",
    "accuracy_sweep",
    "layer_reconstruction_error",
    "logit_kl_divergence",
    "top1_agreement",
    "OffloadPlan",
    "offloaded_decode_step_seconds",
    "plan_offload",
    "DeploymentPlan",
    "best_batch",
    "min_gpus",
]
