"""End-to-end LLM inference simulator (paper Figs. 2, 13, 14, 15).

Composes the kernel cost model into a full autoregressive generation
timeline, the way FasterTransformer (and the paper's SpInfer/Flash-LLM
integrations) executes it:

* **Prefill** — one forward pass over ``batch x prompt`` tokens; linear
  layers see a wide activation panel (``N = batch * prompt_len``), which
  is why sparse kernels lose their edge there (Fig. 16).
* **Decode** — ``output_len`` sequential steps; each step runs every
  layer's linears at ``N = batch`` (SpMM's sweet spot), attention against
  the growing KV cache, and two tensor-parallel all-reduces per layer.

Per-phase time is broken into linear (SpMM/GEMM), attention (MHA),
communication, and other (layernorms, residuals, kernel-launch glue) —
the categories of the paper's Fig. 15 breakdown.  Memory is checked
against the GPU's capacity to reproduce the OOM walls of Figs. 13-14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..gpu.specs import GPUSpec, get_gpu
from ..kernels.base import SpMMProblem
from .frameworks import FrameworkPreset, get_framework
from .memory import MemoryBreakdown, estimate_memory
from .models import ModelConfig, get_model
from .parallel import CommModel, shard_dim

__all__ = ["InferenceConfig", "PhaseBreakdown", "InferenceResult", "InferenceEngine"]

#: Fraction of DRAM peak the fused attention kernel achieves on KV reads.
_ATTN_MEM_EFF = 0.60
#: Fraction of TC peak the prefill attention (FlashAttention-style) hits.
_ATTN_TC_EFF = 0.50
#: Per-layer fixed cost of the decode MHA path: FasterTransformer's
#: small-batch attention is several unfused kernels (QK^T, softmax, PV,
#: transposes) whose launches dominate at decode batch sizes.
_ATTN_LAUNCH_S = 40e-6
#: Non-GEMM elementwise work per layer: layernorms x2, residuals x2,
#: activation — roughly 6 reads+writes of the hidden activations.
_ELEMENTWISE_PASSES = 8.0
#: Kernel-launch glue per layer (non-GEMM launches), seconds.
_LAYER_GLUE_S = 30e-6
#: Host-side work per decode step (sampling, token bookkeeping, sync).
_STEP_OVERHEAD_S = 1e-3


@dataclass(frozen=True)
class InferenceConfig:
    """One generation workload."""

    model: str
    framework: str
    gpu: str = "RTX4090"
    num_gpus: int = 1
    batch_size: int = 8
    prompt_len: int = 128
    output_len: int = 256
    sparsity: float = 0.6

    def __post_init__(self) -> None:
        if self.num_gpus <= 0 or self.batch_size <= 0:
            raise ValueError("num_gpus and batch_size must be positive")
        if self.prompt_len <= 0 or self.output_len <= 0:
            raise ValueError("prompt_len and output_len must be positive")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")


@dataclass
class PhaseBreakdown:
    """Time decomposition of one phase, seconds (paper Fig. 15 categories)."""

    linear_s: float = 0.0
    attention_s: float = 0.0
    comm_s: float = 0.0
    other_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.linear_s + self.attention_s + self.comm_s + self.other_s

    def scaled(self, factor: float) -> "PhaseBreakdown":
        return PhaseBreakdown(
            linear_s=self.linear_s * factor,
            attention_s=self.attention_s * factor,
            comm_s=self.comm_s * factor,
            other_s=self.other_s * factor,
        )

    def add(self, other: "PhaseBreakdown") -> None:
        self.linear_s += other.linear_s
        self.attention_s += other.attention_s
        self.comm_s += other.comm_s
        self.other_s += other.other_s


@dataclass
class InferenceResult:
    """Outcome of one simulated generation run."""

    config: InferenceConfig
    prefill: PhaseBreakdown
    decode: PhaseBreakdown
    memory: MemoryBreakdown
    oom: bool

    @property
    def total_s(self) -> float:
        return self.prefill.total_s + self.decode.total_s

    @property
    def tokens_per_second(self) -> float:
        """Generated-token throughput (the paper's headline metric)."""
        if self.oom:
            return 0.0
        total = self.total_s
        return (
            self.config.batch_size * self.config.output_len / total
            if total > 0
            else 0.0
        )

    @property
    def memory_gb(self) -> float:
        return self.memory.total_gb


class InferenceEngine:
    """Simulates autoregressive generation for one configuration."""

    def __init__(self, config: InferenceConfig):
        self.config = config
        self.model: ModelConfig = get_model(config.model)
        self.gpu: GPUSpec = get_gpu(config.gpu)
        self.framework: FrameworkPreset = get_framework(config.framework)
        if config.sparsity > 0 and not self.framework.supports_sparsity:
            raise ValueError(
                f"framework {config.framework!r} runs dense weights; "
                "set sparsity=0"
            )
        self.kernel = self.framework.make_kernel()
        self._dense_kernel = get_framework("fastertransformer").make_kernel()
        self.comm = CommModel(gpu=self.gpu, ranks=config.num_gpus)
        self._profile_cache: Dict[Tuple[str, int, int, int, float], float] = {}
        #: ``batch -> (linear_s, comm_s, other_s, kv_coef, mem_den,
        #: flop_coef, flop_den)`` of one decode step.  Exact, not an
        #: approximation: each reads ``batch`` and the engine's immutable
        #: configuration only.  Attention is the one term that reads
        #: ``context``; the memo holds its batch-only factors, and every
        #: call finishes the products in their left-to-right order.
        self._decode_memo: Dict[int, Tuple[float, ...]] = {}
        #: ``n_tokens -> seconds`` of :meth:`prefill_tokens_seconds`.
        self._prefill_memo: Dict[int, float] = {}

    # ---- building blocks ---------------------------------------------------------

    def _linear_seconds(
        self, m: int, k: int, n_tokens: int, sparse: bool
    ) -> float:
        """Time of one (possibly sharded) linear layer at ``N = n_tokens``."""
        kernel = self.kernel if sparse else self._dense_kernel
        sparsity = self.config.sparsity if sparse else 0.0
        key = (kernel.name, m, k, n_tokens, sparsity)
        cached = self._profile_cache.get(key)
        if cached is None:
            problem = SpMMProblem(m=m, k=k, n=n_tokens, sparsity=sparsity)
            cached = kernel.profile(problem, self.gpu).time_s
            self._profile_cache[key] = cached
        return cached

    def _layer_linears_seconds(self, n_tokens: int) -> float:
        """All linear layers of one transformer block, sharded over TP."""
        g = self.config.num_gpus
        sparse = self.framework.supports_sparsity and self.config.sparsity > 0
        model = self.model
        total = 0.0
        for w in model.weight_matrices():
            if w.name in ("attn.qkv_proj",) or w.name.startswith("ffn.") and (
                w.name.endswith("fc1") or "gate_up" in w.name
            ):
                m, k = shard_dim(w.m, g), w.k  # column-parallel
            else:
                m, k = w.m, shard_dim(w.k, g)  # row-parallel
            if model.num_experts > 1 and w.name.startswith("ffn."):
                # MoE: tokens route to top-k experts; with decode batches the
                # active experts each see a slice of the token batch.
                active = min(
                    model.num_experts,
                    max(1, n_tokens * model.experts_per_token),
                )
                per_expert_tokens = max(
                    1, n_tokens * model.experts_per_token // active
                )
                total += active * self._linear_seconds(
                    m, k, per_expert_tokens, sparse
                )
            else:
                total += w.count * self._linear_seconds(m, k, n_tokens, sparse)
        return total

    def _lm_head_seconds(self, n_tokens: int) -> float:
        """Final vocabulary projection — dense in every framework."""
        g = self.config.num_gpus
        return self._linear_seconds(
            shard_dim(self.model.vocab_size, g),
            self.model.hidden_size,
            n_tokens,
            sparse=False,
        )

    def _prefill_attention_seconds(
        self, batch: Optional[int] = None, prompt_len: Optional[int] = None
    ) -> float:
        """Prefill self-attention (FlashAttention-style) for all layers' one
        pass: quadratic in prompt length."""
        model, cfg = self.model, self.config
        batch = cfg.batch_size if batch is None else batch
        prompt_len = cfg.prompt_len if prompt_len is None else prompt_len
        heads = shard_dim(model.num_heads, cfg.num_gpus)
        flops = 4.0 * batch * heads * model.head_dim * prompt_len**2
        return flops / (self.gpu.tc_fp16_flops * _ATTN_TC_EFF) + _ATTN_LAUNCH_S

    def _other_seconds(self, n_tokens: int) -> float:
        """Layernorms, residuals, activation functions, launch glue."""
        bytes_moved = (
            _ELEMENTWISE_PASSES * 2.0 * n_tokens * self.model.hidden_size * 2.0
        )
        t = bytes_moved / self.gpu.dram_bandwidth_bytes + _LAYER_GLUE_S
        return t * self.framework.overhead_factor

    def decode_step_seconds(self, batch: int, context: float) -> PhaseBreakdown:
        """Cost of ONE decode iteration at an arbitrary running batch and
        average context — the primitive the continuous-batching serving
        simulator composes.  Returns a fresh breakdown on every call."""
        if batch <= 0 or context < 0:
            raise ValueError("batch must be positive and context non-negative")
        model = self.model
        layers = model.num_layers
        fixed = self._decode_memo.get(batch)
        if fixed is None:
            g = self.config.num_gpus
            fixed = self._decode_memo[batch] = (
                layers * self._layer_linears_seconds(batch)
                + self._lm_head_seconds(batch),
                layers
                * self.comm.layer_allreduce_seconds(model.hidden_size, batch),
                layers * self._other_seconds(batch)
                + _STEP_OVERHEAD_S * self.framework.overhead_factor,
                # Fused attention over the cache: fp16 K and V bytes
                # read, and QK^T plus PV flops, each ``* context``.
                2.0 * 2.0 * shard_dim(model.kv_size, g),
                self.gpu.dram_bandwidth_bytes * _ATTN_MEM_EFF,
                4.0 * batch * shard_dim(model.num_heads, g) * model.head_dim,
                self.gpu.cuda_fp16_flops * 0.5,
            )
        linear_s, comm_s, other_s, kv_coef, mem_den, flop_coef, flop_den = fixed
        t_mem = kv_coef * context * batch / mem_den
        t_cc = flop_coef * context / flop_den
        return PhaseBreakdown(
            linear_s=linear_s,
            attention_s=layers * (max(t_mem, t_cc) + _ATTN_LAUNCH_S),
            comm_s=comm_s,
            other_s=other_s,
        )

    def prefill_tokens_seconds(self, n_tokens: int) -> float:
        """Linear + elementwise cost of pushing ``n_tokens`` prompt
        tokens through every layer — the per-chunk prefill primitive the
        serving runtime composes (attention/comm/LM-head excluded, as in
        the serving simulator's historical prefill charge)."""
        if n_tokens <= 0:
            raise ValueError("n_tokens must be positive")
        seconds = self._prefill_memo.get(n_tokens)
        if seconds is None:
            seconds = self._prefill_memo[n_tokens] = self.model.num_layers * (
                self._layer_linears_seconds(n_tokens)
                + self._other_seconds(n_tokens)
            )
        return seconds

    # ---- phases ------------------------------------------------------------------

    def prefill_breakdown(self, batch: int, prompt_len: int) -> PhaseBreakdown:
        """Full prefill pass for an arbitrary ``batch x prompt_len`` —
        the primitive the disaggregated runtime's prefill pool prices."""
        if batch <= 0 or prompt_len <= 0:
            raise ValueError("batch and prompt_len must be positive")
        n_tokens = batch * prompt_len
        layers = self.model.num_layers
        return PhaseBreakdown(
            linear_s=layers * self._layer_linears_seconds(n_tokens)
            + self._lm_head_seconds(batch),
            attention_s=layers
            * self._prefill_attention_seconds(batch, prompt_len),
            comm_s=layers
            * self.comm.layer_allreduce_seconds(self.model.hidden_size, n_tokens),
            other_s=layers * self._other_seconds(n_tokens),
        )

    def _prefill(self) -> PhaseBreakdown:
        cfg = self.config
        return self.prefill_breakdown(cfg.batch_size, cfg.prompt_len)

    def _decode(self) -> PhaseBreakdown:
        cfg = self.config
        # Attention grows linearly with context; sum it exactly via the
        # average context length.
        avg_context = cfg.prompt_len + (cfg.output_len - 1) / 2.0
        return self.decode_step_seconds(cfg.batch_size, avg_context).scaled(
            cfg.output_len
        )

    # ---- entry point ----------------------------------------------------------------

    def simulate(self) -> InferenceResult:
        """Run the full generation timeline and memory check."""
        cfg = self.config
        sparsity = cfg.sparsity if self.framework.supports_sparsity else 0.0
        memory = estimate_memory(
            self.model,
            self.framework.weight_format,
            sparsity,
            batch_size=cfg.batch_size,
            context_len=cfg.prompt_len + cfg.output_len,
            tensor_parallel=cfg.num_gpus,
        )
        oom = not memory.fits(self.gpu)
        return InferenceResult(
            config=cfg,
            prefill=self._prefill(),
            decode=self._decode(),
            memory=memory,
            oom=oom,
        )


def simulate_inference(config: InferenceConfig) -> InferenceResult:
    """Convenience wrapper: build an engine and simulate."""
    return InferenceEngine(config).simulate()
