"""Static verification of deployment plans (``repro lint --deployment``).

The paper's end-to-end claims (Figs. 13-15, Section 7.3) rest on
deployment-level invariants: the per-GPU memory decomposition decides
how few GPUs host each model, the KV budget decides what a server can
admit, PCIe bandwidth decides whether offloading meets a step deadline.
This module proves those invariants *before* any simulation runs, over
five rule families:

* ``M001``-``M006`` — memory-budget proofs over a
  :class:`~repro.analysis.deploy_model.DeploymentSpec`;
* ``T001``-``T005`` — tensor-parallel sharding (divisibility, quantified
  ceil-padding waste, collective-model assumptions);
* ``K001``-``K005`` — paged KV-cache plans and live allocator state
  (budget backing, coverage, refcount conservation);
* ``O001``-``O004`` — offload feasibility over an
  :class:`~repro.llm.offloading.OffloadPlan`;
* ``D001``-``D004`` — disaggregated prefill/decode configurations.

``check_all_builtin_deployments`` sweeps the builtin model x GPU x
framework grid at the paper's sparsity, derives a KV plan for every
feasible spec, lints every builtin offload and disaggregated
deployment, and translation-validates the planner: every
:class:`~repro.llm.planning.DeploymentPlan` that ``best_batch`` /
``min_gpus`` emit must come back finding-free.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Counter as CounterType
from typing import Iterable, Iterator, List, Optional, Union

from ..gpu.specs import GPUSpec, get_gpu
from ..llm.disaggregation import DisaggregatedConfig, kv_migration_seconds
from ..llm.frameworks import FRAMEWORKS, get_framework
from ..llm.kv_cache import KVBlockAllocator
from ..llm.memory import RUNTIME_OVERHEAD_BYTES, estimate_memory
from ..llm.models import MODELS, ModelConfig, get_model
from ..llm.offloading import OffloadPlan, layer_bytes, plan_offload
from ..llm.parallel import shard_waste
from ..llm.planning import DeploymentPlan, best_batch, min_gpus
from .deploy_model import (
    DeploymentSpec,
    KVCachePlan,
    effective_sparsity,
    kv_plan_for_spec,
    spec_framework,
    spec_gpu,
    spec_kv_budget_bytes,
    spec_kv_bytes_per_token,
    spec_memory,
    spec_model,
)
from .findings import Finding, Report, Rule, Severity, register_rules

__all__ = [
    "lint_deployment",
    "lint_deployment_plan",
    "lint_disaggregated",
    "lint_kv_allocator",
    "lint_kv_plan",
    "lint_offload_plan",
    "builtin_deployment_specs",
    "check_all_builtin_deployments",
]

register_rules(
    "M", "deployment memory budgets", __name__, "--deployment",
    [
        Rule("M001", "deployment-oom", Severity.ERROR,
             "per-GPU footprint at max batch/context exceeds DRAM capacity "
             "(Eq. 12-style memory model; the Figs. 13-14 OOM wall)"),
        Rule("M002", "no-kv-headroom", Severity.ERROR,
             "static footprint (weights + embeddings + activations + "
             "runtime overhead) alone leaves no KV-cache budget"),
        Rule("M003", "admission-impossible", Severity.ERROR,
             "one max-length sequence's KV cache exceeds the whole KV "
             "budget — the serving admission loop can never admit it"),
        Rule("M004", "thin-oom-margin", Severity.WARNING,
             "deployment fits but DRAM headroom is below the safety margin "
             "(fragmentation or a longer prompt tips it over)"),
        Rule("M005", "sparsity-format-mismatch", Severity.ERROR,
             "sparsity outside [0, 1), dense weight format asked to encode "
             "sparsity, or a sparse format running at sparsity 0"),
        Rule("M006", "counterproductive-compression", Severity.WARNING,
             "sparse weight format stores more bytes than dense FP16 at "
             "this sparsity (below the format's breakeven)"),
    ],
)

register_rules(
    "T", "tensor-parallel sharding", __name__, "--deployment",
    [
        Rule("T001", "ranks-exceed-heads", Severity.ERROR,
             "more tensor-parallel ranks than attention heads — a rank "
             "would own zero heads"),
        Rule("T002", "shard-padding-waste", Severity.WARNING,
             "ceil-sharding pads weight shards; quantifies the wasted "
             "bytes across all ranks"),
        Rule("T003", "kv-head-replication", Severity.WARNING,
             "more ranks than KV heads: GQA KV projections replicate and "
             "the sharded KV-cache accounting undercounts"),
        Rule("T004", "ragged-allreduce", Severity.WARNING,
             "hidden size not divisible by ranks — the all-reduce "
             "exchanges ceil-padded activations"),
        Rule("T005", "non-power-of-two-ranks", Severity.WARNING,
             "GPU count is not a power of two; the ring collective model "
             "and the planner's search assume powers of two"),
    ],
)

register_rules(
    "K", "KV-cache plans and allocators", __name__, "--deployment",
    [
        Rule("K001", "kv-plan-undersized", Severity.ERROR,
             "block pool cannot page max_seqs sequences of max_seq_len "
             "tokens"),
        Rule("K002", "kv-plan-overcommits-budget", Severity.ERROR,
             "block pool claims more bytes than the DRAM KV budget backs"),
        Rule("K003", "block-size-slack", Severity.WARNING,
             "block size leaves excessive per-sequence slack (or exceeds "
             "max_seq_len outright)"),
        Rule("K004", "refcount-conservation", Severity.ERROR,
             "allocator refcounts disagree with block-table references, "
             "or used + free blocks do not cover the pool"),
        Rule("K005", "block-table-invalid", Severity.ERROR,
             "a sequence references an out-of-range/free/duplicated block "
             "or stores more tokens than its blocks hold"),
    ],
)

register_rules(
    "O", "offload feasibility", __name__, "--deployment",
    [
        Rule("O001", "offload-layer-split-invalid", Severity.ERROR,
             "resident/streamed layer split is negative or does not sum "
             "to the model's layer count"),
        Rule("O002", "stream-deadline-miss", Severity.ERROR,
             "per-step streamed weight bytes cannot cross the host link "
             "within the decode-step deadline"),
        Rule("O003", "layer-bytes-mismatch", Severity.ERROR,
             "plan's per-layer byte count disagrees with the analytic "
             "sparsity-scaled storage equation"),
        Rule("O004", "resident-overflow", Severity.ERROR,
             "resident layers + KV reservation + embeddings + overhead "
             "exceed GPU DRAM"),
    ],
)

register_rules(
    "D", "disaggregated deployments", __name__, "--deployment",
    [
        Rule("D001", "disagg-prefill-oom", Severity.ERROR,
             "prefill pool cannot hold the model at prompt-length context"),
        Rule("D002", "disagg-decode-oom", Severity.ERROR,
             "decode pool cannot hold the model at full context"),
        Rule("D003", "kv-migration-exceeds-budget", Severity.WARNING,
             "prefill->decode KV migration over the interconnect exceeds "
             "the migration time budget"),
        Rule("D004", "disagg-sparsity-unused", Severity.WARNING,
             "sparsity configured but neither pool's framework can use it"),
    ],
)

#: DRAM fraction that must stay free for a deployment to clear M004.
DEFAULT_OOM_MARGIN = 0.05
#: Per-sequence paging slack fraction beyond which K003 fires.
DEFAULT_SLACK_LIMIT = 0.25
#: Default prefill->decode KV migration time budget (rule D003).
DEFAULT_MIGRATION_BUDGET_S = 1.0


def _gb(x: float) -> str:
    return f"{x / 1e9:.2f} GB"


# ---- memory + sharding rules over a DeploymentSpec ---------------------------------


def _column_parallel(name: str) -> bool:
    """Whether the engine shards this weight's output dim (Megatron
    column parallelism) — mirrors ``InferenceEngine._layer_linears_seconds``."""
    return name == "attn.qkv_proj" or (
        name.startswith("ffn.") and (name.endswith("fc1") or "gate_up" in name)
    )


def _sharding_waste_bytes(model: ModelConfig, ranks: int) -> float:
    """FP16 bytes ceil-padding adds across all ranks and layers."""
    waste = 0.0
    for w in model.weight_matrices():
        if _column_parallel(w.name):
            waste += shard_waste(w.m, ranks) * w.k * w.count
        else:
            waste += shard_waste(w.k, ranks) * w.m * w.count
    waste *= model.num_layers
    waste += shard_waste(model.vocab_size, ranks) * model.hidden_size  # LM head
    return 2.0 * waste


def _check_config(spec: DeploymentSpec) -> List[Finding]:
    """M005: sparsity/format consistency.  Returns the findings; an
    error-severity M005 means the memory rules cannot run."""
    findings = []
    framework = spec_framework(spec)
    if not 0.0 <= spec.sparsity < 1.0:
        findings.append(Finding(
            "M005",
            f"sparsity {spec.sparsity} outside [0, 1)",
            subject=spec.subject,
        ))
        return findings
    if spec.sparsity > 0.0 and not framework.supports_sparsity:
        findings.append(Finding(
            "M005",
            f"framework {spec.framework!r} stores dense "
            f"{framework.weight_format!r} weights and refuses "
            f"sparsity {spec.sparsity}",
            subject=spec.subject,
        ))
    elif spec.sparsity == 0.0 and framework.supports_sparsity:
        findings.append(Finding(
            "M005",
            f"sparse format {framework.weight_format!r} at sparsity 0 "
            "stores index structures for nothing",
            subject=spec.subject,
            severity=Severity.WARNING,
        ))
    return findings


def _check_memory(spec: DeploymentSpec, oom_margin: float) -> List[Finding]:
    """M001-M004, M006: the Eq. 12-style per-GPU budget proofs."""
    findings = []
    model = spec_model(spec)
    gpu = spec_gpu(spec)
    memory = spec_memory(spec)
    capacity = gpu.dram_capacity_bytes
    subject = spec.subject

    if memory.total > capacity:
        findings.append(Finding(
            "M001",
            f"needs {_gb(memory.total)}/GPU at batch {spec.batch_size}, "
            f"context {spec.context_len}; {gpu.name} has {_gb(capacity)}",
            subject=subject,
        ))
    elif capacity - memory.total < oom_margin * capacity:
        findings.append(Finding(
            "M004",
            f"only {_gb(capacity - memory.total)} headroom "
            f"(< {oom_margin:.0%} of {_gb(capacity)})",
            subject=subject,
        ))

    budget = spec_kv_budget_bytes(spec)
    if budget <= 0:
        findings.append(Finding(
            "M002",
            f"static footprint exceeds DRAM by {_gb(-budget)}; "
            "no KV budget at any batch size",
            subject=subject,
        ))
    else:
        per_seq = spec.context_len * spec_kv_bytes_per_token(spec)
        if per_seq > budget:
            findings.append(Finding(
                "M003",
                f"one {spec.context_len}-token sequence needs "
                f"{_gb(per_seq)} of KV but the budget is {_gb(budget)}",
                subject=subject,
            ))

    framework = spec_framework(spec)
    if framework.weight_format != "dense":
        dense_weights = model.weight_bytes_dense() / spec.num_gpus
        if memory.weights >= dense_weights:
            findings.append(Finding(
                "M006",
                f"{framework.weight_format!r} stores {_gb(memory.weights)} "
                f"vs {_gb(dense_weights)} dense at sparsity "
                f"{effective_sparsity(spec):.0%} — below breakeven",
                subject=subject,
            ))
    return findings


def _check_sharding(spec: DeploymentSpec) -> List[Finding]:
    """T001-T005: tensor-parallel divisibility and collective assumptions."""
    findings = []
    model = spec_model(spec)
    ranks = spec.num_gpus
    subject = spec.subject
    if ranks == 1:
        return findings

    if ranks > model.num_heads:
        findings.append(Finding(
            "T001",
            f"{ranks} ranks but only {model.num_heads} attention heads",
            subject=subject,
        ))
    waste = _sharding_waste_bytes(model, ranks)
    if waste > 0:
        dense = float(model.weight_bytes_dense())
        findings.append(Finding(
            "T002",
            f"ceil-sharding over {ranks} ranks pads "
            f"{waste / 1e6:.1f} MB ({waste / dense:.2%} of dense weights)",
            subject=subject,
        ))
    if ranks > model.num_kv_heads:
        findings.append(Finding(
            "T003",
            f"{ranks} ranks > {model.num_kv_heads} KV heads: GQA "
            "projections replicate and per-rank KV accounting undercounts",
            subject=subject,
        ))
    if model.hidden_size % ranks:
        findings.append(Finding(
            "T004",
            f"hidden size {model.hidden_size} not divisible by {ranks} "
            "ranks; all-reduces exchange ceil-padded activations",
            subject=subject,
        ))
    if ranks & (ranks - 1):
        findings.append(Finding(
            "T005",
            f"{ranks} GPUs is not a power of two",
            subject=subject,
        ))
    return findings


def lint_deployment(
    spec: DeploymentSpec,
    oom_margin: float = DEFAULT_OOM_MARGIN,
) -> List[Finding]:
    """Run the M (memory) and T (sharding) families over one spec.

    Raises ``ValueError`` for non-positive counts/lengths (those are
    malformed inputs, not deployments) and ``KeyError`` for names
    missing from the model/framework/GPU registries.
    """
    if spec.num_gpus <= 0 or spec.batch_size <= 0:
        raise ValueError("num_gpus and batch_size must be positive")
    if spec.prompt_len <= 0 or spec.output_len <= 0:
        raise ValueError("prompt_len and output_len must be positive")
    spec_model(spec), spec_framework(spec), spec_gpu(spec)  # fail fast

    findings = _check_config(spec)
    if not any(f.severity == Severity.ERROR for f in findings):
        findings.extend(_check_memory(spec, oom_margin))
    findings.extend(_check_sharding(spec))
    return findings


def lint_deployment_plan(
    plan: DeploymentPlan,
    template: DeploymentSpec,
    oom_margin: float = DEFAULT_OOM_MARGIN,
) -> List[Finding]:
    """Translation-validate a planner-emitted plan against the checker.

    Rebuilds the spec at the plan's chosen batch size and GPU count; a
    correct planner only returns plans the checker proves feasible, so
    any error-severity finding here means planner and checker disagree.
    """
    spec = replace(
        template, batch_size=plan.batch_size, num_gpus=plan.num_gpus
    )
    return lint_deployment(spec, oom_margin=oom_margin)


# ---- KV-cache rules ----------------------------------------------------------------


def lint_kv_plan(
    plan: KVCachePlan,
    bytes_per_token: Optional[float] = None,
    budget_bytes: Optional[float] = None,
    slack_limit: float = DEFAULT_SLACK_LIMIT,
) -> List[Finding]:
    """K001-K003 over a block-pool sizing claim.

    ``bytes_per_token`` + ``budget_bytes`` enable the K002 budget-backing
    proof; without them only the structural rules run.
    """
    findings = []
    subject = plan.subject
    if (
        plan.block_size <= 0
        or plan.total_blocks < 0
        or plan.max_seqs <= 0
        or plan.max_seq_len <= 0
    ):
        findings.append(Finding(
            "K001",
            "malformed plan: block size, sequence count and length must "
            "be positive (blocks non-negative)",
            subject=subject,
        ))
        return findings

    needed = plan.max_seqs * plan.blocks_per_seq
    if plan.total_blocks < needed:
        findings.append(Finding(
            "K001",
            f"{plan.total_blocks} blocks cannot page {plan.max_seqs} "
            f"sequences x {plan.max_seq_len} tokens "
            f"(need {needed} blocks of {plan.block_size})",
            subject=subject,
        ))
    if bytes_per_token is not None and budget_bytes is not None:
        pool_bytes = plan.pool_tokens * bytes_per_token
        if pool_bytes > budget_bytes:
            findings.append(Finding(
                "K002",
                f"pool claims {_gb(pool_bytes)} but the DRAM KV budget "
                f"is {_gb(budget_bytes)}",
                subject=subject,
            ))
    slack = plan.blocks_per_seq * plan.block_size - plan.max_seq_len
    if slack / plan.max_seq_len > slack_limit:
        findings.append(Finding(
            "K003",
            f"block size {plan.block_size} wastes {slack} of "
            f"{plan.max_seq_len} token slots per worst-case sequence "
            f"({slack / plan.max_seq_len:.0%} slack)",
            subject=subject,
        ))
    return findings


def lint_kv_allocator(alloc: KVBlockAllocator) -> List[Finding]:
    """K004-K005 over a live allocator: copy-on-write bookkeeping proofs.

    Conservation (K004): every allocated block's refcount equals the
    number of block-table references to it, the free list and the
    refcounted set partition the pool.  Validity (K005): tables only
    hold in-range, allocated, per-table-unique blocks and never claim
    more tokens than their blocks hold.  The allocator's methods keep
    both as they write: ``tests/test_kv_cache.py`` asserts this finds
    nothing after every step of random allocator programs.
    """
    import collections

    findings = []
    subject = f"kvalloc:{alloc.total_blocks}x{alloc.block_size}"
    tables = alloc.block_tables()
    refcounts = alloc.refcounts()
    free = alloc.free_block_ids()
    free_set = set(free)

    refs: CounterType[int] = collections.Counter()
    for seq_id in sorted(tables):
        table = tables[seq_id]
        seen = set()
        for block in table:
            refs[block] += 1
            if not 0 <= block < alloc.total_blocks:
                findings.append(Finding(
                    "K005",
                    f"sequence {seq_id} references block {block}, "
                    f"outside the pool of {alloc.total_blocks}",
                    subject=subject, location=seq_id,
                ))
            elif block in free_set:
                findings.append(Finding(
                    "K005",
                    f"sequence {seq_id} references block {block}, "
                    "which is on the free list",
                    subject=subject, location=seq_id,
                ))
            if block in seen:
                findings.append(Finding(
                    "K005",
                    f"sequence {seq_id} lists block {block} twice",
                    subject=subject, location=seq_id,
                ))
            seen.add(block)
        tokens = alloc.sequence(seq_id).tokens
        if tokens < 0 or tokens > len(table) * alloc.block_size:
            findings.append(Finding(
                "K005",
                f"sequence {seq_id} claims {tokens} tokens in "
                f"{len(table)} block(s) of {alloc.block_size}",
                subject=subject, location=seq_id,
            ))

    if len(free) != len(free_set):
        findings.append(Finding(
            "K004",
            "free list contains duplicate block ids",
            subject=subject,
        ))
    if free_set & set(refcounts):
        findings.append(Finding(
            "K004",
            f"block(s) {sorted(free_set & set(refcounts))} are both free "
            "and refcounted",
            subject=subject,
        ))
    if len(free_set | set(refcounts)) != alloc.total_blocks:
        findings.append(Finding(
            "K004",
            f"free ({len(free_set)}) + allocated ({len(refcounts)}) "
            f"blocks do not partition the pool of {alloc.total_blocks}",
            subject=subject,
        ))
    for block in sorted(set(refcounts) | set(refs)):
        expected = refs.get(block, 0)
        actual = refcounts.get(block, 0)
        if expected != actual:
            findings.append(Finding(
                "K004",
                f"block {block} has refcount {actual} but "
                f"{expected} block-table reference(s)",
                subject=subject, location=block,
            ))
    return findings


# ---- offload rules -----------------------------------------------------------------


def lint_offload_plan(
    plan: OffloadPlan,
    gpu: Union[GPUSpec, str] = "RTX4090",
    step_deadline_s: Optional[float] = None,
) -> List[Finding]:
    """O001-O004 over an offload placement.

    ``step_deadline_s`` enables the O002 streaming proof: the per-step
    host->GPU traffic must cross the link within the decode-step
    deadline, or transfer (not compute) bounds every step.
    """
    if isinstance(gpu, str):
        gpu = get_gpu(gpu)
    findings = []
    model = get_model(plan.model)
    subject = f"offload:{plan.model}/{plan.weight_format}"

    if (
        plan.resident_layers < 0
        or plan.streamed_layers < 0
        or plan.total_layers != model.num_layers
    ):
        findings.append(Finding(
            "O001",
            f"split {plan.resident_layers} resident + "
            f"{plan.streamed_layers} streamed does not cover "
            f"{model.num_layers} layers",
            subject=subject,
        ))

    try:
        expected = layer_bytes(model, plan.weight_format, plan.sparsity)
    except (KeyError, ValueError) as exc:
        findings.append(Finding(
            "O003",
            f"cannot reproduce per-layer bytes: {exc}",
            subject=subject,
        ))
    else:
        if not math.isclose(
            plan.layer_bytes, expected, rel_tol=1e-9, abs_tol=1.0
        ):
            findings.append(Finding(
                "O003",
                f"plan claims {plan.layer_bytes:.0f} B/layer; the "
                f"analytic storage equation gives {expected:.0f} B at "
                f"sparsity {plan.sparsity:.0%}",
                subject=subject,
            ))

    embeddings = 2.0 * model.vocab_size * model.hidden_size
    resident_bytes = max(0, plan.resident_layers) * plan.layer_bytes
    total = (
        resident_bytes
        + plan.kv_reserved_bytes
        + embeddings
        + RUNTIME_OVERHEAD_BYTES
    )
    if total > gpu.dram_capacity_bytes:
        findings.append(Finding(
            "O004",
            f"{plan.resident_layers} resident layers + KV + embeddings "
            f"+ overhead = {_gb(total)} exceeds {gpu.name}'s "
            f"{_gb(gpu.dram_capacity_bytes)}",
            subject=subject,
        ))

    if step_deadline_s is not None and plan.streamed_layers > 0:
        transfer = plan.streamed_bytes_per_step / (gpu.interconnect_gbs * 1e9)
        if transfer > step_deadline_s:
            findings.append(Finding(
                "O002",
                f"streaming {_gb(plan.streamed_bytes_per_step)}/step "
                f"takes {transfer:.3f} s over {gpu.interconnect_gbs} "
                f"GB/s, past the {step_deadline_s:.3f} s deadline",
                subject=subject,
            ))
    return findings


# ---- disaggregation rules ----------------------------------------------------------


def lint_disaggregated(
    cfg: DisaggregatedConfig,
    migration_budget_s: Optional[float] = DEFAULT_MIGRATION_BUDGET_S,
) -> List[Finding]:
    """D001-D004 over a two-pool prefill/decode deployment."""
    findings = []
    model = get_model(cfg.model)
    gpu = get_gpu(cfg.gpu)
    subject = (
        f"disagg:{cfg.model}/{cfg.prefill_framework}"
        f"+{cfg.decode_framework}"
    )

    pools = (
        ("D001", "prefill", cfg.prefill_framework, cfg.prefill_gpus,
         cfg.prompt_len),
        ("D002", "decode", cfg.decode_framework, cfg.decode_gpus,
         cfg.prompt_len + cfg.output_len),
    )
    for rule_id, phase, fw_name, gpus, context in pools:
        framework = get_framework(fw_name)
        sparsity = cfg.sparsity if framework.supports_sparsity else 0.0
        memory = estimate_memory(
            model, framework.weight_format, sparsity,
            batch_size=cfg.batch_size, context_len=context,
            tensor_parallel=gpus,
        )
        if not memory.fits(gpu):
            findings.append(Finding(
                rule_id,
                f"{phase} pool ({gpus}x{gpu.name}, {fw_name}) needs "
                f"{_gb(memory.total)}/GPU for {_gb(gpu.dram_capacity_bytes)}",
                subject=subject,
            ))

    if migration_budget_s is not None:
        migration = kv_migration_seconds(cfg)
        if migration > migration_budget_s:
            findings.append(Finding(
                "D003",
                f"migrating batch {cfg.batch_size} x {cfg.prompt_len} "
                f"tokens of KV takes {migration:.2f} s over "
                f"{gpu.interconnect_gbs} GB/s links "
                f"(budget {migration_budget_s:.2f} s)",
                subject=subject,
            ))

    if cfg.sparsity > 0 and not (
        get_framework(cfg.prefill_framework).supports_sparsity
        or get_framework(cfg.decode_framework).supports_sparsity
    ):
        findings.append(Finding(
            "D004",
            f"sparsity {cfg.sparsity} configured but both pools run "
            "dense frameworks",
            subject=subject,
        ))
    return findings


# ---- builtin sweep -----------------------------------------------------------------

_SWEEP_GPUS = ("RTX4090", "A6000")
_SWEEP_GPU_COUNTS = (1, 2, 4, 8)
_SWEEP_BATCH = 8
_SWEEP_PROMPT = 64
_SWEEP_OUTPUT = 256
#: Paper sparsity for sparse frameworks (Section 5.1: Wanda at 60%).
_SWEEP_SPARSITY = 0.6

_OFFLOAD_MODELS = ("opt-13b", "opt-30b", "opt-66b", "llama2-7b")
_DISAGG_MODELS = ("opt-13b", "llama2-13b")
_PLANNER_CASES = (
    ("opt-13b", "spinfer", _SWEEP_SPARSITY),
    ("opt-13b", "fastertransformer", 0.0),
    ("llama2-7b", "flash-llm", _SWEEP_SPARSITY),
)


def _has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == Severity.ERROR for f in findings)


def builtin_deployment_specs() -> Iterator[DeploymentSpec]:
    """Yield the smallest feasible deployment of every builtin
    (model, GPU, framework) pairing at the paper's operating point.

    Mirrors what the figures deploy: each model hosted on as few GPUs
    as the memory model allows.  Pairings infeasible at <= 8 GPUs
    (e.g. dense OPT-175B on RTX 4090s) are skipped — there is nothing
    to ship there.
    """
    for model_name in sorted(MODELS):
        for gpu_name in _SWEEP_GPUS:
            for fw_name in sorted(FRAMEWORKS):
                framework = get_framework(fw_name)
                sparsity = (
                    _SWEEP_SPARSITY if framework.supports_sparsity else 0.0
                )
                for num_gpus in _SWEEP_GPU_COUNTS:
                    spec = DeploymentSpec(
                        model=model_name,
                        framework=fw_name,
                        gpu=gpu_name,
                        num_gpus=num_gpus,
                        batch_size=_SWEEP_BATCH,
                        prompt_len=_SWEEP_PROMPT,
                        output_len=_SWEEP_OUTPUT,
                        sparsity=sparsity,
                    )
                    if _has_errors(lint_deployment(spec)):
                        continue  # needs more GPUs
                    yield spec
                    break


def _min_pool_gpus(
    model: ModelConfig,
    fw_name: str,
    gpu: GPUSpec,
    batch_size: int,
    context_len: int,
    sparsity: float,
) -> Optional[int]:
    """Smallest sweep GPU count whose pool holds the model, or None."""
    framework = get_framework(fw_name)
    eff = sparsity if framework.supports_sparsity else 0.0
    for gpus in _SWEEP_GPU_COUNTS:
        memory = estimate_memory(
            model, framework.weight_format, eff,
            batch_size=batch_size, context_len=context_len,
            tensor_parallel=gpus,
        )
        if memory.fits(gpu):
            return gpus
    return None


def _builtin_disagg_configs() -> Iterator[DisaggregatedConfig]:
    """Feasible two-pool deployments over the disagg sweep models."""
    batch, prompt, output = 16, 512, 128
    for model_name in _DISAGG_MODELS:
        model = get_model(model_name)
        gpu = get_gpu("RTX4090")
        for prefill_fw, decode_fw in (
            ("fastertransformer", "spinfer"),  # the paper's hybrid
            ("spinfer", "spinfer"),
        ):
            prefill_gpus = _min_pool_gpus(
                model, prefill_fw, gpu, batch, prompt, _SWEEP_SPARSITY
            )
            decode_gpus = _min_pool_gpus(
                model, decode_fw, gpu, batch, prompt + output,
                _SWEEP_SPARSITY,
            )
            if prefill_gpus is None or decode_gpus is None:
                continue
            yield DisaggregatedConfig(
                model=model_name,
                prefill_framework=prefill_fw,
                decode_framework=decode_fw,
                gpu="RTX4090",
                prefill_gpus=prefill_gpus,
                decode_gpus=decode_gpus,
                batch_size=batch,
                prompt_len=prompt,
                output_len=output,
                sparsity=_SWEEP_SPARSITY,
            )


def _exercised_allocator() -> KVBlockAllocator:
    """An allocator driven through allocate/fork/append/COW/free — the
    sweep proves the bookkeeping invariants hold after real traffic."""
    alloc = KVBlockAllocator(total_blocks=64, block_size=16)
    alloc.allocate(0, tokens=40)
    alloc.allocate(1, tokens=16)
    alloc.fork(1, 2)  # shared prefix
    for _ in range(20):  # forces COW then fresh blocks on the child
        alloc.append_token(2)
    for _ in range(3):  # parent writes its (formerly shared) tail too
        alloc.append_token(1)
    alloc.allocate(3, tokens=5)
    alloc.free(0)
    return alloc


def _cross_check_planner(report: Report) -> None:
    """Translation-validate planner output against the checker."""
    for model_name, fw_name, sparsity in _PLANNER_CASES:
        gpus = min_gpus(
            model_name, fw_name, gpu="RTX4090", batch_size=_SWEEP_BATCH,
            prompt_len=_SWEEP_PROMPT, output_len=_SWEEP_OUTPUT,
            sparsity=sparsity,
        )
        if gpus is None:
            continue
        template = DeploymentSpec(
            model=model_name, framework=fw_name, gpu="RTX4090",
            num_gpus=gpus, batch_size=_SWEEP_BATCH,
            prompt_len=_SWEEP_PROMPT, output_len=_SWEEP_OUTPUT,
            sparsity=sparsity,
        )
        plan = best_batch(
            model_name, fw_name, gpu="RTX4090", num_gpus=gpus,
            batches=(1, 4, _SWEEP_BATCH), prompt_len=_SWEEP_PROMPT,
            output_len=_SWEEP_OUTPUT, sparsity=sparsity,
        )
        if plan is not None:
            report.extend(lint_deployment_plan(plan, template))
            report.checked += 1


def check_all_builtin_deployments() -> Report:
    """Statically verify every deployment artifact the repo ships.

    Sweeps the builtin model x GPU x framework grid (smallest feasible
    GPU count each), the KV plan derived from every feasible spec, the
    builtin offload placements, the feasible disaggregated hybrids, an
    exercised KV allocator, and the planner's own
    ``best_batch``/``min_gpus`` output.
    """
    report = Report()
    report.add_family("M", "T", "K", "O", "D")
    for spec in builtin_deployment_specs():
        report.extend(lint_deployment(spec))
        report.checked += 1
        plan = kv_plan_for_spec(spec)
        report.extend(lint_kv_plan(
            plan,
            bytes_per_token=spec_kv_bytes_per_token(spec),
            budget_bytes=spec_kv_budget_bytes(spec),
        ))
        report.checked += 1

    for model_name in _OFFLOAD_MODELS:
        for weight_format, sparsity in (
            ("dense", 0.0), ("tca-bme", _SWEEP_SPARSITY)
        ):
            try:
                plan = plan_offload(model_name, weight_format, sparsity)
            except ValueError:
                continue  # infeasible even fully offloaded — nothing shipped
            report.extend(lint_offload_plan(plan))
            report.checked += 1

    for cfg in _builtin_disagg_configs():
        report.extend(lint_disaggregated(cfg))
        report.checked += 1

    report.extend(lint_kv_allocator(_exercised_allocator()))
    report.checked += 1

    _cross_check_planner(report)
    return report
