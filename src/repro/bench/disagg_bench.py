"""Extension experiment: disaggregated prefill/decode deployments."""

from __future__ import annotations

from typing import List

from ..llm.disaggregation import DEPLOYMENT_COMPARISONS, compare_deployments
from .harness import Experiment

__all__ = ["ext_disaggregation"]


def ext_disaggregation() -> Experiment:
    """Homogeneous vs hybrid pools at equal GPU budget (1 prefill + 1
    decode GPU), long-prompt workload."""
    model, prompt_len = "opt-13b", 2048
    results = compare_deployments(
        model=model, prompt_len=prompt_len, output_len=128
    )
    rows: List[List[object]] = []
    for label in DEPLOYMENT_COMPARISONS:
        r = results[label]
        rows.append(
            [
                label,
                r.prefill.total_s,
                r.kv_migration_s,
                r.decode.total_s,
                r.total_s,
                r.tokens_per_second,
            ]
        )
    hybrid = results["dense-prefill + spinfer-decode"]
    return Experiment(
        exp_id="ext_disagg",
        title=f"Disaggregated prefill/decode, {model}, prompt {prompt_len}",
        headers=["deployment", "prefill_s", "kv_migration_s", "decode_s",
                 "total_s", "tokens_per_s"],
        rows=rows,
        metrics={
            "hybrid_speedup_vs_dense": (
                results["dense/dense"].total_s / hybrid.total_s
            ),
            "hybrid_speedup_vs_spinfer": (
                results["spinfer/spinfer"].total_s / hybrid.total_s
            ),
            "kv_migration_share": hybrid.kv_migration_s / hybrid.total_s,
        },
        notes=(
            "Extension quantifying paper Section 6: dense GEMM serves the "
            "compute-bound prefill, SpInfer the memory-bound decode; the "
            "KV migration toll stays small relative to either phase."
        ),
    )
