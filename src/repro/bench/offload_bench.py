"""Extension experiment: TCA-BME under weight offloading (§2.3 claim)."""

from __future__ import annotations

from typing import List

from ..llm.inference import InferenceConfig, InferenceEngine
from ..llm.offloading import offloaded_decode_step_seconds, plan_offload
from .harness import Experiment

__all__ = ["ext_offloading"]


def ext_offloading() -> Experiment:
    """Offloaded decode of a model too big for one GPU, dense vs encoded."""
    model, gpu = "opt-66b", "RTX4090"
    rows: List[List[object]] = []
    step_times = {}
    for fmt, framework, sparsity in (
        ("dense", "fastertransformer", 0.0),
        ("tca-bme", "spinfer", 0.6),
    ):
        plan = plan_offload(model, fmt, sparsity, gpu, batch_size=8,
                            context_len=512)
        engine = InferenceEngine(
            InferenceConfig(
                model=model, framework=framework, gpu=gpu, num_gpus=1,
                batch_size=8, prompt_len=64, output_len=64, sparsity=sparsity,
            )
        )
        compute = engine.decode_step_seconds(batch=8, context=320).total_s
        step = offloaded_decode_step_seconds(plan, compute, gpu_name=gpu)
        step_times[fmt] = step
        rows.append(
            [
                fmt,
                plan.resident_layers,
                plan.streamed_layers,
                plan.streamed_bytes_per_step / 1e9,
                compute,
                step,
                8.0 / step,
            ]
        )
    return Experiment(
        exp_id="ext_offload",
        title=f"Offloaded decode: {model} on one {gpu}",
        headers=["weights", "resident_layers", "streamed_layers",
                 "pcie_GB_per_step", "compute_s", "step_s", "tokens_per_s"],
        rows=rows,
        metrics={
            "speedup_tca_bme": step_times["dense"] / step_times["tca-bme"],
        },
        notes=(
            "Extension quantifying §2.3: offloaded decode is PCIe-bound, so "
            "TCA-BME's compression multiplies throughput — it both pins "
            "more layers on-GPU and shrinks every streamed byte."
        ),
    )
