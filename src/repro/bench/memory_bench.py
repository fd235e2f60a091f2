"""Fig. 13/14 memory panel: per-framework footprint vs output length."""

from __future__ import annotations

from typing import List

from ..llm.inference import InferenceConfig, simulate_inference
from .harness import Experiment

__all__ = ["ext_memory_walls"]


def ext_memory_walls() -> Experiment:
    """Memory growth with output length and each framework's OOM wall."""
    model, gpu, num_gpus, batch_size = "opt-13b", "RTX4090", 1, 8
    frameworks = (
        ("spinfer", 0.6),
        ("flash-llm", 0.6),
        ("fastertransformer", 0.0),
        ("deepspeed", 0.0),
    )
    output_lens = (64, 128, 256, 512, 1024, 2048)
    rows: List[List[object]] = []
    walls = {}
    for fw, sparsity in frameworks:
        longest = 0
        for out_len in output_lens:
            r = simulate_inference(InferenceConfig(
                model=model, framework=fw, gpu=gpu, num_gpus=num_gpus,
                batch_size=batch_size, prompt_len=64, output_len=out_len,
                sparsity=sparsity,
            ))
            rows.append([fw, out_len, r.memory_gb, "OOM" if r.oom else "ok"])
            if not r.oom:
                longest = out_len
        walls[fw] = longest
    return Experiment(
        exp_id="ext_memory",
        title=f"Memory walls: {model}, {num_gpus}x {gpu}, batch {batch_size}",
        headers=["framework", "output_len", "mem_gb_per_gpu", "status"],
        rows=rows,
        metrics={
            "spinfer_max_output": float(walls["spinfer"]),
            "flash_llm_max_output": float(walls["flash-llm"]),
            "dense_max_output": float(walls["fastertransformer"]),
            "wall_extension_vs_flash_llm": (
                walls["spinfer"] / walls["flash-llm"]
                if walls["flash-llm"]
                else float("inf")
            ),
        },
        notes=(
            "Fig. 13's memory dimension: weight compression converts "
            "directly into KV-cache headroom, so SpInfer's OOM wall sits "
            "at 4x (or more) the output length of Flash-LLM's; dense "
            "frameworks do not fit this GPU count at all."
        ),
    )
