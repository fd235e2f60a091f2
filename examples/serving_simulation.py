#!/usr/bin/env python3
"""Simulate deploying a sparse OPT model across inference frameworks.

Answers the deployment questions the paper's Figs. 13-15 answer on real
hardware: what throughput does each framework reach, how much memory
does it need, which configurations OOM, and how many GPUs do you
actually need once TCA-BME halves the weight footprint?

Run:  python examples/serving_simulation.py
"""

from repro.bench.harness import format_table
from repro.llm.inference import InferenceConfig, simulate_inference

MODEL = "opt-13b"
GPU = "RTX4090"
FRAMEWORKS = (
    ("spinfer", 0.6),
    ("flash-llm", 0.6),
    ("fastertransformer", 0.0),
    ("deepspeed", 0.0),
)


def throughput_table() -> None:
    print(f"{MODEL} on 2x {GPU}: generation throughput (prompt 64, output 256)")
    rows = []
    for batch in (8, 16, 32):
        for fw, sparsity in FRAMEWORKS:
            r = simulate_inference(InferenceConfig(
                model=MODEL, framework=fw, gpu=GPU, num_gpus=2,
                batch_size=batch, prompt_len=64, output_len=256,
                sparsity=sparsity,
            ))
            rows.append([
                batch, fw,
                "OOM" if r.oom else f"{r.tokens_per_second:.0f}",
                f"{r.memory_gb:.1f}",
                f"{r.decode.linear_s:.2f}",
                f"{r.decode.attention_s:.2f}",
                f"{r.decode.comm_s:.2f}",
            ])
    print(format_table(
        ["batch", "framework", "tokens/s", "mem GB/GPU", "SpMM/GEMM s", "MHA s", "COMM s"],
        rows,
    ))
    print()


def oom_walls() -> None:
    """How far can each framework push the output length on ONE GPU?"""
    print(f"{MODEL} on ONE {GPU} (batch 8): longest feasible output")
    rows = []
    for fw, sparsity in FRAMEWORKS:
        longest = None
        for out_len in (64, 128, 256, 512, 1024, 2048):
            r = simulate_inference(InferenceConfig(
                model=MODEL, framework=fw, gpu=GPU, num_gpus=1,
                batch_size=8, prompt_len=64, output_len=out_len,
                sparsity=sparsity,
            ))
            if r.oom:
                break
            longest = out_len
        rows.append([fw, longest if longest else "does not fit at all"])
    print(format_table(["framework", "max output tokens"], rows))
    print()
    print(
        "SpInfer's TCA-BME weights fit OPT-13B on a single 24 GB card with\n"
        "room for long generations; dense frameworks need a second GPU."
    )


def gpu_count_planning() -> None:
    """Minimum GPUs per framework for OPT-30B at batch 16, output 256."""
    print("\nopt-30b: minimum GPU count (batch 16, output 256)")
    rows = []
    for fw, sparsity in FRAMEWORKS:
        needed = None
        for gpus in (1, 2, 4, 8):
            r = simulate_inference(InferenceConfig(
                model="opt-30b", framework=fw, gpu=GPU, num_gpus=gpus,
                batch_size=16, prompt_len=64, output_len=256,
                sparsity=sparsity,
            ))
            if not r.oom:
                needed = gpus
                rows.append([fw, gpus, f"{r.tokens_per_second:.0f}"])
                break
        if needed is None:
            rows.append([fw, ">8", "-"])
    print(format_table(["framework", "GPUs needed", "tokens/s"], rows))


def main() -> None:
    throughput_table()
    oom_walls()
    gpu_count_planning()


if __name__ == "__main__":
    main()
