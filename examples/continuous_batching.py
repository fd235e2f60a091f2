#!/usr/bin/env python3
"""Serve a Poisson request stream with continuous batching.

Tests the paper's orthogonality claim ("our work ... can complement and
improve [serving systems'] performance"): the same request trace is
served by each framework under Orca-style continuous batching on one
RTX4090.  SpInfer wins twice — faster decode steps AND more KV-cache
headroom (TCA-BME weights), which admits a larger running batch.

Run:  python examples/continuous_batching.py
"""

from repro.bench.harness import format_table
from repro.llm.serving import compare_frameworks, poisson_workload


def main() -> None:
    workload = poisson_workload(
        num_requests=32, arrival_rate=1.5, prompt_len=64, output_len=128, seed=0
    )
    print("workload: 32 requests, Poisson arrivals at 1.5 req/s, "
          "prompt 64, output 128")
    print("server: opt-13b on ONE RTX4090, continuous batching\n")

    results = compare_frameworks(workload, model="opt-13b", num_gpus=1,
                                 max_batch=32)
    rows = []
    for fw, stats in sorted(results.items()):
        rows.append([
            fw,
            f"{stats.goodput_tokens_per_s:.0f}",
            f"{stats.mean_latency_s:.1f}",
            f"{stats.latency_percentile(95):.1f}",
            stats.peak_batch,
            f"{stats.kv_budget_bytes / 1e9:.1f}",
        ])
    print(format_table(
        ["framework", "tokens/s", "mean lat s", "p95 lat s", "peak batch", "KV budget GB"],
        rows,
    ))
    print()
    missing = {"fastertransformer", "deepspeed"} - set(results)
    if missing:
        print(f"not shown (model does not fit 1 GPU dense): {sorted(missing)}")


if __name__ == "__main__":
    main()
