"""Serving-orthogonality experiment (paper Section 2.3's claim).

The paper says SpInfer "is orthogonal to these serving systems and can
complement and improve their performance".  This experiment serves one
Poisson request trace under Orca-style continuous batching on a single
RTX4090 and compares frameworks on throughput, latency and KV headroom.
"""

from __future__ import annotations

import copy
from typing import List

from ..llm.serving import (
    ServingConfig,
    ServingSimulator,
    compare_frameworks,
    mixed_workload,
    poisson_workload,
)
from .harness import Experiment

__all__ = ["ext_serving", "ext_serving_runtime"]


def ext_serving() -> Experiment:
    """Continuous-batching comparison on one RTX4090."""
    model = "opt-13b"
    workload = poisson_workload(
        num_requests=32,
        arrival_rate=1.5,
        prompt_len=64,
        output_len=128,
        seed=0,
    )
    results = compare_frameworks(workload, model=model, num_gpus=1, max_batch=32)
    rows: List[List[object]] = []
    for fw, stats in sorted(results.items()):
        rows.append(
            [
                fw,
                stats.goodput_tokens_per_s,
                stats.mean_latency_s,
                stats.latency_percentile(95),
                stats.peak_batch,
                stats.kv_budget_bytes / 1e9,
            ]
        )
    metrics = {}
    if "spinfer" in results and "flash-llm" in results:
        sp, fl = results["spinfer"], results["flash-llm"]
        metrics["throughput_gain_vs_flash_llm"] = (
            sp.goodput_tokens_per_s / fl.goodput_tokens_per_s
        )
        metrics["latency_gain_vs_flash_llm"] = (
            fl.mean_latency_s / sp.mean_latency_s
        )
        metrics["kv_headroom_vs_flash_llm"] = (
            sp.kv_budget_bytes / fl.kv_budget_bytes
        )
    metrics["dense_frameworks_fit"] = float(
        "fastertransformer" in results or "deepspeed" in results
    )
    return Experiment(
        exp_id="ext_serving",
        title=f"Continuous batching, {model} on 1x RTX4090",
        headers=["framework", "tokens_per_s", "mean_lat_s", "p95_lat_s",
                 "peak_batch", "kv_budget_gb"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Extension experiment (no paper counterpart): SpInfer's weight "
            "compression both speeds decode steps and frees KV headroom, "
            "so it helps a continuous-batching server on both axes; dense "
            "frameworks cannot even host OPT-13B on one 24 GB GPU."
        ),
    )


def ext_serving_runtime() -> Experiment:
    """Scheduler shoot-out on the event runtime at an equal, tight KV budget.

    Serves one bursty mixed-length trace three ways on the same pool:
    the legacy discipline (blocking prefill, worst-case reservation),
    chunked prefill alone, and chunked prefill + preemption-by-recompute
    (on-demand admission).  The KV pool is capped well below the DRAM
    budget so admission — not compute — is the bottleneck; that is the
    regime where reservation-based admission stalls the queue and the
    vLLM-style discipline wins tail latency.

    Also translation-validates the runtime: on an uncapped FCFS /
    blocking / no-preemption configuration it must reproduce the legacy
    hand-rolled loop's makespan within 1 %.
    """
    model, framework, kv_cap_tokens = "opt-13b", "spinfer", 4096
    workload = mixed_workload(
        48,
        arrival_rate=6.0,
        output_lens=(64, 256, 768),
        prompt_len=128,
        seed=7,
    )
    base = dict(
        model=model, framework=framework, max_batch=16,
        kv_cap_tokens=kv_cap_tokens,
    )
    schedulers = (
        ("blocking+reserve", ServingConfig(**base)),
        ("chunked", ServingConfig(
            **base, chunked_prefill=True, chunk_tokens=256,
        )),
        ("chunked+preempt", ServingConfig(
            **base, chunked_prefill=True, chunk_tokens=256, preemption=True,
        )),
    )
    results = {}
    rows: List[List[object]] = []
    for name, cfg in schedulers:
        stats = ServingSimulator(cfg).run(copy.deepcopy(workload))
        results[name] = stats
        rows.append([
            name,
            stats.goodput_tokens_per_s,
            stats.mean_latency_s,
            stats.latency_percentile(99),
            stats.ttft_percentile(99),
            stats.preemptions,
            len(stats.completed),
        ])

    # Translation validation: event runtime vs the legacy loop, uncapped.
    legacy_cfg = ServingConfig(model=model, framework=framework, max_batch=16)
    runtime_stats = ServingSimulator(legacy_cfg).run(copy.deepcopy(workload))
    legacy_stats = ServingSimulator(legacy_cfg).run_legacy(
        copy.deepcopy(workload)
    )
    drift = abs(
        runtime_stats.makespan_s - legacy_stats.makespan_s
    ) / legacy_stats.makespan_s

    old, new = results["blocking+reserve"], results["chunked+preempt"]
    metrics = {
        "p99_latency_gain": (
            old.latency_percentile(99) / new.latency_percentile(99)
        ),
        "p99_ttft_gain": old.ttft_percentile(99) / new.ttft_percentile(99),
        "mean_latency_gain": old.mean_latency_s / new.mean_latency_s,
        "preemptions": float(new.preemptions),
        "legacy_makespan_drift": drift,
    }
    return Experiment(
        exp_id="ext_serving_runtime",
        title=(
            f"Scheduler comparison, {model}/{framework} at a "
            f"{kv_cap_tokens}-token KV cap"
        ),
        headers=["scheduler", "tokens_per_s", "mean_lat_s", "p99_lat_s",
                 "p99_ttft_s", "preemptions", "completed"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Extension experiment (no paper counterpart): with KV memory "
            "the binding constraint, worst-case reservation delays "
            "admission and blocking prefill stalls running decodes; "
            "chunked prefill + preemption-by-recompute admits on actual "
            "block demand and recovers the tail. The drift metric "
            "translation-validates the event runtime against the legacy "
            "closed loop (must stay under 1%)."
        ),
    )
