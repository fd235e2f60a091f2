"""Multi-turn serving experiment: session prefix reuse vs re-prefill.

Extension experiment (no paper counterpart, but the natural next step
after the serving and chaos benches): chat workloads re-send their
whole history every turn, so decode-phase wins compound with *prefill
avoided* — the session prefix cache forks the previous turn's KV
copy-on-write instead of re-prefilling it.  This experiment runs the
IDENTICAL pinned session workload twice per scenario — prefix reuse on
vs off — and tabulates prefill tokens actually charged, TTFT
percentiles and makespan from each run's ``repro server --json``
report.  Everything else (seeds, policies, routing, fault plan) is held
fixed, so the two arms differ only by the cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..server.streaming import ServerConfig, server_report
from .harness import Experiment

__all__ = ["ext_server"]


def ext_server() -> Experiment:
    """Prefix reuse on/off over identical multi-turn workloads."""
    base = ServerConfig()
    scenarios = [
        ("steady", base),
        ("long-history", replace(
            base, mean_new_tokens=192, turns=4, sessions=6,
        )),
        ("gpu-crash", replace(base, fault_plan="gpu-crash")),
    ]
    rows: List[List[object]] = []
    metrics = {}
    for label, cfg in scenarios:
        arms = {}
        for reuse in (True, False):
            report = server_report(replace(cfg, reuse_prefix=reuse))
            cache = report["prefix_cache"]
            p99 = report["latency"]["p99_ttft_s"]
            arms[reuse] = (cache["prefill_tokens"], p99)
            rows.append([
                label,
                "reuse" if reuse else "no-reuse",
                report["sessions"]["turns_completed"],
                cache["prefill_tokens"],
                cache["cached_prefill_tokens"],
                cache["hits"],
                p99,
                report["runtime"]["makespan_s"],
            ])
        (on_prefill, on_p99), (off_prefill, off_p99) = arms[True], arms[False]
        if off_prefill:
            metrics[f"{label}_prefill_tokens_saved_frac"] = (
                1.0 - on_prefill / off_prefill
            )
        if off_p99 > 0:
            metrics[f"{label}_p99_ttft_speedup"] = off_p99 / on_p99 if on_p99 else 0.0
    return Experiment(
        exp_id="ext_server",
        title="Session prefix reuse vs full re-prefill (identical seeds)",
        headers=["scenario", "arm", "done", "prefill_tok", "cached_tok",
                 "hits", "p99_ttft_s", "makespan_s"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Extension experiment (no paper counterpart): each scenario "
            "replays the same pinned multi-turn session workload with the "
            "prefix cache on vs off; every other knob is identical.  "
            "Reuse forks the previous turn's KV copy-on-write, so later "
            "turns charge only their new tokens — cutting both total "
            "prefill work and the p99 time-to-first-token that re-"
            "prefilling a growing history would impose.  The gpu-crash "
            "scenario shows the cache degrading safely: a crashed pool's "
            "prefixes invalidate lazily and the affected sessions fall "
            "back to full recompute without losing correctness."
        ),
    )
