"""Multi-turn serving experiment: session prefix reuse vs re-prefill.

Extension experiment (no paper counterpart, but the natural next step
after the serving and chaos benches): chat workloads re-send their
whole history every turn, so decode-phase wins compound with *prefill
avoided* — the session prefix cache forks the previous turn's KV
copy-on-write instead of re-prefilling it.  This experiment runs the
IDENTICAL pinned session workload twice per scenario — prefix reuse on
vs off — and tabulates prefill tokens actually charged, TTFT
percentiles and makespan.  Everything else (seeds, policies, routing,
fault plan) is held fixed, so the two arms differ only by the cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..server import ServerConfig, run_server
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
        per_arm = {}
        for reuse in (True, False):
            server, stats = run_server(replace(cfg, reuse_prefix=reuse))
            ttfts = sorted(
                r.ttft_s for r in stats.completed if r.ttft_s is not None
            )
            p99 = ttfts[max(0, -(-99 * len(ttfts) // 100) - 1)] if ttfts else 0.0
            per_arm[reuse] = (server, stats, p99)
            rows.append([
                label,
                "reuse" if reuse else "no-reuse",
                len(stats.completed),
                stats.prefill_tokens,
                stats.cached_prefill_tokens,
                server.sessions.hits,
                p99,
                stats.makespan_s,
            ])
        _, on_stats, on_p99 = per_arm[True]
        _, off_stats, off_p99 = per_arm[False]
        if off_stats.prefill_tokens:
            metrics[f"{label}_prefill_tokens_saved_frac"] = (
                1.0 - on_stats.prefill_tokens / off_stats.prefill_tokens
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
