"""Fault-tolerance experiment: recovery policies under injected faults.

Extension experiment (no paper counterpart, but directly downstream of
the paper's serving claim): if SpInfer's KV headroom makes a
continuous-batching server viable on consumer GPUs, then the next
question a deployment asks is what that server does when a consumer GPU
*fails*.  This experiment replays the same Poisson trace under each
builtin fault plan once per recovery policy and tabulates the SLO
metrics of the chaos harness's report (``repro chaos --json``).
"""

from __future__ import annotations

from typing import List

from ..llm.chaos import ChaosConfig, chaos_report
from .harness import Experiment

__all__ = ["ext_chaos"]


def ext_chaos() -> Experiment:
    """Recovery-policy shoot-out across the builtin fault plans."""
    rows: List[List[object]] = []
    metrics = {}
    for plan in ("gpu-crash", "stragglers", "chaos-mix", "flaky-link"):
        results = chaos_report(ChaosConfig(plan=plan))["policies"]
        for name, m in sorted(results.items()):
            rows.append([
                plan,
                name,
                m["completed"],
                m["failed"] + m["shed"] + m["timed_out"] + m["cancelled"],
                m["retries"],
                m["wasted_recompute_tokens"],
                m["goodput_tokens_per_s"],
                m["availability"],
            ])
        if plan == "gpu-crash":
            ff = results["fail-fast"]
            rr = results["reroute"]
            metrics["reroute_goodput_gain_vs_fail_fast"] = (
                rr["goodput_tokens_per_s"] / ff["goodput_tokens_per_s"]
            )
            metrics["reroute_availability"] = rr["availability"]
            metrics["fail_fast_availability"] = ff["availability"]
        if plan == "flaky-link":
            metrics["flaky_link_retry_completed"] = float(
                results["retry"]["completed"]
            )
            metrics["flaky_link_fail_fast_completed"] = float(
                results["fail-fast"]["completed"]
            )
    return Experiment(
        exp_id="ext_chaos",
        title="Recovery policies under injected faults (identical seeds)",
        headers=["plan", "policy", "done", "lost", "retries",
                 "wasted_tok", "goodput_tok_s", "avail"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Extension experiment (no paper counterpart): every cell replays "
            "the same workload under the same pinned fault plan, so the "
            "columns differ only by recovery policy.  Rerouting with "
            "recompute-from-prompt keeps availability at 1.0 through a GPU "
            "crash that costs fail-fast every resident request; migration "
            "retry turns a 100%-loss flaky link into a completed batch."
        ),
    )
