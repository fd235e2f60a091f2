"""Integrity experiment: SDC detection rate vs verification cost.

Extension experiment (no paper counterpart, but the flip side of the
paper's efficiency claim): SpInfer targets consumer GPUs, and consumer
GPUs ship without ECC — at fleet scale a silent bit flip lands in a
weight tile, a KV block, or an accumulator and the server streams
tokens computed from garbage.  This experiment replays the builtin SDC
fault plans under identical seeds across three integrity arms
(verify-off / verify-on / quarantine) and tabulates what the checksums
catch and what they cost.
"""

from __future__ import annotations

from typing import List

from ..integrity.harness import IntegrityConfig, integrity_report
from .harness import Experiment

__all__ = ["ext_integrity"]


def ext_integrity() -> Experiment:
    """Detection-rate/goodput shoot-out across the SDC fault plans."""
    cfg = IntegrityConfig()
    report = integrity_report(cfg)
    rows: List[List[object]] = []
    for arm in ("verify-off", "verify-on", "quarantine"):
        for plan in cfg.plans:
            m = report["arms"][arm]["plans"][plan]
            rows.append([
                plan,
                arm,
                m["sdc_injected"],
                m["sdc_detected"],
                m["corrupted_completed"],
                m["quarantines"],
                m["verification_s"],
                m["goodput_tokens_per_s"],
            ])
    head = report["headline"]
    metrics = {
        "detection_rate_verify_on": float(head["detection_rate_verify_on"]),
        "false_negatives_verify_on": float(
            head["false_negatives_verify_on"]
        ),
        "served_corrupted_verify_off": float(
            head["served_corrupted_verify_off"]
        ),
        "goodput_cost_frac": float(head["goodput_cost_frac"]),
    }
    return Experiment(
        exp_id="ext_integrity",
        title="SDC detection rate vs verification cost (identical seeds)",
        headers=["plan", "arm", "injected", "detected", "served_bad",
                 "quarantined", "verify_s", "goodput_tok_s"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Extension experiment (no paper counterpart): each arm replays "
            "the same workload under the same pinned SDC plan, so rows "
            "differ only by integrity policy.  verify-off serves every "
            "corrupted payload it receives; verify-on catches all of them "
            "(ABFT checksum rows on SpMM outputs, CRC tile digests on "
            "weights, content tags on migrated KV blocks) and reruns the "
            "poisoned requests at a single-digit-percent goodput cost; "
            "quarantine additionally routes around a replica after "
            "repeated detections, cutting injections themselves."
        ),
    )
