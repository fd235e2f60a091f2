"""One-shot reproduction report.

``generate_report()`` runs every registered experiment and renders a
single markdown document — headline paper-vs-measured table first, full
experiment tables after.  ``repro report`` writes it to
``results/REPORT.md``, the one committed record of the evaluation;
the tests compare that file with a fresh rendering section by section.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, Optional

from ..gpu.specs import A6000
from .ablation_bench import (
    abl_grouptile_size,
    abl_mma_shape,
    abl_quantization,
    abl_split_k,
)
from .accuracy_bench import ext_accuracy
from .chaos_bench import ext_chaos
from .disagg_bench import ext_disaggregation
from .e2e_bench import (
    fig02_breakdown,
    fig13_e2e_rtx4090,
    fig14_e2e_a6000,
    fig15_time_breakdown,
)
from .fleet_bench import ext_fleet
from .format_bench import fig03_compression, fig04_roofline
from .harness import Experiment
from .integrity_bench import ext_integrity
from .kernel_bench import (
    fig01_motivation,
    fig10_kernel_sweep,
    fig11_smat_comparison,
    fig12_micro_metrics,
    fig16_prefill,
    tab01_ablation,
)
from .memory_bench import ext_memory_walls
from .offload_bench import ext_offloading
from .pipeline_bench import fig09_pipeline_schedule
from .server_bench import ext_server
from .serving_bench import ext_serving, ext_serving_runtime

__all__ = [
    "EXPERIMENTS",
    "PAPER_ANCHORS",
    "generate_report",
    "render_report",
    "write_report",
]

#: Experiment registry: id -> zero-argument callable.
EXPERIMENTS: Dict[str, Callable] = {
    "fig01": fig01_motivation,
    "fig02": fig02_breakdown,
    "fig03": fig03_compression,
    "fig04": fig04_roofline,
    "fig09": fig09_pipeline_schedule,
    "fig10": fig10_kernel_sweep,
    "fig10_a6000": partial(fig10_kernel_sweep, A6000),
    "fig11": fig11_smat_comparison,
    "fig12": fig12_micro_metrics,
    "fig13": fig13_e2e_rtx4090,
    "fig14": fig14_e2e_a6000,
    "fig15": fig15_time_breakdown,
    "fig16": fig16_prefill,
    "tab01": tab01_ablation,
    "abl_grouptile": abl_grouptile_size,
    "abl_splitk": abl_split_k,
    "abl_mma_shape": abl_mma_shape,
    "abl_quant": abl_quantization,
    "ext_chaos": ext_chaos,
    "ext_integrity": ext_integrity,
    "ext_server": ext_server,
    "ext_serving": ext_serving,
    "ext_serving_runtime": ext_serving_runtime,
    "ext_disagg": ext_disaggregation,
    "ext_fleet": ext_fleet,
    "ext_accuracy": ext_accuracy,
    "ext_offload": ext_offloading,
    "ext_memory": ext_memory_walls,
}


#: Headline paper numbers each experiment's key metric is compared to:
#: exp_id -> (metric, paper value, description).
PAPER_ANCHORS = {
    "fig01": (
        "crossover_sparsity_spinfer", 0.50, "SpInfer beats cuBLAS from sparsity <="
    ),
    "fig02": ("weight_memory_share", 0.876, "weights' share of inference memory"),
    "fig03": ("tca_bme_cr_at_50", 1.78, "TCA-BME compression ratio at 50%"),
    "fig04": ("all_decode_points_memory_bound", 1.0, "decode shapes memory-bound"),
    "fig10": ("avg_speedup_spinfer", 1.79, "SpInfer avg speedup vs cuBLAS (RTX4090)"),
    "fig10_a6000": (
        "avg_speedup_spinfer", 1.51, "SpInfer avg speedup vs cuBLAS (A6000)"
    ),
    "fig11": ("crossover_sparsity", 0.997, "SMaT overtakes beyond sparsity"),
    "fig12": ("spinfer_fewest_registers", 1.0, "SpInfer uses fewest registers"),
    "fig13": ("avg_speedup_vs_flash_llm", 1.35, "e2e speedup vs Flash-LLM (RTX4090)"),
    "fig14": ("avg_speedup_vs_flash_llm", 1.29, "e2e speedup vs Flash-LLM (A6000)"),
    "fig15": ("spinfer_1gpu_comm_s", 0.0, "1-GPU SpInfer communication time"),
    "fig16": ("max_slowdown_large_n", 1.118, "max prefill slowdown vs cuBLAS"),
    "tab01": ("slowdown_no_smbd", 1.1003, "ablation: duration without SMBD"),
}


def generate_report(
    experiments: Optional[Dict[str, Callable[[], Experiment]]] = None,
) -> str:
    """Run every experiment and render the markdown report."""
    if experiments is None:
        experiments = EXPERIMENTS
    return render_report(
        {exp_id: experiments[exp_id]() for exp_id in sorted(experiments)}
    )


def render_report(results: Dict[str, Experiment]) -> str:
    """Render finished experiments (registry id -> result) as the report."""
    lines: List[str] = [
        "# SpInfer reproduction report",
        "",
        "Generated by `repro report`; every number below is recomputed "
        "from the library (see EXPERIMENTS.md for methodology).",
        "",
        "## Headline comparison",
        "",
        "| experiment | quantity | paper | measured |",
        "|---|---|---|---|",
    ]
    # PAPER_ANCHORS is a module literal; its curated order is the
    # report's presentation order.  Anchors of experiments outside this
    # run are skipped; a metric the experiment lacks raises a KeyError
    # naming the metrics it has, so a headline row cannot silently vanish.
    # repro: allow S003 audited: module-literal insertion order
    for exp_id, (metric, paper_value, label) in PAPER_ANCHORS.items():
        exp = results.get(exp_id)
        if exp is None:
            continue
        lines.append(
            f"| {exp_id} | {label} | {paper_value:g} | "
            f"{exp.metric(metric):.3g} |"
        )
    lines.append("")

    for exp_id in sorted(results):
        exp = results[exp_id]
        lines.append(f"## {exp_id}: {exp.title}")
        lines.append("")
        lines.append("```")
        lines.append(exp.render().rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines) + "\n"


def write_report(path: Optional[str] = None) -> str:
    """Generate and write the report (default ``results/REPORT.md`` under
    the working directory); returns the path written."""
    if path is None:
        path = os.path.join("results", "REPORT.md")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    content = generate_report()
    with open(path, "w") as fh:
        fh.write(content)
    return path
