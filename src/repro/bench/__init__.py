"""Experiment harness regenerating every table and figure of the paper.

One function per experiment; each returns an :class:`~repro.bench.harness.
Experiment`.  ``repro report`` renders every registered experiment into
``results/REPORT.md`` (:mod:`repro.bench.report`).  See DESIGN.md for the
experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
"""

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
from .harness import Experiment, format_table, geomean
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
from .pipeline_bench import block_pipeline_config, fig09_pipeline_schedule
from .report import generate_report, write_report
from .server_bench import ext_server
from .serving_bench import ext_serving, ext_serving_runtime
from .sweeps import export_csv, kernel_sweep

__all__ = [
    "Experiment",
    "abl_grouptile_size",
    "abl_mma_shape",
    "abl_quantization",
    "abl_split_k",
    "ext_accuracy",
    "ext_chaos",
    "ext_disaggregation",
    "ext_fleet",
    "ext_integrity",
    "ext_memory_walls",
    "ext_offloading",
    "ext_server",
    "ext_serving",
    "ext_serving_runtime",
    "fig01_motivation",
    "fig02_breakdown",
    "fig03_compression",
    "fig04_roofline",
    "fig09_pipeline_schedule",
    "block_pipeline_config",
    "fig10_kernel_sweep",
    "fig11_smat_comparison",
    "fig12_micro_metrics",
    "fig13_e2e_rtx4090",
    "fig14_e2e_a6000",
    "fig15_time_breakdown",
    "fig16_prefill",
    "format_table",
    "generate_report",
    "geomean",
    "write_report",
    "export_csv",
    "kernel_sweep",
    "tab01_ablation",
]
