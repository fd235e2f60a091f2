"""Storage/roofline experiments: Fig. 3 (compression) and Fig. 4 (roofline)."""

from __future__ import annotations

from typing import List

from ..formats.analytic import compression_ratio
from ..gpu.roofline import ci_gemm, ci_optimal, ci_spmm, roofline_point
from ..gpu.specs import RTX4090
from .harness import Experiment

__all__ = ["fig03_compression", "fig04_roofline"]

#: Formats plotted in Fig. 3, in the paper's order.
FIG03_FORMATS = ("csr", "tiled-csl", "sparta", "tca-bme", "optimal")


def fig03_compression() -> Experiment:
    """Fig. 3: compression ratio vs sparsity (M = K = 4096)."""
    m = k = 4096
    sparsities = tuple(i / 20 for i in range(2, 19))
    rows: List[List[object]] = []
    cr_at = {}
    for fmt in FIG03_FORMATS:
        for s in sparsities:
            cr = compression_ratio(fmt, m, k, s)
            rows.append([fmt, s, cr])
            cr_at[(fmt, round(s, 2))] = cr
    metrics = {
        "tca_bme_cr_at_30": cr_at[("tca-bme", 0.30)],
        "tca_bme_cr_at_50": cr_at[("tca-bme", 0.50)],
        "tca_bme_cr_at_70": cr_at[("tca-bme", 0.70)],
        "csr_cr_at_50": cr_at[("csr", 0.50)],
        "tiled_csl_cr_at_50": cr_at[("tiled-csl", 0.50)],
        "sparta_cr_at_50": cr_at[("sparta", 0.50)],
    }
    return Experiment(
        exp_id="fig03",
        title=f"Compression ratio vs sparsity (M=K={m})",
        headers=["format", "sparsity", "compression_ratio"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Paper: CSR and Tiled-CSL fall below CR=1 under 50% sparsity; "
            "SparTA sits slightly above 1 at 50%; TCA-BME stays above 1 "
            "even at 30% and tracks the optimal bound."
        ),
    )


def fig04_roofline() -> Experiment:
    """Fig. 4: roofline placement of GEMM/SpMM at varying sparsity and N."""
    gpu, m = RTX4090, 28672
    sparsities = (0.4, 0.5, 0.6, 0.7)
    ns = (8, 16, 32)
    rows: List[List[object]] = []
    all_memory_bound = True
    for n in ns:
        gemm = roofline_point("gemm", ci_gemm(m, n), gpu)
        rows.append(
            ["gemm", 0.0, n, gemm.ci, gemm.attainable_tflops, gemm.memory_bound]
        )
        all_memory_bound &= gemm.memory_bound
        for s in sparsities:
            for fmt in ("csr", "tiled-csl", "sparta", "tca-bme"):
                cr = compression_ratio(fmt, m, m, s)
                pt = roofline_point(fmt, ci_spmm(m, n, cr), gpu)
                rows.append([fmt, s, n, pt.ci, pt.attainable_tflops, pt.memory_bound])
                all_memory_bound &= pt.memory_bound
            opt = roofline_point("optimal", ci_optimal(m, n, s), gpu)
            rows.append(
                ["optimal", s, n, opt.ci, opt.attainable_tflops, opt.memory_bound]
            )
    # TCA-BME's CI gain over CSR at the 50%/N=16 anchor point.
    ci_tca = ci_spmm(m, 16, compression_ratio("tca-bme", m, m, 0.5))
    ci_csr = ci_spmm(m, 16, compression_ratio("csr", m, m, 0.5))
    return Experiment(
        exp_id="fig04",
        title=f"Roofline analysis on {gpu.name} (M={m})",
        headers=["kernel", "sparsity", "N", "ci_flops_per_elem",
                 "attainable_tflops", "memory_bound"],
        rows=rows,
        metrics={
            "all_decode_points_memory_bound": float(all_memory_bound),
            "tca_ci_gain_over_csr_at_50": ci_tca / ci_csr,
        },
        notes=(
            "Paper: every decode-phase point sits in the memory-bound "
            "region, so attainable performance scales with CI, i.e. with "
            "the format's compression ratio."
        ),
    )
