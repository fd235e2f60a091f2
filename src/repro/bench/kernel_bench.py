"""Kernel-level experiments: Figs. 1, 10, 11, 12, 16 and Table 1.

Each function regenerates the data behind one figure/table of the
paper's kernel evaluation, using the simulated GPUs (RTX4090 / A6000)
and the exact storage equations of every format.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..gpu.specs import RTX4090, GPUSpec
from ..kernels import make_kernel
from ..kernels.base import SpMMProblem
from ..llm.models import kernel_matrix_zoo
from .harness import Experiment, geomean

__all__ = [
    "fig01_motivation",
    "fig10_kernel_sweep",
    "fig11_smat_comparison",
    "fig12_micro_metrics",
    "tab01_ablation",
    "fig16_prefill",
]

#: Kernels compared in Fig. 1 / Fig. 10, in the paper's plotting order.
FIG10_KERNELS = ("cusparse", "sputnik", "sparta", "flash_llm", "spinfer")

#: Decode-phase batch sizes of Fig. 10.
FIG10_NS = (8, 16, 32)

#: Sparsity grid of the kernel evaluation.
FIG10_SPARSITIES = (0.4, 0.5, 0.6, 0.7)


def fig01_motivation(gpu: GPUSpec = RTX4090) -> Experiment:
    """Fig. 1: SpMM execution time vs cuBLAS at M/K/N = 28672/8192/16."""
    m, k, n = 28672, 8192, 16
    cublas = make_kernel("cublas_tc")
    rows: List[List[object]] = []
    sparsities = (0.4, 0.5, 0.6, 0.7, 0.8)
    crossover: Dict[str, Optional[float]] = {}
    for name in FIG10_KERNELS:
        kernel = make_kernel(name)
        crossover[name] = None
        for s in sparsities:
            prob = SpMMProblem(m=m, k=k, n=n, sparsity=s)
            t = kernel.profile(prob, gpu).time_us
            t_dense = cublas.profile(prob, gpu).time_us
            rows.append([name, s, t, t_dense, t_dense / t])
            if crossover[name] is None and t < t_dense:
                crossover[name] = s
    metrics = {
        f"crossover_sparsity_{name}": (xo if xo is not None else 1.0)
        for name, xo in crossover.items()
    }
    return Experiment(
        exp_id="fig01",
        title=f"SpMM vs cuBLAS, M/K/N={m}/{k}/{n} on {gpu.name}",
        headers=["kernel", "sparsity", "time_us", "cublas_us", "speedup"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Paper: only SpInfer beats cuBLAS at <=50% sparsity; Flash-LLM "
            "breaks even around 50-60%, CUDA-core kernels never do in range."
        ),
    )


def fig10_kernel_sweep(gpu: GPUSpec = RTX4090) -> Experiment:
    """Fig. 10: speedup over cuBLAS across the LLM weight-matrix zoo."""
    zoo = kernel_matrix_zoo()
    kernels = {name: make_kernel(name) for name in FIG10_KERNELS}
    cublas = make_kernel("cublas_tc")

    per_kernel: Dict[str, List[float]] = {name: [] for name in FIG10_KERNELS}
    per_kernel_by_s: Dict[str, Dict[float, List[float]]] = {
        name: {s: [] for s in FIG10_SPARSITIES} for name in FIG10_KERNELS
    }
    spinfer_wins = {s: 0 for s in FIG10_SPARSITIES}
    cases = {s: 0 for s in FIG10_SPARSITIES}

    for s in FIG10_SPARSITIES:
        for _label, m, k in zoo:
            for n in FIG10_NS:
                prob = SpMMProblem(m=m, k=k, n=n, sparsity=s)
                t_dense = cublas.profile(prob, gpu).time_s
                for name, kernel in kernels.items():
                    speedup = t_dense / kernel.profile(prob, gpu).time_s
                    per_kernel[name].append(speedup)
                    per_kernel_by_s[name][s].append(speedup)
                cases[s] += 1
                if per_kernel_by_s["spinfer"][s][-1] > 1.0:
                    spinfer_wins[s] += 1

    rows = []
    for name in FIG10_KERNELS:
        for s in FIG10_SPARSITIES:
            rows.append([name, s, geomean(per_kernel_by_s[name][s])])
    metrics = {
        f"avg_speedup_{name}": geomean(vals) for name, vals in per_kernel.items()
    }
    for name in FIG10_KERNELS:
        if name != "spinfer":
            metrics[f"spinfer_over_{name}"] = (
                metrics["avg_speedup_spinfer"] / metrics[f"avg_speedup_{name}"]
            )
    for s in FIG10_SPARSITIES:
        metrics[f"spinfer_win_rate_{int(s * 100)}"] = spinfer_wins[s] / cases[s]
    return Experiment(
        exp_id=f"fig10_{gpu.name.lower()}",
        title=f"Kernel speedups vs cuBLAS over the model zoo on {gpu.name}",
        headers=["kernel", "sparsity", "geomean_speedup"],
        rows=rows,
        metrics=metrics,
        notes=(
            "Paper (RTX4090): SpInfer avg 1.79x over cuBLAS; 2.55x over "
            "Sputnik, 1.67x over SparTA, 1.56x over Flash-LLM, 18.14x over "
            "cuSPARSE. A6000 avg 1.51x."
        ),
    )


def fig11_smat_comparison(gpu: GPUSpec = RTX4090) -> Experiment:
    """Fig. 11: SpInfer vs SMaT from LLM to scientific sparsity.

    Beyond ~99.7 % sparsity the paper's scientific matrices have
    *clustered* non-zeros, so whole 16x16 blocks vanish and SMaT's block
    skipping wins; we model that with block occupancy equal to density
    clustering (occupancy ~= 40x density, i.e. blocks are dense inside).
    """
    m = k = 16384
    n = 16
    spinfer = make_kernel("spinfer")
    smat = make_kernel("smat")
    rows: List[List[object]] = []
    crossover = None
    for s in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.995, 0.997, 0.999, 0.9995):
        # Mildly clustered scientific pattern: non-zeros cluster ~2x
        # relative to uniform, so a 16x16 block (256 cells) empties like
        # ~116 independent cells would.  At LLM sparsity every block is
        # occupied; blocks only start vanishing beyond ~99%.
        occupancy = 1.0 - s**116
        prob = SpMMProblem(m=m, k=k, n=n, sparsity=s, block_occupancy=occupancy)
        t_spinfer = spinfer.profile(prob, gpu).time_us
        t_smat = smat.profile(prob, gpu).time_us
        ratio = t_smat / t_spinfer
        rows.append([s, occupancy, t_spinfer, t_smat, ratio])
        if crossover is None and ratio < 1.0:
            crossover = s
    prob50 = SpMMProblem(m=m, k=k, n=n, sparsity=0.5, block_occupancy=1.0)
    speedup50 = (
        smat.profile(prob50, gpu).time_s / spinfer.profile(prob50, gpu).time_s
    )
    return Experiment(
        exp_id="fig11",
        title="SpInfer vs SMaT across sparsity (clustered patterns)",
        headers=["sparsity", "block_occupancy", "spinfer_us", "smat_us",
                 "smat/spinfer"],
        rows=rows,
        metrics={
            "spinfer_speedup_at_50": speedup50,
            "crossover_sparsity": crossover if crossover is not None else 1.0,
        },
        notes=(
            "Paper: SpInfer 2.12x faster at 50%; SMaT only wins above "
            "~99.7% sparsity on clustered scientific matrices."
        ),
    )


def fig12_micro_metrics(gpu: GPUSpec = RTX4090) -> Experiment:
    """Fig. 12: Nsight-style micro metrics for SpInfer/cuBLAS/Flash-LLM."""
    prob = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.6)
    rows = []
    profiles = {}
    for name in ("cublas_tc", "flash_llm", "spinfer"):
        p = make_kernel(name).profile(prob, gpu)
        profiles[name] = p
        rows.append(
            [
                name,
                p.registers_per_thread,
                p.dram_bytes / 1e6,
                p.bandwidth_utilization,
                p.bank_conflict_replays / 1e3,
                p.tc_utilization,
                p.occupancy.occupancy,
            ]
        )
    sp, fl, cb = profiles["spinfer"], profiles["flash_llm"], profiles["cublas_tc"]
    return Experiment(
        exp_id="fig12",
        title="Micro-level metrics (M/K/N=28672/8192/16, 60% sparsity)",
        headers=[
            "kernel",
            "regs/thread",
            "dram_MB",
            "bw_util",
            "bank_replays_k",
            "tc_util",
            "occupancy",
        ],
        rows=rows,
        metrics={
            "spinfer_fewest_registers": float(
                sp.registers_per_thread
                < min(fl.registers_per_thread, cb.registers_per_thread)
            ),
            "spinfer_dram_vs_cublas": sp.dram_bytes / cb.dram_bytes,
            "spinfer_dram_vs_flash": sp.dram_bytes / fl.dram_bytes,
            "flash_bank_replays": fl.bank_conflict_replays,
            "spinfer_bank_replays": sp.bank_conflict_replays,
        },
        notes=(
            "Paper: SpInfer uses the fewest registers, reads the least "
            "DRAM, has zero shared-memory write conflicts (Flash-LLM's "
            "scatter conflicts), and the highest TC pipe utilisation."
        ),
    )


def tab01_ablation(gpu: GPUSpec = RTX4090) -> Experiment:
    """Table 1: ablating SMBD and the asynchronous pipeline."""
    prob = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.6)
    rows = []
    times = {}
    for name, label in (
        ("spinfer", "SMBD + AsyncPipe"),
        ("spinfer_no_smbd", "- SMBD"),
        ("spinfer_no_async", "- AsyncPipe"),
    ):
        p = make_kernel(name).profile(prob, gpu)
        times[name] = p.time_s
        rows.append(
            [
                label,
                p.time_us,
                p.bandwidth_utilization,
                p.issue_slot_busy,
                p.warp_cycles_per_inst,
                p.tc_utilization,
            ]
        )
    return Experiment(
        exp_id="tab01",
        title="Kernel ablation (M/K/N=28672/8192/16, 60% sparsity)",
        headers=["config", "duration_us", "max_bw", "issue_busy",
                 "warp_cyc/inst", "tc_util"],
        rows=rows,
        metrics={
            "slowdown_no_smbd": times["spinfer_no_smbd"] / times["spinfer"],
            "slowdown_no_async": times["spinfer_no_async"] / times["spinfer"],
        },
        notes=(
            "Paper: removing SMBD costs +10.03% duration; removing the "
            "async pipeline +1.98%. Counter magnitudes are model-derived; "
            "orderings match the paper."
        ),
    )


def fig16_prefill(gpu: GPUSpec = RTX4090) -> Experiment:
    """Fig. 16: small-N vs large-N (prefill) behaviour, M=28672 K=8192."""
    spinfer = make_kernel("spinfer")
    cublas = make_kernel("cublas_tc")
    rows = []
    worst = 0.0
    for n in (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192):
        prob = SpMMProblem(m=28672, k=8192, n=n, sparsity=0.6)
        t_sp = spinfer.profile(prob, gpu).time_us
        t_cb = cublas.profile(prob, gpu).time_us
        slowdown = t_sp / t_cb
        worst = max(worst, slowdown)
        rows.append([n, t_sp, t_cb, t_cb / t_sp])
    return Experiment(
        exp_id="fig16",
        title="Decode vs prefill regime (M=28672, K=8192, 60% sparsity)",
        headers=["N", "spinfer_us", "cublas_us", "speedup"],
        rows=rows,
        metrics={"max_slowdown_large_n": worst},
        notes=(
            "Paper: SpInfer wins at decode-phase N but is up to 11.8% "
            "slower than cuBLAS once the prefill GEMM turns compute-bound."
        ),
    )
