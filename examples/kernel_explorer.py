#!/usr/bin/env python3
"""Explore SpMM kernel behaviour across sparsity, batch size and GPUs.

An interactive-style tour of the cost model: for a chosen weight shape it
prints (a) the roofline placement of each format, (b) per-kernel profiles
with Nsight-style counters, and (c) the decode-vs-prefill crossover that
motivates disaggregated serving (paper Fig. 16).

Run:  python examples/kernel_explorer.py [M] [K]
"""

import sys

from repro.bench.harness import format_table
from repro.formats.analytic import compression_ratio
from repro.gpu.roofline import ci_gemm, ci_spmm, roofline_point
from repro.gpu.specs import A6000, RTX4090
from repro.kernels import KERNELS, make_kernel
from repro.kernels.base import SpMMProblem

DEFAULT_M, DEFAULT_K = 28672, 8192  # the paper's running example (LLaMA2-70B FFN)
SPARSITY = 0.6


def roofline_table(m: int, k: int) -> None:
    print(f"Roofline placement at N=16, sparsity {SPARSITY:.0%} (RTX4090)")
    rows = []
    gemm_pt = roofline_point("dense gemm", ci_gemm(m, 16), RTX4090)
    rows.append(["dense gemm", f"{gemm_pt.ci:.1f}", f"{gemm_pt.attainable_tflops:.1f}",
                 "memory" if gemm_pt.memory_bound else "compute"])
    for fmt in ("csr", "tiled-csl", "sparta", "tca-bme", "optimal"):
        cr = compression_ratio(fmt, m, k, SPARSITY)
        pt = roofline_point(fmt, ci_spmm(m, 16, cr), RTX4090)
        rows.append([fmt, f"{pt.ci:.1f}", f"{pt.attainable_tflops:.1f}",
                     "memory" if pt.memory_bound else "compute"])
    print(format_table(["operand format", "CI (flop/elem)", "attainable TF/s", "bound"], rows))
    print()


def kernel_profiles(m: int, k: int) -> None:
    problem = SpMMProblem(m=m, k=k, n=16, sparsity=SPARSITY)
    for gpu in (RTX4090, A6000):
        rows = []
        base = make_kernel("cublas_tc").profile(problem, gpu).time_s
        for name in sorted(KERNELS):
            if name.startswith("spinfer_"):
                continue  # ablation variants — see tab01 bench
            p = make_kernel(name).profile(problem, gpu)
            rows.append([
                name,
                f"{p.time_us:.0f}",
                f"{base / p.time_s:.2f}x",
                f"{p.dram_bytes / 1e6:.0f}",
                f"{p.bandwidth_utilization:.0%}",
                f"{p.tc_utilization:.0%}",
                p.registers_per_thread,
            ])
        rows.sort(key=lambda r: float(r[1]))
        print(f"Kernel profiles on {gpu.name} (M={m}, K={k}, N=16, s={SPARSITY:.0%})")
        print(format_table(
            ["kernel", "time us", "vs cuBLAS", "DRAM MB", "BW util", "TC util", "regs"],
            rows,
        ))
        print()


def prefill_crossover(m: int, k: int) -> None:
    spinfer = make_kernel("spinfer")
    cublas = make_kernel("cublas_tc")
    rows = []
    for n in (8, 16, 64, 256, 1024, 4096):
        prob = SpMMProblem(m=m, k=k, n=n, sparsity=SPARSITY)
        speedup = cublas.profile(prob, RTX4090).time_s / spinfer.profile(prob, RTX4090).time_s
        regime = "decode (SpInfer wins)" if speedup > 1 else "prefill (cuBLAS wins)"
        rows.append([n, f"{speedup:.2f}x", regime])
    print("Decode vs prefill crossover (paper Fig. 16)")
    print(format_table(["N (batch x seq)", "SpInfer speedup", "regime"], rows))


def main() -> None:
    m = int(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_M
    k = int(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_K
    roofline_table(m, k)
    kernel_profiles(m, k)
    prefill_crossover(m, k)


if __name__ == "__main__":
    main()
