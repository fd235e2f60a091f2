#!/usr/bin/env python3
"""Tour of the extensions: quantization, cross-accelerator tiling,
kernel dispatch and weight offloading.

Everything here is SpInfer *beyond* the paper's evaluation — each piece
quantifies a claim the paper makes in prose (Sections 2.3 and 6).

Run:  python examples/extensions_tour.py
"""

import numpy as np

from repro.bench.harness import format_table
from repro.core.quant import QuantizedTCABME
from repro.core.tca_bme import encode
from repro.gpu.accelerators import ACCELERATORS, cross_accelerator_cr
from repro.gpu.specs import RTX4090
from repro.kernels.base import SpMMProblem
from repro.kernels.dispatch import KernelDispatcher
from repro.llm.offloading import plan_offload

SPARSITY = 0.6


def quantization_study() -> None:
    print("1. Quantization composes with bitmap indexing (paper 2.3)")
    rng = np.random.default_rng(0)
    w = rng.standard_normal((1024, 1024)).astype(np.float16)
    w[rng.random((1024, 1024)) < SPARSITY] = 0
    rows = [["fp16", encode(w).compression_ratio(), "-"]]
    for bits in (8, 4):
        q = QuantizedTCABME.from_dense(w, bits=bits)
        rows.append([f"int{bits}", q.compression_ratio(),
                     f"{q.quantization_error():.4f}"])
    print(format_table(["values", "CR", "value RMS error"], rows))
    print()


def cross_accelerator_study() -> None:
    print("2. TCA-BME retargets to other matrix units (paper 6)")
    crs = cross_accelerator_cr(4096, 4096, SPARSITY)
    rows = []
    for name, accel in ACCELERATORS.items():
        cfg = accel.tile_config()
        rows.append([
            name, accel.unit_name,
            f"{cfg.bt_h}x{cfg.bt_w}", f"{cfg.tt_h}x{cfg.tt_w}",
            f"{crs[name]:.3f}",
        ])
    print(format_table(
        ["accelerator", "matrix unit", "bitmap tile", "unit tile", "CR@60%"],
        rows,
    ))
    print("CR is tiling-invariant: the bitmap overhead is 1 bit/element "
          "regardless of tile shape.\n")


def dispatch_study() -> None:
    print("3. Cost-model kernel dispatch (Figs. 10/11/16 as one policy)")
    dispatcher = KernelDispatcher(gpu=RTX4090, dense_weights_available=True)
    cases = [
        ("decode step", SpMMProblem(m=28672, k=8192, n=16, sparsity=0.6)),
        ("prefill GEMM", SpMMProblem(m=28672, k=8192, n=8192, sparsity=0.6)),
        ("scientific matrix",
         SpMMProblem(m=16384, k=16384, n=16, sparsity=0.999,
                     block_occupancy=0.05)),
    ]
    rows = []
    for label, prob in cases:
        d = dispatcher.select(prob)
        rows.append([label, d.kernel_name, f"{d.profile.time_us:.0f}",
                     f"{d.margin:.2f}x"])
    print(format_table(["workload", "chosen kernel", "time us", "margin"], rows))
    print()


def offloading_study() -> None:
    print("4. Offloaded OPT-66B on one RTX4090 (paper 2.3)")
    rows = []
    for fmt, sparsity in (("dense", 0.0), ("tca-bme", SPARSITY)):
        plan = plan_offload("opt-66b", fmt, sparsity, "RTX4090",
                            batch_size=8, context_len=512)
        rows.append([fmt, plan.resident_layers, plan.streamed_layers,
                     f"{plan.streamed_bytes_per_step / 1e9:.1f}"])
    print(format_table(
        ["weights", "layers on GPU", "layers streamed", "PCIe GB/step"], rows
    ))
    print("Compression pins 2.4x more layers and shrinks every streamed byte.")


def main() -> None:
    quantization_study()
    cross_accelerator_study()
    dispatch_study()
    offloading_study()


if __name__ == "__main__":
    main()
