#!/usr/bin/env python3
"""Quickstart: encode a pruned weight matrix and run SpInfer SpMM.

Walks the minimal SpInfer pipeline:

1. prune a dense FP16 weight matrix to 60 % unstructured sparsity,
2. encode it with Tensor-Core-Aware Bitmap Encoding (TCA-BME),
3. execute the SpInfer SpMM kernel against an activation panel,
4. verify the result and inspect the predicted on-GPU profile.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.core.tca_bme import encode
from repro.gpu.specs import RTX4090
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem
from repro.pruning.magnitude import magnitude_prune

M, K, N = 4096, 4096, 16  # one decode-phase linear layer
SPARSITY = 0.6


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. A dense layer weight, pruned to 60% (Wanda-level) sparsity.
    dense = rng.standard_normal((M, K)).astype(np.float16)
    pruned = magnitude_prune(dense, SPARSITY)
    print(f"weight matrix: {M}x{K}, sparsity {SPARSITY:.0%}")

    # 2. TCA-BME encoding: bitmaps instead of per-element indices.
    encoded = encode(pruned)
    encoded.validate()
    dense_mb = 2 * M * K / 1e6
    enc_mb = encoded.storage_bytes() / 1e6
    print(f"dense storage:   {dense_mb:8.2f} MB")
    print(f"TCA-BME storage: {enc_mb:8.2f} MB  (CR = {encoded.compression_ratio():.2f}x)")

    # 3. SpMM: decode via Shared Memory Bitmap Decoding and multiply.
    x = rng.standard_normal((K, N)).astype(np.float16)
    kernel = make_kernel("spinfer")
    out = kernel.run_encoded(encoded, x)

    # 4. Verify against a dense reference and show the simulated profile.
    ref = pruned.astype(np.float32) @ x.astype(np.float32)
    max_err = float(np.abs(out - ref).max())
    print(f"max abs error vs dense matmul: {max_err:.2e}")
    assert max_err < 1e-3

    stats = kernel.last_decode_stats
    print(
        f"SMBD work: {stats.popcount_ops} PopCounts, "
        f"{stats.masked_popcount_ops} MaskedPopCounts, "
        f"{stats.values_decoded} values decoded"
    )

    problem = SpMMProblem(m=M, k=K, n=N, sparsity=SPARSITY)
    spinfer_profile = kernel.profile(problem, RTX4090)
    cublas_profile = make_kernel("cublas_tc").profile(problem, RTX4090)
    print(
        f"predicted on RTX4090: SpInfer {spinfer_profile.time_us:.0f} us vs "
        f"cuBLAS {cublas_profile.time_us:.0f} us "
        f"({cublas_profile.time_s / spinfer_profile.time_s:.2f}x speedup)"
    )


if __name__ == "__main__":
    main()
