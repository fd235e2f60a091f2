"""Tests for cost-model-driven kernel dispatch."""

import numpy as np
import pytest

from repro.kernels.base import SpMMProblem
from repro.kernels.dispatch import KernelDispatcher


class TestSelection:
    def test_decode_shape_picks_spinfer(self):
        d = KernelDispatcher()
        decision = d.select(SpMMProblem(m=28672, k=8192, n=16, sparsity=0.6))
        assert decision.kernel_name == "spinfer"
        assert decision.margin >= 1.0

    def test_prefill_shape_picks_cublas_when_dense_available(self):
        """The Fig. 16 regime: with a dense copy on hand, big-N dispatch
        goes to the dense GEMM."""
        d = KernelDispatcher(dense_weights_available=True)
        decision = d.select(SpMMProblem(m=28672, k=8192, n=8192, sparsity=0.6))
        assert decision.kernel_name == "cublas_tc"

    def test_prefill_without_dense_copy_stays_sparse(self):
        d = KernelDispatcher(dense_weights_available=False)
        decision = d.select(SpMMProblem(m=28672, k=8192, n=8192, sparsity=0.6))
        assert decision.kernel_name in ("spinfer", "flash_llm", "sparta")

    def test_clustered_extreme_sparsity_picks_smat(self):
        """The Fig. 11 regime: among the Tensor-Core kernels, skippable
        blocks hand extreme clustered sparsity to SMaT."""
        d = KernelDispatcher(candidates=("spinfer", "flash_llm", "smat"))
        decision = d.select(
            SpMMProblem(m=16384, k=16384, n=16, sparsity=0.999,
                        block_occupancy=0.05)
        )
        assert decision.kernel_name == "smat"

    def test_extreme_sparsity_overall_winner_is_cuda_core(self):
        """Paper Section 6: beyond ~90% sparsity CSR-based kernels win
        overall — the dispatcher discovers that too."""
        d = KernelDispatcher()
        decision = d.select(
            SpMMProblem(m=16384, k=16384, n=16, sparsity=0.999,
                        block_occupancy=0.05)
        )
        assert decision.kernel_name == "sputnik"

    def test_decision_cached(self):
        d = KernelDispatcher()
        p = SpMMProblem(m=4096, k=4096, n=16, sparsity=0.5)
        a = d.select(p)
        b = d.select(p)
        assert a is b

    def test_kernel_for_is_runnable(self):
        d = KernelDispatcher()
        p = SpMMProblem(m=64, k=64, n=8, sparsity=0.5)
        kernel = d.kernel_for(p)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((64, 64)).astype(np.float16)
        w[rng.random((64, 64)) < 0.5] = 0
        x = rng.standard_normal((64, 8)).astype(np.float16)
        out = kernel.run(w, x)
        np.testing.assert_allclose(
            out, w.astype(np.float32) @ x.astype(np.float32),
            rtol=1e-3, atol=1e-3,
        )

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            KernelDispatcher(candidates=())

    def test_single_candidate_no_runner_up(self):
        d = KernelDispatcher(candidates=("spinfer",))
        decision = d.select(SpMMProblem(m=1024, k=1024, n=8, sparsity=0.5))
        assert decision.runner_up is None
        assert decision.margin == 1.0
