"""Tests for all SpMM/GEMM kernels — numerics and cost profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.specs import A6000, RTX4090
from repro.kernels import KERNELS, make_kernel
from repro.kernels.base import TILE_K, SpMMProblem, choose_split_k


def random_problem(m, k, n, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    x = rng.standard_normal((k, n)).astype(np.float16)
    ref = w.astype(np.float32) @ x.astype(np.float32)
    return w, x, ref


ALL_KERNELS = sorted(KERNELS)
FUNCTIONAL_KERNELS = [k for k in ALL_KERNELS if not k.startswith("spinfer_")]


class TestNumerics:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_matches_dense_reference(self, name):
        w, x, ref = random_problem(128, 96, 16, 0.6, seed=1)
        out = make_kernel(name).run(w, x)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("name", FUNCTIONAL_KERNELS)
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9, 1.0])
    def test_sparsity_range(self, name, sparsity):
        w, x, ref = random_problem(64, 64, 8, sparsity, seed=2)
        out = make_kernel(name).run(w, x)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("name", FUNCTIONAL_KERNELS)
    def test_irregular_shapes(self, name):
        w, x, ref = random_problem(70, 50, 5, 0.5, seed=3)
        out = make_kernel(name).run(w, x)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    @pytest.mark.parametrize("name", FUNCTIONAL_KERNELS)
    def test_rejects_mismatched_operands(self, name):
        with pytest.raises(ValueError):
            make_kernel(name).run(
                np.zeros((8, 8), np.float16), np.zeros((4, 4), np.float16)
            )

    def test_spinfer_fragment_path_matches(self):
        w, x, ref = random_problem(64, 64, 16, 0.5, seed=4)
        out = make_kernel("spinfer").run_fragment_path(w, x)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_spinfer_decode_stats_populated(self):
        w, x, _ = random_problem(128, 128, 8, 0.5, seed=5)
        kernel = make_kernel("spinfer")
        kernel.run(w, x)
        stats = kernel.last_decode_stats
        assert stats is not None
        assert stats.values_decoded == np.count_nonzero(w)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        sparsity=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_spinfer_matches_reference_property(self, seed, sparsity):
        w, x, ref = random_problem(64, 48, 8, sparsity, seed=seed)
        out = make_kernel("spinfer").run(w, x)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)


class TestProblemSpec:
    def test_nnz(self):
        p = SpMMProblem(m=100, k=100, n=16, sparsity=0.4)
        assert p.nnz == 6000
        assert p.dense_flops == 2 * 100 * 100 * 16
        assert p.sparse_flops == 2 * 6000 * 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SpMMProblem(m=0, k=1, n=1, sparsity=0.5)
        with pytest.raises(ValueError):
            SpMMProblem(m=1, k=1, n=1, sparsity=1.5)
        with pytest.raises(ValueError):
            SpMMProblem(m=1, k=1, n=1, sparsity=0.5, block_occupancy=2.0)
        with pytest.raises(ValueError):
            SpMMProblem(m=1, k=1, n=1, sparsity=0.5, sparta_residual_nnz=-1)

    def test_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            make_kernel("magic")

    def test_unknown_spinfer_variant(self):
        from repro.kernels.spinfer import SpInferKernel

        with pytest.raises(ValueError, match="unknown variant"):
            SpInferKernel(variant="turbo")


class TestSplitK:
    def test_small_grid_gets_split(self):
        cal = make_kernel("spinfer").calibration
        p = SpMMProblem(m=4096, k=4096, n=16, sparsity=0.5)
        assert choose_split_k(p, RTX4090, cal) > 1

    def test_large_grid_no_split(self):
        cal = make_kernel("spinfer").calibration
        p = SpMMProblem(m=65536, k=4096, n=16, sparsity=0.5)
        assert choose_split_k(p, RTX4090, cal) == 1

    def test_split_bounded_by_k_tiles(self):
        cal = make_kernel("spinfer").calibration
        p = SpMMProblem(m=64, k=TILE_K * 2, n=8, sparsity=0.5)
        assert choose_split_k(p, RTX4090, cal) <= 2


class TestProfiles:
    """Cost-model orderings matching the paper's kernel evaluation."""

    BIG = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.5)

    def _time(self, name, problem=None, gpu=RTX4090):
        return make_kernel(name).profile(problem or self.BIG, gpu).time_s

    def test_spinfer_beats_cublas_at_50pct(self):
        assert self._time("spinfer") < self._time("cublas_tc")

    def test_spinfer_beats_cublas_even_at_30pct(self):
        """The paper's headline claim: wins from 30% sparsity up."""
        p = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.3)
        assert self._time("spinfer", p) < self._time("cublas_tc", p)

    def test_flash_llm_breaks_even_at_50pct(self):
        ratio = self._time("cublas_tc") / self._time("flash_llm")
        assert 0.8 < ratio < 1.2

    def test_cusparse_slowest(self):
        others = ["spinfer", "flash_llm", "sparta", "sputnik", "cublas_tc"]
        t_cusparse = self._time("cusparse")
        for name in others:
            assert t_cusparse > self._time(name)

    def test_kernel_ordering_at_60pct(self):
        """SpInfer < Flash-LLM ~ SparTA < cuBLAS < Sputnik < cuSPARSE."""
        p = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.6)
        t = {n: self._time(n, p) for n in
             ("spinfer", "flash_llm", "sparta", "cublas_tc", "sputnik", "cusparse")}
        assert t["spinfer"] < t["flash_llm"]
        assert t["spinfer"] < t["sparta"]
        assert t["flash_llm"] < t["cublas_tc"]
        assert t["cublas_tc"] < t["sputnik"]
        assert t["sputnik"] < t["cusparse"]

    def test_speedup_grows_with_sparsity(self):
        speedups = []
        for s in (0.4, 0.5, 0.6, 0.7):
            p = SpMMProblem(m=28672, k=8192, n=16, sparsity=s)
            speedups.append(self._time("cublas_tc", p) / self._time("spinfer", p))
        assert speedups == sorted(speedups)

    def test_prefill_crossover(self):
        """Fig. 16: cuBLAS wins at large N, by at most ~12%."""
        p_large = SpMMProblem(m=28672, k=8192, n=8192, sparsity=0.6)
        slowdown = self._time("spinfer", p_large) / self._time("cublas_tc", p_large)
        assert 1.0 < slowdown < 1.15

    def test_ablation_ordering(self):
        """Table 1: full < no_async < no_smbd in duration."""
        p = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.6)
        t_full = self._time("spinfer", p)
        t_no_smbd = self._time("spinfer_no_smbd", p)
        t_no_async = self._time("spinfer_no_async", p)
        assert t_full < t_no_async < t_no_smbd
        assert t_no_smbd / t_full < 1.35  # paper: +10%
        assert t_no_async / t_full < 1.12  # paper: +2%

    def test_a6000_slower_than_4090(self):
        assert self._time("spinfer", gpu=A6000) > self._time("spinfer", gpu=RTX4090)

    def test_smat_uses_block_occupancy(self):
        dense_blocks = SpMMProblem(m=16384, k=16384, n=16, sparsity=0.999,
                                   block_occupancy=1.0)
        sparse_blocks = SpMMProblem(m=16384, k=16384, n=16, sparsity=0.999,
                                    block_occupancy=0.05)
        assert (self._time("smat", sparse_blocks)
                < self._time("smat", dense_blocks))

    def test_sparta_uses_measured_residual(self):
        lo = SpMMProblem(m=8192, k=8192, n=16, sparsity=0.5, sparta_residual_nnz=0)
        hi = SpMMProblem(m=8192, k=8192, n=16, sparsity=0.5,
                         sparta_residual_nnz=8192 * 8192 // 4)
        assert self._time("sparta", lo) < self._time("sparta", hi)

    def test_profile_counters_sane(self):
        p = make_kernel("spinfer").profile(self.BIG, RTX4090)
        assert p.dram_bytes > 0
        assert 0 < p.bandwidth_utilization <= 1.0
        assert p.kernel == "spinfer"
        assert p.gpu == "RTX4090"
