"""Cross-module integration tests: the full prune -> encode -> SpMM
pipeline and its simulated deployment."""

import numpy as np
import pytest

from repro.core.tca_bme import encode
from repro.formats.registry import encode_as
from repro.gpu.specs import RTX4090
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem
from repro.llm.inference import InferenceConfig, simulate_inference
from repro.pruning.patterns import (
    block_occupancy,
    clustered_mask,
    measured_sparsity,
    uniform_mask,
)
from repro.pruning.wanda import wanda_prune


class TestPruneEncodeCompute:
    def test_wanda_to_spinfer_pipeline(self):
        """Prune with Wanda, encode in TCA-BME, run the SpInfer kernel —
        the full path a weight matrix takes in the real framework."""
        rng = np.random.default_rng(0)
        w = rng.standard_normal((256, 192)).astype(np.float16)
        x = rng.standard_normal((192, 16)).astype(np.float16)

        pruned = wanda_prune(w, 0.6, seed=1)
        assert measured_sparsity(pruned) == pytest.approx(0.6, abs=0.02)

        enc = encode(pruned)
        enc.validate()
        assert enc.compression_ratio() > 1.0  # memory actually saved

        kernel = make_kernel("spinfer")
        out = kernel.run_encoded(enc, x)
        ref = pruned.astype(np.float32) @ x.astype(np.float32)
        np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3)

    def test_all_kernels_agree_on_same_pruned_matrix(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((128, 128)).astype(np.float16)
        w[~uniform_mask(128, 128, 0.55, seed=3)] = 0
        x = rng.standard_normal((128, 8)).astype(np.float16)
        outputs = {
            name: make_kernel(name).run(w, x)
            for name in ("spinfer", "flash_llm", "sparta", "sputnik", "smat")
        }
        ref = w.astype(np.float32) @ x.astype(np.float32)
        for name, out in outputs.items():
            np.testing.assert_allclose(out, ref, rtol=1e-3, atol=1e-3,
                                       err_msg=name)

    def test_profile_with_measured_statistics(self):
        """Feeding measured mask statistics into the cost model (the
        clustered SMaT scenario of Fig. 11)."""
        mask = clustered_mask(512, 512, 0.99, block=16, seed=4)
        w = np.where(mask, np.float16(1.0), np.float16(0.0))
        occ = block_occupancy(w)
        prob = SpMMProblem(
            m=512, k=512, n=16,
            sparsity=measured_sparsity(w),
            block_occupancy=occ,
        )
        p = make_kernel("smat").profile(prob, RTX4090)
        assert p.time_s > 0
        assert occ == pytest.approx(0.01, abs=0.005)

    def test_format_storage_consistency_with_memory_model(self):
        """The inference memory model's analytic weight bytes match the
        concrete encoder on a real pruned matrix."""
        from repro.formats.analytic import storage_tca_bme

        rng = np.random.default_rng(5)
        w = rng.standard_normal((512, 512)).astype(np.float16)
        w[~uniform_mask(512, 512, 0.6, seed=6)] = 0
        enc = encode_as("tca-bme", w)
        analytic = storage_tca_bme(512, 512, 0.6)
        assert enc.storage_bytes() == pytest.approx(analytic, rel=1e-3)


class TestEndToEndConsistency:
    def test_kernel_speedup_survives_to_framework_level(self):
        """Kernel-level SpMM advantage must shrink but persist end to end
        (the dilution the paper shows between Fig. 10 and Fig. 13)."""
        prob = SpMMProblem(m=20480, k=5120, n=16, sparsity=0.6)
        t_k_sp = make_kernel("spinfer").profile(prob, RTX4090).time_s
        t_k_cb = make_kernel("cublas_tc").profile(prob, RTX4090).time_s
        kernel_speedup = t_k_cb / t_k_sp

        sp = simulate_inference(InferenceConfig(
            model="opt-13b", framework="spinfer", gpu="RTX4090",
            num_gpus=2, batch_size=16, prompt_len=64, output_len=128,
            sparsity=0.6))
        ft = simulate_inference(InferenceConfig(
            model="opt-13b", framework="fastertransformer", gpu="RTX4090",
            num_gpus=2, batch_size=16, prompt_len=64, output_len=128,
            sparsity=0.0))
        e2e_speedup = ft.total_s / sp.total_s
        assert 1.0 < e2e_speedup < kernel_speedup

    def test_memory_model_tracks_encoder(self):
        """Framework-level memory savings equal the format's CR on weights."""
        sp = simulate_inference(InferenceConfig(
            model="opt-13b", framework="spinfer", gpu="RTX4090",
            num_gpus=1, batch_size=8, prompt_len=64, output_len=64,
            sparsity=0.6))
        ft = simulate_inference(InferenceConfig(
            model="opt-13b", framework="fastertransformer", gpu="RTX4090",
            num_gpus=1, batch_size=8, prompt_len=64, output_len=64,
            sparsity=0.0))
        ratio = ft.memory.weights / sp.memory.weights
        # TCA-BME CR at 60% is ~2.1 (Fig. 3).
        assert ratio == pytest.approx(2.16, abs=0.15)
