"""Determinism tests: the whole stack must be reproducible bit for bit.

Every layer — pruning, encoding, kernels, cost model, end-to-end
simulation, experiments — is seeded or closed-form; repeated runs must
agree exactly, or the paper-vs-measured record in EXPERIMENTS.md would
drift between machines and runs.
"""

import numpy as np

from repro.bench.format_bench import fig03_compression
from repro.bench.kernel_bench import tab01_ablation
from repro.core.tca_bme import encode
from repro.gpu.specs import RTX4090
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem
from repro.llm.inference import InferenceConfig, simulate_inference
from repro.pruning.sparsegpt import sparsegpt_prune
from repro.pruning.wanda import wanda_prune


class TestDeterminism:
    def test_pruning(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((64, 64)).astype(np.float16)
        assert np.array_equal(wanda_prune(w, 0.5, seed=1), wanda_prune(w, 0.5, seed=1))
        assert np.array_equal(
            sparsegpt_prune(w, 0.5, seed=2), sparsegpt_prune(w, 0.5, seed=2)
        )

    def test_encoding(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((128, 96)).astype(np.float16)
        w[rng.random((128, 96)) < 0.6] = 0
        a, b = encode(w), encode(w)
        np.testing.assert_array_equal(a.bitmaps, b.bitmaps)
        np.testing.assert_array_equal(a.values, b.values)

    def test_functional_kernel(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((96, 64)).astype(np.float16)
        w[rng.random((96, 64)) < 0.5] = 0
        x = rng.standard_normal((64, 8)).astype(np.float16)
        kernel = make_kernel("spinfer")
        np.testing.assert_array_equal(kernel.run(w, x), kernel.run(w, x))

    def test_cost_model(self):
        prob = SpMMProblem(m=8192, k=8192, n=16, sparsity=0.6)
        kernel = make_kernel("spinfer")
        a = kernel.profile(prob, RTX4090)
        b = kernel.profile(prob, RTX4090)
        assert a.time_s == b.time_s
        assert a.dram_bytes == b.dram_bytes

    def test_inference_simulation(self):
        cfg = InferenceConfig(model="opt-13b", framework="spinfer",
                              num_gpus=1, batch_size=8, prompt_len=32,
                              output_len=32, sparsity=0.6)
        a = simulate_inference(cfg)
        b = simulate_inference(cfg)
        assert a.total_s == b.total_s
        assert a.memory.total == b.memory.total

    def test_experiments(self):
        a, b = fig03_compression(), fig03_compression()
        assert a.rows == b.rows
        assert a.metrics == b.metrics
        x, y = tab01_ablation(), tab01_ablation()
        assert x.metrics == y.metrics
