"""Tests for the pruning-quality proxies."""

import numpy as np
import pytest

from repro.llm.accuracy import (
    accuracy_sweep,
    layer_reconstruction_error,
    logit_kl_divergence,
    top1_agreement,
)
from repro.llm.functional_model import FunctionalTransformer, TinyConfig
from repro.pruning.magnitude import magnitude_prune
from repro.pruning.wanda import synthetic_activations, wanda_prune


class TestLayerError:
    def test_zero_for_identical(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((32, 16)).astype(np.float16)
        acts = synthetic_activations(16, samples=64, seed=1)
        assert layer_reconstruction_error(w, w, acts) == 0.0

    def test_grows_with_sparsity(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((64, 64)).astype(np.float16)
        acts = synthetic_activations(64, samples=128, seed=3)
        errs = [
            layer_reconstruction_error(w, magnitude_prune(w, s, per_row=True), acts)
            for s in (0.3, 0.5, 0.7)
        ]
        assert errs == sorted(errs)

    def test_wanda_beats_magnitude_under_outliers(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((64, 96)).astype(np.float16)
        acts = synthetic_activations(96, samples=256, outlier_scale=2.0, seed=5)
        err_mag = layer_reconstruction_error(
            w, magnitude_prune(w, 0.6, per_row=True), acts
        )
        err_wanda = layer_reconstruction_error(w, wanda_prune(w, 0.6, acts), acts)
        assert err_wanda < err_mag

    def test_validation(self):
        with pytest.raises(ValueError):
            layer_reconstruction_error(
                np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((4, 2))
            )
        with pytest.raises(ValueError):
            layer_reconstruction_error(
                np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((4, 3))
            )


class TestModelProxies:
    @pytest.fixture(scope="class")
    def models(self):
        cfg = TinyConfig(num_layers=1, vocab_size=256)
        ref = FunctionalTransformer(cfg, seed=0)
        pruned = FunctionalTransformer(cfg, seed=0)
        pruned.prune(0.5)
        return ref, pruned

    def _prompts(self, n=2):
        rng = np.random.default_rng(6)
        return [rng.integers(0, 256, size=12).astype(np.int64) for _ in range(n)]

    def test_kl_zero_against_self(self, models):
        ref, _ = models
        assert logit_kl_divergence(ref, ref, self._prompts()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_kl_positive_for_pruned(self, models):
        ref, pruned = models
        assert logit_kl_divergence(ref, pruned, self._prompts()) > 0

    def test_agreement_bounds(self, models):
        ref, pruned = models
        a = top1_agreement(ref, pruned, self._prompts())
        assert 0.0 <= a <= 1.0
        assert top1_agreement(ref, ref, self._prompts()) == 1.0

    def test_empty_prompts_rejected(self, models):
        ref, pruned = models
        with pytest.raises(ValueError):
            logit_kl_divergence(ref, pruned, [])
        with pytest.raises(ValueError):
            top1_agreement(ref, pruned, [])


class TestSweep:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown pruning methods"):
            accuracy_sweep(methods=("lottery",))

    def test_sweep_shape_and_trends(self):
        cfg = TinyConfig(num_layers=1, vocab_size=256, hidden_size=32,
                         num_heads=2, ffn_size=64)
        records = accuracy_sweep(
            sparsities=(0.3, 0.6), methods=("magnitude", "wanda"),
            config=cfg, num_prompts=2, prompt_len=12,
        )
        assert len(records) == 4
        by_key = {(r["method"], r["sparsity"]): r for r in records}
        # Divergence grows with sparsity for each method.
        for method in ("magnitude", "wanda"):
            assert by_key[(method, 0.6)]["kl"] > by_key[(method, 0.3)]["kl"]
        # Agreement stays bounded.
        for r in records:
            assert 0.0 <= r["top1"] <= 1.0
