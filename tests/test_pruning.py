"""Tests for the pruning algorithms and pattern generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pruning.magnitude import magnitude_mask, magnitude_prune
from repro.pruning.patterns import (
    apply_mask,
    banded_mask,
    block_occupancy,
    clustered_mask,
    measured_sparsity,
    semi_structured_mask,
    uniform_mask,
)
from repro.pruning.sparsegpt import hessian_inverse, sparsegpt_prune
from repro.pruning.wanda import (
    synthetic_activations,
    wanda_mask,
    wanda_prune,
    wanda_scores,
)


class TestUniformMask:
    def test_exact_count(self):
        mask = uniform_mask(100, 100, 0.37, seed=0)
        assert mask.sum() == 6300

    def test_deterministic(self):
        a = uniform_mask(64, 64, 0.5, seed=7)
        b = uniform_mask(64, 64, 0.5, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = uniform_mask(64, 64, 0.5, seed=1)
        b = uniform_mask(64, 64, 0.5, seed=2)
        assert not np.array_equal(a, b)

    def test_bounds(self):
        assert uniform_mask(8, 8, 0.0).all()
        assert not uniform_mask(8, 8, 1.0).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_mask(0, 8, 0.5)
        with pytest.raises(ValueError):
            uniform_mask(8, 8, 1.5)

    @settings(max_examples=20, deadline=None)
    @given(sparsity=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=100))
    def test_sparsity_property(self, sparsity, seed):
        mask = uniform_mask(50, 40, sparsity, seed)
        expected = round(2000 * (1 - sparsity))
        assert mask.sum() == expected


class TestSemiStructuredMask:
    def test_exact_2_of_4(self):
        mask = semi_structured_mask(32, 64, seed=3)
        groups = mask.reshape(32, 16, 4)
        assert (groups.sum(axis=2) == 2).all()

    def test_custom_nm(self):
        mask = semi_structured_mask(8, 16, n_keep=1, m_group=4, seed=4)
        assert (mask.reshape(8, 4, 4).sum(axis=2) == 1).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            semi_structured_mask(8, 10)  # K not multiple of 4
        with pytest.raises(ValueError):
            semi_structured_mask(8, 8, n_keep=5, m_group=4)


class TestClusteredMask:
    def test_whole_blocks(self):
        mask = clustered_mask(64, 64, 0.75, block=16, seed=5)
        grid = mask.reshape(4, 16, 4, 16)
        per_block = grid.sum(axis=(1, 3))
        assert set(np.unique(per_block)) <= {0, 256}

    def test_block_count(self):
        mask = clustered_mask(64, 64, 0.75, block=16, seed=6)
        assert block_occupancy(mask.astype(np.float16), block=16) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            clustered_mask(60, 64, 0.5, block=16)


class TestBandedMask:
    def test_square_band(self):
        mask = banded_mask(8, 8, 1)
        assert mask[0, 0] and mask[0, 1]
        assert not mask[0, 3]
        assert mask[7, 7]

    def test_zero_bandwidth_is_diagonal(self):
        mask = banded_mask(8, 8, 0)
        assert np.array_equal(mask, np.eye(8, dtype=bool))

    def test_validation(self):
        with pytest.raises(ValueError):
            banded_mask(8, 8, -1)


class TestMaskHelpers:
    def test_apply_mask(self):
        w = np.ones((4, 4), dtype=np.float16)
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        out = apply_mask(w, mask)
        assert out[0, 0] == 1 and out.sum() == 1
        assert out.dtype == np.float16

    def test_apply_mask_shape_check(self):
        with pytest.raises(ValueError):
            apply_mask(np.ones((2, 2)), np.ones((3, 3), bool))

    def test_measured_sparsity(self):
        w = np.zeros((10, 10), dtype=np.float16)
        w[0, :5] = 1
        assert measured_sparsity(w) == pytest.approx(0.95)

    def test_block_occupancy_irregular_shape(self):
        w = np.zeros((20, 20), dtype=np.float16)
        w[0, 0] = 1.0
        assert block_occupancy(w, block=16) == pytest.approx(1 / 4)


class TestMagnitude:
    def test_keeps_largest_global(self):
        w = np.array([[1.0, -4.0], [2.0, 0.5]], dtype=np.float16)
        mask = magnitude_mask(w, 0.5)
        assert mask[0, 1] and mask[1, 0]  # |−4| and |2| survive
        assert not mask[0, 0] and not mask[1, 1]

    def test_per_row_quota(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((16, 32)).astype(np.float16)
        mask = magnitude_mask(w, 0.25, per_row=True)
        assert (mask.sum(axis=1) == 24).all()

    def test_prune_zeroes_dropped(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((32, 32)).astype(np.float16)
        pruned = magnitude_prune(w, 0.5)
        assert measured_sparsity(pruned) == pytest.approx(0.5, abs=0.01)
        kept = pruned[pruned != 0]
        dropped_max = np.abs(w[pruned == 0]).max()
        assert np.abs(kept).min() >= dropped_max - 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            magnitude_mask(np.zeros(4), 0.5)
        with pytest.raises(ValueError):
            magnitude_mask(np.zeros((2, 2)), 2.0)


class TestWanda:
    def test_scores_formula(self):
        w = np.array([[1.0, 2.0]], dtype=np.float16)
        x = np.array([[3.0, 0.0], [4.0, 1.0]], dtype=np.float32)
        scores = wanda_scores(w, x)
        assert scores[0, 0] == pytest.approx(5.0)  # 1 * ||(3,4)||
        assert scores[0, 1] == pytest.approx(2.0)  # 2 * ||(0,1)||

    def test_differs_from_magnitude_with_outlier_channels(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((64, 128)).astype(np.float16)
        acts = synthetic_activations(128, outlier_scale=2.0, seed=11)
        m_wanda = wanda_mask(w, 0.5, acts)
        m_mag = magnitude_mask(w, 0.5, per_row=True)
        assert not np.array_equal(m_wanda, m_mag)

    def test_per_row_quota(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((16, 64)).astype(np.float16)
        mask = wanda_mask(w, 0.5, seed=13)
        assert (mask.sum(axis=1) == 32).all()

    def test_prune_respects_saliency(self):
        """Weights on dead input channels are pruned first."""
        w = np.ones((4, 8), dtype=np.float16)
        acts = np.zeros((16, 8), dtype=np.float32)
        acts[:, :4] = 1.0  # channels 4..7 are dead
        pruned = wanda_prune(w, 0.5, acts)
        assert (pruned[:, :4] != 0).all()
        assert (pruned[:, 4:] == 0).all()

    def test_synthetic_activations_shape_and_determinism(self):
        a = synthetic_activations(32, samples=64, seed=1)
        b = synthetic_activations(32, samples=64, seed=1)
        assert a.shape == (64, 32)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            wanda_scores(np.ones((2, 4)), np.ones((8, 3)))
        with pytest.raises(ValueError):
            synthetic_activations(0)


class TestSparseGPT:
    def test_target_sparsity(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((32, 128)).astype(np.float16)
        pruned = sparsegpt_prune(w, 0.5, block_size=32, seed=15)
        assert measured_sparsity(pruned) == pytest.approx(0.5, abs=0.02)

    def test_lower_reconstruction_error_than_magnitude(self):
        """The OBS update must beat naive magnitude pruning on output
        reconstruction over the calibration set."""
        rng = np.random.default_rng(16)
        w = rng.standard_normal((48, 96)).astype(np.float16)
        acts = synthetic_activations(96, samples=256, outlier_scale=1.0, seed=17)
        pruned_sg = sparsegpt_prune(w, 0.6, acts, block_size=32)
        pruned_mag = magnitude_prune(w, 0.6, per_row=True)
        ref = acts @ w.astype(np.float64).T
        err_sg = np.linalg.norm(acts @ pruned_sg.astype(np.float64).T - ref)
        err_mag = np.linalg.norm(acts @ pruned_mag.astype(np.float64).T - ref)
        assert err_sg < err_mag

    def test_hessian_inverse_properties(self):
        acts = synthetic_activations(16, samples=64, seed=18)
        hinv = hessian_inverse(acts)
        assert hinv.shape == (16, 16)
        np.testing.assert_allclose(hinv, hinv.T, rtol=1e-8, atol=1e-10)
        # positive definite
        assert (np.linalg.eigvalsh(hinv) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            sparsegpt_prune(np.zeros(4), 0.5)
        with pytest.raises(ValueError):
            sparsegpt_prune(np.zeros((4, 4)), 0.5, block_size=0)
        with pytest.raises(ValueError):
            hessian_inverse(np.zeros(4))
