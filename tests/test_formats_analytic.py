"""Tests tying the closed-form storage models to the concrete codecs."""

import numpy as np
import pytest

from repro.formats.analytic import (
    ANALYTIC_STORAGE,
    compression_ratio,
    expected_nnz,
    storage_csr,
    storage_optimal,
    storage_sparta,
    storage_tca_bme,
    storage_tiled_csl,
)
from repro.formats.base import dense_bytes
from repro.formats.registry import encode_as
from repro.formats.sparta import expected_residual_nnz


def random_sparse(m, k, sparsity, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    # Exact-count sparsification so analytic NNZ matches.
    total = m * k
    zeros = int(round(total * sparsity))
    idx = rng.choice(total, size=zeros, replace=False)
    w.reshape(-1)[idx] = 0
    return w


class TestExpectedNNZ:
    def test_exact(self):
        assert expected_nnz(100, 100, 0.4) == 6000

    def test_bounds(self):
        assert expected_nnz(10, 10, 0.0) == 100
        assert expected_nnz(10, 10, 1.0) == 0

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            expected_nnz(10, 10, 1.5)


class TestAnalyticMatchesConcrete:
    """The Fig. 3 curves must agree with what the codecs actually store."""

    M = K = 512

    @pytest.mark.parametrize("sparsity", [0.3, 0.5, 0.7])
    def test_csr(self, sparsity):
        w = random_sparse(self.M, self.K, sparsity, seed=1)
        actual = encode_as("csr", w).storage_bytes()
        assert storage_csr(self.M, self.K, sparsity) == pytest.approx(actual, rel=1e-3)

    @pytest.mark.parametrize("sparsity", [0.3, 0.5, 0.7])
    def test_tiled_csl(self, sparsity):
        w = random_sparse(self.M, self.K, sparsity, seed=2)
        actual = encode_as("tiled-csl", w).storage_bytes()
        assert storage_tiled_csl(self.M, self.K, sparsity) == pytest.approx(
            actual, rel=1e-3
        )

    @pytest.mark.parametrize("sparsity", [0.3, 0.5, 0.7])
    def test_tca_bme(self, sparsity):
        w = random_sparse(self.M, self.K, sparsity, seed=3)
        actual = encode_as("tca-bme", w).storage_bytes()
        assert storage_tca_bme(self.M, self.K, sparsity) == pytest.approx(
            actual, rel=1e-3
        )

    @pytest.mark.parametrize("sparsity", [0.3, 0.5, 0.7])
    def test_sparta_within_statistical_tolerance(self, sparsity):
        """Eq. 4 is an expectation; the concrete split fluctuates."""
        w = random_sparse(self.M, self.K, sparsity, seed=4)
        actual = encode_as("sparta", w).storage_bytes()
        assert storage_sparta(self.M, self.K, sparsity) == pytest.approx(
            actual, rel=0.02
        )


class TestExpectedResidual:
    def test_zero_at_full_sparsity(self):
        assert expected_residual_nnz(100, 100, 1.0) == 0.0

    def test_two_per_group_when_dense(self):
        # All four elements present -> 2 overflows per group.
        assert expected_residual_nnz(4, 4, 0.0) == pytest.approx(8.0)

    def test_matches_empirical(self):
        m = k = 1024
        s = 0.5
        w = random_sparse(m, k, s, seed=5)
        sp = encode_as("sparta", w)
        expected = expected_residual_nnz(m, k, s)
        assert sp.residual.nnz == pytest.approx(expected, rel=0.05)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            expected_residual_nnz(8, 8, -0.1)


class TestFig3Claims:
    """The compression-ratio orderings the paper's Fig. 3 shows."""

    M = K = 4096

    def test_csr_below_one_under_50(self):
        for s in (0.3, 0.4, 0.5):
            assert compression_ratio("csr", self.M, self.K, s) < 1.0

    def test_tiled_csl_below_one_under_50(self):
        for s in (0.3, 0.4, 0.45):
            assert compression_ratio("tiled-csl", self.M, self.K, s) < 1.0

    def test_sparta_slightly_above_one_at_50(self):
        cr = compression_ratio("sparta", self.M, self.K, 0.5)
        assert 1.0 < cr < 1.5

    def test_tca_bme_above_one_even_at_30(self):
        assert compression_ratio("tca-bme", self.M, self.K, 0.3) > 1.0

    def test_tca_bme_below_optimal(self):
        for s in (0.3, 0.5, 0.7):
            tca = compression_ratio("tca-bme", self.M, self.K, s)
            opt = compression_ratio("optimal", self.M, self.K, s)
            assert tca < opt

    def test_tca_bme_dominates_baselines(self):
        for s in (0.3, 0.5, 0.7):
            tca = compression_ratio("tca-bme", self.M, self.K, s)
            for fmt in ("csr", "tiled-csl", "sparta"):
                assert tca > compression_ratio(fmt, self.M, self.K, s)

    def test_csr_beats_bitmap_at_extreme_sparsity(self):
        """Paper Section 6: bitmap overhead dominates beyond ~90%."""
        s = 0.99
        assert compression_ratio("csr", self.M, self.K, s) > compression_ratio(
            "tca-bme", self.M, self.K, s
        )

    def test_all_registry_entries_callable(self):
        for fmt, fn in ANALYTIC_STORAGE.items():
            assert fn(self.M, self.K, 0.5) > 0, fmt

    def test_optimal_is_pure_values(self):
        assert storage_optimal(100, 100, 0.4) == 2.0 * 6000
        assert dense_bytes(100, 100) == 20000
