"""Tests for direct format conversions (no dense round trip)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tca_bme import encode
from repro.core.tiles import TileConfig
from repro.formats.conversion import (
    coords_to_storage_position,
    csr_to_tca_bme,
    storage_position_to_coords,
    tca_bme_to_csr,
    tiled_csl_to_tca_bme,
)
from repro.formats.csr import CSRMatrix
from repro.formats.tiled_csl import TiledCSLMatrix


def random_sparse(m, k, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    return w


def assert_same_encoding(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.gtile_offsets, b.gtile_offsets)
    np.testing.assert_array_equal(a.bitmaps, b.bitmaps)
    np.testing.assert_array_equal(a.values, b.values)


class TestCoordinateMapping:
    def test_matches_tile_walk(self):
        """The closed form agrees with the enumerated tile walk."""
        from repro.core.tiles import DEFAULT_TILE_CONFIG as cfg

        m, k = 128, 192
        walk = {}
        for idx, (r0, c0) in enumerate(cfg.iter_bitmaptiles(m, k)):
            walk[(r0, c0)] = idx
        rng = np.random.default_rng(1)
        rows = rng.integers(0, m, size=200)
        cols = rng.integers(0, k, size=200)
        tile_idx, bit = coords_to_storage_position(rows, cols, m, k)
        for r, c, t, b in zip(rows, cols, tile_idx, bit):
            origin = (r // 8 * 8, c // 8 * 8)
            assert walk[origin] == t
            assert b == (r % 8) * 8 + c % 8

    def test_round_trip(self):
        m, k = 100, 140
        rng = np.random.default_rng(2)
        rows = rng.integers(0, m, size=500)
        cols = rng.integers(0, k, size=500)
        t, b = coords_to_storage_position(rows, cols, m, k)
        r2, c2 = storage_position_to_coords(t, b, m, k)
        np.testing.assert_array_equal(r2, rows)
        np.testing.assert_array_equal(c2, cols)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            coords_to_storage_position([0], [999], 8, 8)
        with pytest.raises(ValueError):
            coords_to_storage_position([0, 1], [0], 8, 8)


class TestCSRConversion:
    @pytest.mark.parametrize("shape", [(64, 64), (128, 96), (70, 90)])
    def test_matches_reference_encoder(self, shape):
        w = random_sparse(*shape, seed=shape[0])
        via_csr = csr_to_tca_bme(CSRMatrix.from_dense(w))
        direct = encode(w)
        assert_same_encoding(via_csr, direct)

    def test_custom_config(self):
        cfg = TileConfig(gt_h=32, gt_w=64)
        w = random_sparse(96, 128, seed=3)
        via_csr = csr_to_tca_bme(CSRMatrix.from_dense(w), cfg)
        assert_same_encoding(via_csr, encode(w, cfg))

    def test_empty_matrix(self):
        w = np.zeros((64, 64), dtype=np.float16)
        via_csr = csr_to_tca_bme(CSRMatrix.from_dense(w))
        assert via_csr.nnz == 0
        assert not via_csr.to_dense().any()

    def test_reverse_direction(self):
        w = random_sparse(96, 64, seed=4)
        enc = encode(w)
        csr = tca_bme_to_csr(enc)
        assert np.array_equal(csr.to_dense(), w)
        # CSR invariants hold (columns sorted within rows).
        for r in range(csr.m):
            cols, _vals = csr.row_slice(r)
            assert (np.diff(cols) > 0).all() if cols.size > 1 else True

    def test_full_cycle(self):
        w = random_sparse(64, 128, seed=5)
        enc = encode(w)
        back = csr_to_tca_bme(tca_bme_to_csr(enc))
        assert_same_encoding(enc, back)

    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=80),
        k=st.integers(min_value=1, max_value=80),
        sparsity=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_conversion_property(self, m, k, sparsity, seed):
        w = random_sparse(m, k, sparsity, seed)
        assert_same_encoding(csr_to_tca_bme(CSRMatrix.from_dense(w)), encode(w))


class TestTiledCSLConversion:
    def test_matches_reference_encoder(self):
        w = random_sparse(128, 128, seed=6)
        via_tcsl = tiled_csl_to_tca_bme(TiledCSLMatrix.from_dense(w))
        assert_same_encoding(via_tcsl, encode(w))

    def test_irregular_shape(self):
        w = random_sparse(100, 70, seed=7)
        via_tcsl = tiled_csl_to_tca_bme(TiledCSLMatrix.from_dense(w))
        assert_same_encoding(via_tcsl, encode(w))

    def test_custom_source_tiles(self):
        w = random_sparse(96, 96, seed=8)
        tcsl = TiledCSLMatrix.from_dense(w, tile_shape=(32, 16))
        assert_same_encoding(tiled_csl_to_tca_bme(tcsl), encode(w))
