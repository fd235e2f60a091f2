"""Tests for Shared Memory Bitmap Decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mma_layout import scatter_a_fragments
from repro.core.smbd import (
    DecodeStats,
    decode_group,
    decode_matrix,
    decode_tctile,
)
from repro.core.tca_bme import encode
from repro.core.tiles import DEFAULT_TILE_CONFIG, TileConfig


def encoded_sparse(m=64, k=64, sparsity=0.5, seed=0, cfg=DEFAULT_TILE_CONFIG):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    return w, encode(w, cfg)


def faithful_group_tile(enc, g=0, stats=None):
    """GroupTile ``g`` decoded lane by lane, scattered out of its fragments."""
    cfg = enc.config
    frags = decode_group(enc.group_bitmaps(g), enc.group_values(g), cfg, stats)
    tile = np.zeros((cfg.gt_h, cfg.gt_w), dtype=np.float16)
    for f, (tr, tc) in zip(frags, cfg.iter_tctiles_in_group()):
        tile[tr : tr + cfg.tt_h, tc : tc + cfg.tt_w] = scatter_a_fragments(f)
    return tile


class TestDecodeTCTile:
    def test_single_tctile_exact(self):
        cfg = TileConfig(gt_h=16, gt_w=16)
        w, enc = encoded_sparse(16, 16, 0.5, seed=1, cfg=cfg)
        frags = decode_tctile(enc.group_bitmaps(0), enc.group_values(0))
        assert np.array_equal(scatter_a_fragments(frags), w)

    def test_empty_tile_all_zero_fragments(self):
        cfg = TileConfig(gt_h=16, gt_w=16)
        _w, enc = encoded_sparse(16, 16, 1.0, seed=2, cfg=cfg)
        frags = decode_tctile(enc.group_bitmaps(0), enc.group_values(0))
        assert not frags.any()

    def test_dense_tile(self):
        cfg = TileConfig(gt_h=16, gt_w=16)
        w, enc = encoded_sparse(16, 16, 0.0, seed=3, cfg=cfg)
        frags = decode_tctile(enc.group_bitmaps(0), enc.group_values(0))
        assert np.array_equal(scatter_a_fragments(frags), w)

    def test_base_offset(self):
        """Values preceding the TCTile's slice shift the load base."""
        cfg = TileConfig(gt_h=16, gt_w=16)
        w, enc = encoded_sparse(16, 16, 0.5, seed=4, cfg=cfg)
        padded = np.concatenate(
            [np.float16([9.0, 9.0]), enc.group_values(0)]
        )
        frags = decode_tctile(enc.group_bitmaps(0), padded, base_offset=2)
        assert np.array_equal(scatter_a_fragments(frags), w)

    def test_rejects_wrong_bitmap_count(self):
        with pytest.raises(ValueError):
            decode_tctile(np.zeros(3, dtype=np.uint64), np.zeros(0, np.float16))

    def test_stats_masked_popcounts(self):
        """Exactly one MaskedPopCount per lane per register (phase II
        reuses phase I — the paper's optimisation)."""
        cfg = TileConfig(gt_h=16, gt_w=16)
        _w, enc = encoded_sparse(16, 16, 0.5, seed=5, cfg=cfg)
        stats = DecodeStats()
        decode_tctile(enc.group_bitmaps(0), enc.group_values(0), stats=stats)
        assert stats.masked_popcount_ops == 32 * 4
        assert stats.popcount_ops == 4
        assert stats.values_decoded + stats.zeros_filled == 16 * 16
        assert stats.shared_loads == stats.values_decoded


class TestDecodeGroup:
    def test_group_matches_dense(self):
        w, enc = encoded_sparse(64, 64, 0.6, seed=6)
        assert np.array_equal(faithful_group_tile(enc), w)

    def test_rejects_partial_tctile(self):
        with pytest.raises(ValueError):
            decode_group(np.zeros(6, dtype=np.uint64), np.zeros(0, np.float16))

    def test_stats_accumulate_across_tiles(self):
        _w, enc = encoded_sparse(64, 64, 0.5, seed=7)
        stats = DecodeStats()
        decode_group(enc.group_bitmaps(0), enc.group_values(0), stats=stats)
        assert stats.popcount_ops == 64  # one per BitmapTile
        assert stats.masked_popcount_ops == 64 * 32
        assert stats.values_decoded == enc.nnz

    def test_stats_merge(self):
        a = DecodeStats(popcount_ops=1, masked_popcount_ops=2, shared_loads=3,
                        values_decoded=3, zeros_filled=4)
        b = DecodeStats(popcount_ops=10, masked_popcount_ops=20, shared_loads=30,
                        values_decoded=30, zeros_filled=40)
        a.merge(b)
        assert a.popcount_ops == 11
        assert a.total_bit_ops == 11 + 22


class TestFastPathEquivalence:
    """The whole-matrix decode against the lane-faithful one."""

    @pytest.mark.parametrize("sparsity", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_fast_equals_faithful(self, sparsity):
        _w, enc = encoded_sparse(64, 64, sparsity, seed=8)
        tiles, _ = decode_matrix(enc.bitmaps, enc.values, 64, 64)
        assert tiles.shape == (1, 1, 64, 64) and tiles.dtype == np.float32
        assert np.array_equal(tiles[0, 0], faithful_group_tile(enc))

    def test_fast_stats_match_closed_form(self):
        _w, enc = encoded_sparse(64, 64, 0.5, seed=9)
        _, stats = decode_matrix(enc.bitmaps, enc.values, 64, 64)
        assert stats.popcount_ops == 64
        assert stats.masked_popcount_ops == 64 * 32
        assert stats.values_decoded == enc.nnz
        assert stats.zeros_filled == 64 * 64 - enc.nnz
        faithful = DecodeStats()
        faithful_group_tile(enc, stats=faithful)
        assert stats == faithful

    @settings(max_examples=15, deadline=None)
    @given(
        sparsity=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=500),
    )
    def test_fast_equals_faithful_property(self, sparsity, seed):
        w, enc = encoded_sparse(64, 64, sparsity, seed=seed)
        tiles, _ = decode_matrix(enc.bitmaps, enc.values, 64, 64)
        assert np.array_equal(tiles[0, 0], w)
