"""Tests for the sparse-format invariant validator."""

import numpy as np
import pytest

from repro.analysis.format_lint import lint_format
from repro.core.tca_bme import encode
from repro.formats.csr import CSRMatrix
from repro.formats.tiled_csl import TiledCSLMatrix


def sparse_matrix(m=100, k=72, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    return w


def rule_ids(findings):
    return {f.rule_id for f in findings}


class TestCleanContainers:
    @pytest.mark.parametrize("shape", [(64, 64), (100, 72), (128, 40)])
    def test_tca_bme_clean(self, shape):
        assert lint_format(encode(sparse_matrix(*shape))) == []

    def test_tiled_csl_clean(self):
        assert lint_format(TiledCSLMatrix.from_dense(sparse_matrix())) == []

    def test_csr_clean(self):
        assert lint_format(CSRMatrix.from_dense(sparse_matrix())) == []

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            lint_format(np.zeros((4, 4)))


class TestTCABMEMutations:
    def test_f002_popcount_mismatch(self):
        # Seeded mutation: flip a bitmap bit so the GroupTile's popcount
        # no longer matches its Values slice length.
        enc = encode(sparse_matrix())
        enc.bitmaps = enc.bitmaps.copy()
        enc.bitmaps[0] ^= np.uint64(1) << np.uint64(63)
        findings = lint_format(enc)
        assert "F002" in rule_ids(findings)
        f002 = [f for f in findings if f.rule_id == "F002"]
        assert f002[0].location == 0  # the mutated GroupTile

    def test_f001_non_monotone_offsets(self):
        enc = encode(sparse_matrix())
        enc.gtile_offsets = enc.gtile_offsets.copy()
        enc.gtile_offsets[1] = enc.gtile_offsets[2] + 5
        assert "F001" in rule_ids(lint_format(enc))

    def test_f001_last_offset_mismatch(self):
        enc = encode(sparse_matrix())
        enc.values = enc.values[:-3]
        assert "F001" in rule_ids(lint_format(enc))

    def test_f005_bitmap_count_mismatch(self):
        enc = encode(sparse_matrix())
        enc.bitmaps = enc.bitmaps[:-1]
        assert "F005" in rule_ids(lint_format(enc))

    def test_f004_explicit_zero_value(self):
        enc = encode(sparse_matrix())
        enc.values = enc.values.copy()
        enc.values[0] = 0  # stored but decodes to a zero: density lies
        findings = lint_format(enc)
        assert rule_ids(findings) == {"F004"}


class TestTiledCSLMutations:
    def test_f005_location_escapes_tile(self):
        t = TiledCSLMatrix.from_dense(sparse_matrix())
        t.locations = t.locations.copy()
        t.locations[0] = 64 * 64  # one past the last tile cell
        assert "F005" in rule_ids(lint_format(t))

    def test_f001_offsets(self):
        t = TiledCSLMatrix.from_dense(sparse_matrix())
        t.tile_offsets = t.tile_offsets.copy()
        t.tile_offsets[0] = 1
        assert "F001" in rule_ids(lint_format(t))


class TestCSRMutations:
    def test_f005_column_escapes_k(self):
        c = CSRMatrix.from_dense(sparse_matrix())
        c.col_idx = c.col_idx.copy()
        c.col_idx[0] = c.k
        assert "F005" in rule_ids(lint_format(c))

    def test_f001_row_ptr_decreases(self):
        c = CSRMatrix.from_dense(sparse_matrix())
        c.row_ptr = c.row_ptr.copy()
        c.row_ptr[5] = c.row_ptr[6] + 2
        assert "F001" in rule_ids(lint_format(c))

    def test_f004_duplicate_column_loses_a_value(self):
        c = CSRMatrix.from_dense(sparse_matrix())
        cols, _ = c.row_slice(0)
        if cols.size >= 2:  # collapse two entries onto one cell
            c.col_idx = c.col_idx.copy()
            c.col_idx[1] = c.col_idx[0]
            assert "F004" in rule_ids(lint_format(c))
