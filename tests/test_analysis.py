"""Tests for sparsity-structure analysis and the report generator."""

from pathlib import Path

import numpy as np
import pytest

from repro.pruning import clustered_mask, uniform_mask, wanda_prune
from repro.pruning.analysis import (
    analyze_matrix,
    bitmaptile_occupancy_histogram,
    grouptile_load_imbalance,
)


def uniform_matrix(m=256, k=256, sparsity=0.6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[~uniform_mask(m, k, sparsity, seed=seed + 1)] = 0
    return w


class TestAnalyzeMatrix:
    def test_profile_fields(self):
        w = uniform_matrix()
        p = analyze_matrix(w)
        assert p.shape == (256, 256)
        assert p.sparsity == pytest.approx(0.6, abs=0.01)
        assert p.grouptile_nnz_mean > 0
        assert p.grouptile_nnz_max >= p.grouptile_nnz_mean
        assert p.load_imbalance >= 1.0
        assert p.alignment_waste_bytes >= 0

    def test_uniform_matrix_well_balanced(self):
        p = analyze_matrix(uniform_matrix())
        assert p.load_imbalance < 1.2
        assert p.row_sparsity_std < 0.1

    def test_per_row_pruning_zero_row_variance(self):
        rng = np.random.default_rng(1)
        w = wanda_prune(rng.standard_normal((128, 128)).astype(np.float16), 0.5)
        p = analyze_matrix(w)
        # Wanda prunes exactly the same count per row.
        assert p.row_sparsity_std == pytest.approx(0.0, abs=1e-9)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            analyze_matrix(np.zeros(16))


class TestHistogram:
    def test_uniform_matches_binomial_mean(self):
        w = uniform_matrix(512, 512, sparsity=0.5, seed=2)
        hist = bitmaptile_occupancy_histogram(w)
        total_tiles = sum(hist.values())
        mean = sum(c * n for c, n in hist.items()) / total_tiles
        assert mean == pytest.approx(32.0, abs=1.0)  # 64 * density

    def test_clustered_mass_at_extremes(self):
        mask = clustered_mask(256, 256, 0.75, block=16, seed=3)
        w = np.where(mask, np.float16(1.0), np.float16(0.0))
        hist = bitmaptile_occupancy_histogram(w)
        # Blocks are either empty (0) or full (64); nothing in between.
        assert set(hist) <= {0, 64}

    def test_counts_sum_to_tile_count(self):
        w = uniform_matrix(128, 128, seed=4)
        hist = bitmaptile_occupancy_histogram(w)
        assert sum(hist.values()) == (128 // 8) * (128 // 8)


class TestLoadImbalance:
    def test_uniform_near_one(self):
        assert grouptile_load_imbalance(uniform_matrix(seed=5)) < 1.25

    def test_clustered_much_higher(self):
        mask = clustered_mask(256, 256, 0.9, block=16, seed=6)
        w = np.where(mask, np.float16(1.0), np.float16(0.0))
        assert grouptile_load_imbalance(w) > 1.5

    def test_empty_matrix(self):
        assert grouptile_load_imbalance(np.zeros((64, 64), np.float16)) == 1.0


class TestReport:
    def test_generate_report_subset(self, tmp_path, monkeypatch):
        """Run the report over a small experiment subset."""
        from repro.bench import fig03_compression, tab01_ablation
        from repro.bench.report import generate_report

        text = generate_report(
            {"fig03": fig03_compression, "tab01": tab01_ablation}
        )
        assert "# SpInfer reproduction report" in text
        assert "fig03" in text and "tab01" in text
        assert "| tab01 |" in text  # headline row present

    def test_misspelled_anchor_raises(self, monkeypatch):
        """A headline row cannot silently vanish: an anchor naming a
        metric its experiment lacks fails, listing the real ones."""
        from repro.bench import fig03_compression, report

        monkeypatch.setitem(
            report.PAPER_ANCHORS, "fig03",
            ("tca_bme_cr_at_5O", 1.78, "TCA-BME compression ratio at 50%"),
        )
        with pytest.raises(KeyError, match="tca_bme_cr_at_50"):
            report.generate_report({"fig03": fig03_compression})

    def test_write_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.bench import fig03_compression
        from repro.bench.report import write_report

        # Patch the registry to keep the test fast.
        import repro.cli as cli

        monkeypatch.setattr(cli, "EXPERIMENTS", {"fig03": fig03_compression})
        path = write_report()
        assert path == str(Path("results") / "REPORT.md")
        with open(tmp_path / path) as fh:
            assert "fig03" in fh.read()
