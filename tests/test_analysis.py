"""Tests for the report generator."""

from pathlib import Path

import pytest


class TestReport:
    def test_generate_report_subset(self, tmp_path, monkeypatch):
        """Run the report over a small experiment subset."""
        from repro.bench.format_bench import fig03_compression
        from repro.bench.kernel_bench import tab01_ablation
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
        from repro.bench import report
        from repro.bench.format_bench import fig03_compression

        monkeypatch.setitem(
            report.PAPER_ANCHORS, "fig03",
            ("tca_bme_cr_at_5O", 1.78, "TCA-BME compression ratio at 50%"),
        )
        with pytest.raises(KeyError, match="tca_bme_cr_at_50"):
            report.generate_report({"fig03": fig03_compression})

    def test_write_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        import repro.cli as cli
        from repro.bench.format_bench import fig03_compression
        from repro.bench.report import write_report

        # Patch the registry to keep the test fast.
        monkeypatch.setattr(cli, "EXPERIMENTS", {"fig03": fig03_compression})
        path = write_report()
        assert path == str(Path("results") / "REPORT.md")
        with open(tmp_path / path) as fh:
            assert "fig03" in fh.read()
