"""Tests for the generic sweep utilities."""

import csv
import os

import pytest

from repro.bench.sweeps import export_csv, kernel_sweep
from repro.gpu.specs import A6000


class TestKernelSweep:
    def test_grid_coverage(self):
        exp = kernel_sweep(
            2048, 2048, kernels=("spinfer", "cublas_tc"),
            ns=(8, 16), sparsities=(0.5, 0.7),
        )
        # 2 kernels x 2 N x 2 sparsities.
        assert len(exp.rows) == 8
        assert "geomean_time_us_spinfer" in exp.metrics

    def test_alternate_gpu(self):
        exp = kernel_sweep(2048, 2048, kernels=("spinfer",), ns=(16,),
                           sparsities=(0.6,), gpu=A6000)
        assert "A6000" in exp.title

    def test_validation(self):
        with pytest.raises(ValueError):
            kernel_sweep(64, 64, kernels=())
        with pytest.raises(ValueError):
            kernel_sweep(64, 64, ns=())


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        exp = kernel_sweep(1024, 1024, kernels=("spinfer",), ns=(16,),
                           sparsities=(0.5,))
        path = export_csv(exp, str(tmp_path / "sweep.csv"))
        assert os.path.exists(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == exp.headers
        assert len(rows) == 1 + len(exp.rows)
        assert rows[1][0] == "spinfer"
