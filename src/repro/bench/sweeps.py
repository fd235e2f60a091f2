"""Generic parameter-sweep utilities.

The figure benches fix the paper's exact parameters; these helpers let a
user sweep *their* shapes — any kernels x N x sparsity grid on any
modelled GPU — and export the result for external plotting.
"""

from __future__ import annotations

import csv
import os
from typing import List, Sequence

from ..gpu.specs import GPUSpec, RTX4090
from ..kernels import make_kernel
from ..kernels.base import SpMMProblem
from .harness import Experiment, geomean

__all__ = ["kernel_sweep", "export_csv"]


def kernel_sweep(
    m: int,
    k: int,
    kernels: Sequence[str] = ("spinfer", "flash_llm", "cublas_tc"),
    ns: Sequence[int] = (8, 16, 32),
    sparsities: Sequence[float] = (0.4, 0.5, 0.6, 0.7),
    gpu: GPUSpec = RTX4090,
) -> Experiment:
    """Profile each kernel over the (N, sparsity) grid for one shape."""
    if not kernels:
        raise ValueError("need at least one kernel")
    if not ns or not sparsities:
        raise ValueError("need at least one N and one sparsity")
    instances = {name: make_kernel(name) for name in kernels}

    rows: List[List[object]] = []
    per_kernel: dict = {name: [] for name in kernels}
    for s in sparsities:
        for n in ns:
            problem = SpMMProblem(m=m, k=k, n=n, sparsity=s)
            for name in kernels:  # caller's order, not dict hash order
                p = instances[name].profile(problem, gpu)
                rows.append(
                    [name, s, n, p.time_us, p.dram_bytes / 1e6,
                     p.bandwidth_utilization, p.tc_utilization]
                )
                per_kernel[name].append(p.time_s)
    metrics = {
        f"geomean_time_us_{name}": geomean([t * 1e6 for t in times])
        for name, times in per_kernel.items()
    }
    return Experiment(
        exp_id="sweep",
        title=f"Kernel sweep: M={m} K={k} on {gpu.name}",
        headers=["kernel", "sparsity", "N", "time_us", "dram_MB", "bw_util", "tc_util"],
        rows=rows,
        metrics=metrics,
    )


def export_csv(experiment: Experiment, path: str) -> str:
    """Write an experiment's rows as CSV; returns the path written."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(experiment.headers)
        writer.writerows(experiment.rows)
    return path
