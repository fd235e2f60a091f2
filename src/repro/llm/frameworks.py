"""Inference-framework presets (paper Section 5.2 baselines).

Each preset fixes which linear-layer kernel runs the matmuls, how the
weights are stored, and a framework-level overhead factor covering the
non-GEMM machinery (kernel launches, layernorms, Python/engine glue)
relative to FasterTransformer's tight C++ runtime:

* **SpInfer** — TCA-BME weights, SpInfer-SpMM linears, integrated into
  FasterTransformer (so the same low overhead).
* **Flash-LLM** — Tiled-CSL weights, Flash-LLM SpMM, also FT-integrated.
* **FasterTransformer** — dense FP16 + cuBLAS.
* **DeepSpeed** — dense FP16 + cuBLAS; its inference engine carries
  measurably more per-layer overhead than FT on these models (the paper
  reports FT ahead of DS throughout Figs. 13-14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..kernels import make_kernel
from ..kernels.base import SpMMKernel

__all__ = ["FrameworkPreset", "FRAMEWORKS", "get_framework"]


@dataclass(frozen=True)
class FrameworkPreset:
    """One inference stack: storage format + linear kernel + overheads."""

    name: str
    kernel_name: str
    weight_format: str  # key into repro.llm.memory.WEIGHT_FORMATS
    supports_sparsity: bool
    #: Multiplier on non-GEMM per-layer time relative to FasterTransformer.
    overhead_factor: float = 1.0

    def make_kernel(self) -> SpMMKernel:
        return make_kernel(self.kernel_name)


FRAMEWORKS: Dict[str, FrameworkPreset] = {
    f.name: f
    for f in (
        FrameworkPreset(
            name="spinfer",
            kernel_name="spinfer",
            weight_format="tca-bme",
            supports_sparsity=True,
        ),
        FrameworkPreset(
            name="flash-llm",
            kernel_name="flash_llm",
            weight_format="tiled-csl",
            supports_sparsity=True,
        ),
        FrameworkPreset(
            name="fastertransformer",
            kernel_name="cublas_tc",
            weight_format="dense",
            supports_sparsity=False,
        ),
        FrameworkPreset(
            name="deepspeed",
            kernel_name="cublas_tc",
            weight_format="dense",
            supports_sparsity=False,
            overhead_factor=1.6,
        ),
    )
}


def get_framework(name: str) -> FrameworkPreset:
    """Look up a framework preset by name."""
    try:
        return FRAMEWORKS[name]
    except KeyError:
        raise KeyError(
            f"unknown framework {name!r}; available: {sorted(FRAMEWORKS)}"
        ) from None
