"""GPU substrate: device specs, memory/occupancy/roofline models, and the
mechanistic kernel cost simulator standing in for RTX4090/A6000 silicon."""

from .accelerators import (
    ACCELERATORS,
    AcceleratorSpec,
    cross_accelerator_cr,
    get_accelerator,
)
from .cache import CacheStats, SetAssociativeCache, x_panel_dram_bytes
from .calibration import CALIBRATIONS, KernelCalibration, get_calibration
from .memory import expected_random_scatter_replays
from .occupancy import OccupancyResult, occupancy
from .pipeline import PipelineConfig, PipelineTrace, TaskEvent, simulate_pipeline
from .roofline import (
    RooflinePoint,
    attainable_tflops,
    ci_gemm,
    ci_optimal,
    ci_spmm,
    is_memory_bound,
    roofline_point,
)
from .simulator import KernelProfile, LaunchShape, Traffic, Work, simulate_kernel
from .smbd_program import (
    build_naive_decode,
    build_two_phase_decode,
    run_bitmaptile_decode,
)
from .specs import (
    A100_SXM,
    A6000,
    GPUS,
    H100_PCIE,
    RTX3090,
    RTX4090,
    GPUSpec,
    get_gpu,
)
from .tensor_core import mma_m16n8k16, warp_tile_matmul
from .warp_sim import Instr, WarpProgram, WarpResult, WarpSimulator

__all__ = [
    "A100_SXM",
    "ACCELERATORS",
    "AcceleratorSpec",
    "PipelineConfig",
    "PipelineTrace",
    "TaskEvent",
    "cross_accelerator_cr",
    "get_accelerator",
    "simulate_pipeline",
    "Instr",
    "WarpProgram",
    "WarpResult",
    "WarpSimulator",
    "build_naive_decode",
    "build_two_phase_decode",
    "run_bitmaptile_decode",
    "CacheStats",
    "SetAssociativeCache",
    "x_panel_dram_bytes",
    "A6000",
    "H100_PCIE",
    "RTX3090",
    "CALIBRATIONS",
    "GPUS",
    "GPUSpec",
    "KernelCalibration",
    "KernelProfile",
    "LaunchShape",
    "OccupancyResult",
    "RTX4090",
    "RooflinePoint",
    "Traffic",
    "Work",
    "attainable_tflops",
    "ci_gemm",
    "ci_optimal",
    "ci_spmm",
    "expected_random_scatter_replays",
    "get_calibration",
    "get_gpu",
    "is_memory_bound",
    "mma_m16n8k16",
    "occupancy",
    "roofline_point",
    "simulate_kernel",
    "warp_tile_matmul",
]
