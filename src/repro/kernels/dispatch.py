"""Cost-model-driven kernel selection.

A deployment rarely wants one kernel unconditionally: Fig. 10 says
SpInfer for decode shapes, Fig. 16 says dense GEMM once the batch turns
the matmul compute-bound, and Fig. 11 says block-skipping kernels for
clustered scientific sparsity.  The dispatcher encodes that decision the
way the cost model justifies it — predict every candidate, pick the
fastest — with a flag for whether a dense weight copy even exists (the
cuBLAS path needs one, and keeping it doubles weight memory).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from ..gpu.simulator import KernelProfile
from ..gpu.specs import GPUSpec, RTX4090
from . import make_kernel
from .base import SpMMKernel, SpMMProblem

__all__ = ["DispatchDecision", "KernelDispatcher"]

#: Kernels consuming the sparse encoding (no dense copy required).
_SPARSE_CANDIDATES = ("spinfer", "flash_llm", "sparta", "sputnik", "smat")


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome of one dispatch query."""

    kernel_name: str
    profile: KernelProfile
    #: Predicted time of the runner-up, for margin reporting.
    runner_up: Optional[str]
    runner_up_time_s: Optional[float]

    @property
    def margin(self) -> float:
        """How much slower the runner-up is (1.0 = tie)."""
        if self.runner_up_time_s is None:
            return 1.0
        return self.runner_up_time_s / self.profile.time_s


class KernelDispatcher:
    """Selects the fastest kernel per problem from cost-model profiles."""

    def __init__(
        self,
        gpu: GPUSpec = RTX4090,
        candidates: Sequence[str] = _SPARSE_CANDIDATES,
        dense_weights_available: bool = False,
        verify: bool = False,
    ):
        if not candidates:
            raise ValueError("need at least one candidate kernel")
        self.gpu = gpu
        #: When True every candidate is costed *with* its ABFT
        #: verification pass (checksum-row product + output column
        #: reduction), so the selection reflects what verify mode
        #: actually pays — the overhead is shape-dependent and can flip
        #: a near-tie.
        self.verify = verify
        names = list(candidates)
        if dense_weights_available and "cublas_tc" not in names:
            names.append("cublas_tc")
        self._kernels: Dict[str, SpMMKernel] = {
            name: make_kernel(name) for name in names
        }
        self._cache: Dict[Tuple, DispatchDecision] = {}

    def select(self, problem: SpMMProblem) -> DispatchDecision:
        """Profile all candidates; return the fastest with its margin."""
        key = (
            problem.m, problem.k, problem.n, problem.sparsity,
            problem.block_occupancy, problem.sparta_residual_nnz,
        )
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        timed = sorted(
            (
                (self._costed(kernel, problem), name)
                for name, kernel in self._kernels.items()
            ),
            key=lambda pair: pair[0].time_s,
        )
        best_profile, best_name = timed[0]
        runner = timed[1] if len(timed) > 1 else None
        decision = DispatchDecision(
            kernel_name=best_name,
            profile=best_profile,
            runner_up=runner[1] if runner else None,
            runner_up_time_s=runner[0].time_s if runner else None,
        )
        self._cache[key] = decision
        return decision

    def _costed(self, kernel: SpMMKernel, problem: SpMMProblem) -> KernelProfile:
        """The candidate's profile, plus modelled verify time if on."""
        profile = kernel.profile(problem, self.gpu)
        if not self.verify:
            return profile
        from ..integrity.abft import verification_cost_frac  # no cycle

        frac = verification_cost_frac(problem.m, problem.k, problem.n)
        return replace(profile, time_s=profile.time_s * (1.0 + frac))

    def kernel_for(self, problem: SpMMProblem) -> SpMMKernel:
        """The functional kernel instance backing the selection."""
        return self._kernels[self.select(problem).kernel_name]
