"""SpMM/GEMM kernels: the paper's contribution and all its baselines.

Each kernel pairs a functional numpy implementation of its real algorithm
(validated against dense matmul) with a cost-model profile on a simulated
GPU.  ``KERNELS`` maps the names used in the paper's figures to factories.
"""

from typing import Callable, Dict

# The one init with code of its own: KERNELS and make_kernel use these.
from .base import SpMMKernel
from .cublas import CuBLASKernel
from .cusparse import CuSparseKernel
from .flash_llm import FlashLLMKernel
from .smat import SMaTKernel
from .sparta_kernel import SparTAKernel
from .spinfer import SpInferKernel
from .sputnik import SputnikKernel

#: Kernel factories keyed by the names the paper's figures use.
KERNELS: Dict[str, Callable[[], SpMMKernel]] = {
    "cublas_tc": CuBLASKernel,
    "spinfer": SpInferKernel,
    "spinfer_no_smbd": lambda: SpInferKernel(variant="no_smbd"),
    "spinfer_no_async": lambda: SpInferKernel(variant="no_async"),
    "flash_llm": FlashLLMKernel,
    "sparta": SparTAKernel,
    "sputnik": SputnikKernel,
    "cusparse": CuSparseKernel,
    "smat": SMaTKernel,
}


def make_kernel(name: str) -> SpMMKernel:
    """Instantiate a kernel by figure name."""
    try:
        factory = KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(KERNELS)}"
        ) from None
    return factory()
