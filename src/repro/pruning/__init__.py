"""Unstructured pruning algorithms and sparsity-pattern generators.

SpInfer consumes masks, it does not create them; these implementations of
magnitude, Wanda and SparseGPT pruning (plus synthetic pattern
generators) supply realistically distributed sparse weights to the
kernels and the end-to-end simulator, replacing the WikiText-calibrated
checkpoints the paper pruned.
"""

from .magnitude import magnitude_mask, magnitude_prune
from .patterns import (
    apply_mask,
    banded_mask,
    block_occupancy,
    clustered_mask,
    measured_sparsity,
    semi_structured_mask,
    uniform_mask,
)
from .sparsegpt import hessian_inverse, sparsegpt_prune
from .wanda import synthetic_activations, wanda_mask, wanda_prune, wanda_scores

__all__ = [
    "apply_mask",
    "banded_mask",
    "block_occupancy",
    "clustered_mask",
    "hessian_inverse",
    "magnitude_mask",
    "magnitude_prune",
    "measured_sparsity",
    "semi_structured_mask",
    "sparsegpt_prune",
    "synthetic_activations",
    "uniform_mask",
    "wanda_mask",
    "wanda_prune",
    "wanda_scores",
]
