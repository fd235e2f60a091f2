"""Sparsity-pattern generators.

The kernel benchmarks need masks with controlled statistics:

* ``uniform_mask`` — i.i.d. Bernoulli zeros, the distribution magnitude/
  Wanda pruning of LLM weights produces at matrix scale (paper's Fig. 10
  dataset);
* ``semi_structured_mask`` — exact N:M patterns (2:4 for Sparse Tensor
  Cores);
* ``clustered_mask`` — block-clustered zeros emulating scientific
  matrices (the SMaT comparison of Fig. 11 is only meaningful when
  non-zeros cluster so whole 16x16 blocks can vanish);
* ``banded_mask`` — diagonal-band support, another scientific pattern.

All generators are deterministic given ``seed`` and return boolean arrays
where ``True`` marks a *kept* (non-zero) element.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_mask",
    "semi_structured_mask",
    "clustered_mask",
    "banded_mask",
    "apply_mask",
    "measured_sparsity",
    "block_occupancy",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _check_shape(m: int, k: int) -> None:
    if m <= 0 or k <= 0:
        raise ValueError("mask dimensions must be positive")


def uniform_mask(m: int, k: int, sparsity: float, seed: int = 0) -> np.ndarray:
    """I.i.d. mask with an *exact* global non-zero count.

    Exactly ``round(m * k * (1 - sparsity))`` elements are kept, placed
    uniformly at random — matching the storage equations' NNZ accounting.
    """
    _check_shape(m, k)
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    total = m * k
    keep = int(round(total * (1.0 - sparsity)))
    flat = np.zeros(total, dtype=bool)
    idx = _rng(seed).choice(total, size=keep, replace=False)
    flat[idx] = True
    return flat.reshape(m, k)


def semi_structured_mask(
    m: int, k: int, n_keep: int = 2, m_group: int = 4, seed: int = 0
) -> np.ndarray:
    """Exact N:M mask along rows: ``n_keep`` survivors per ``m_group``."""
    _check_shape(m, k)
    if not 0 < n_keep <= m_group:
        raise ValueError("need 0 < n_keep <= m_group")
    if k % m_group:
        raise ValueError(f"K ({k}) must be a multiple of the group size {m_group}")
    rng = _rng(seed)
    groups = m * (k // m_group)
    # Rank random scores within each group; keep the n_keep best.
    scores = rng.random((groups, m_group))
    order = np.argsort(scores, axis=1)
    mask = np.zeros((groups, m_group), dtype=bool)
    rows = np.repeat(np.arange(groups), n_keep)
    cols = order[:, :n_keep].reshape(-1)
    mask[rows, cols] = True
    return mask.reshape(m, k)


def clustered_mask(
    m: int,
    k: int,
    sparsity: float,
    block: int = 16,
    seed: int = 0,
) -> np.ndarray:
    """Block-clustered mask: whole ``block x block`` tiles live or die.

    Non-zeros concentrate in a fraction of tiles (dense inside), the rest
    are exactly empty — the structure of scientific/GNN adjacency
    matrices that lets block-skipping kernels like SMaT shine at extreme
    sparsity.
    """
    _check_shape(m, k)
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    if block <= 0 or m % block or k % block:
        raise ValueError("matrix dims must be multiples of the block size")
    rows, cols = m // block, k // block
    total_blocks = rows * cols
    keep_blocks = int(round(total_blocks * (1.0 - sparsity)))
    flat = np.zeros(total_blocks, dtype=bool)
    idx = _rng(seed).choice(total_blocks, size=keep_blocks, replace=False)
    flat[idx] = True
    block_mask = flat.reshape(rows, cols)
    return np.kron(block_mask, np.ones((block, block), dtype=bool))


def banded_mask(m: int, k: int, bandwidth: int) -> np.ndarray:
    """Keep elements within ``bandwidth`` of the (scaled) diagonal."""
    _check_shape(m, k)
    if bandwidth < 0:
        raise ValueError("bandwidth cannot be negative")
    rows = np.arange(m)[:, None]
    cols = np.arange(k)[None, :]
    diag = rows * (k / m)
    return np.abs(cols - diag) <= bandwidth


def apply_mask(weights: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero out pruned weights; returns a new float16 array."""
    weights = np.asarray(weights)
    if weights.shape != mask.shape:
        raise ValueError(
            f"weights {weights.shape} and mask {mask.shape} shapes disagree"
        )
    return np.where(mask, weights, 0).astype(np.float16)


def measured_sparsity(matrix: np.ndarray) -> float:
    """Fraction of exact zeros in a matrix."""
    matrix = np.asarray(matrix)
    return 1.0 - np.count_nonzero(matrix) / matrix.size


def block_occupancy(matrix: np.ndarray, block: int = 16) -> float:
    """Fraction of ``block x block`` tiles containing any non-zero.

    Feeds :class:`repro.kernels.base.SpMMProblem.block_occupancy` for the SMaT
    comparison on clustered matrices.
    """
    matrix = np.asarray(matrix)
    m, k = matrix.shape
    pm, pk = -(-m // block) * block, -(-k // block) * block
    padded = np.zeros((pm, pk), dtype=bool)
    padded[:m, :k] = matrix != 0
    grid = padded.reshape(pm // block, block, pk // block, block)
    occupied = grid.any(axis=(1, 3))
    return float(occupied.mean())
