"""Algorithm-based fault tolerance (ABFT) for the SpMM kernels.

Huang & Abraham's classic construction: augment ``W`` (``M x K``) with
the column-checksum row ``c = e^T W`` at encode time.  For any input
``X`` (``K x N``), a correct product ``Y = W X`` satisfies::

    Y.sum(axis=0) == c @ X        (up to floating-point rounding)

so one extra vector-matrix product (``2KN`` flops) plus one column
reduction of the output (``MN`` flops) checks all ``2MKN`` flops of the
SpMM — the verification is ``O((K + M) N)`` against ``O(MKN)`` work,
which is why ABFT costs single-digit percent at LLM shapes.

The checksum row is attached by ``TCABMEMatrix.seal()`` /
``TiledCSLMatrix.seal()`` alongside per-tile content digests; this
module owns the check itself and its cost model.  Everything here is
pure numpy with no repo imports, so the kernels can depend on it
without import cycles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "IntegrityError",
    "weight_checksum",
    "verify_output",
    "verification_flops",
    "verification_cost_frac",
]


class IntegrityError(RuntimeError):
    """A checksum, digest, or content tag failed verification.

    Raised *instead of returning corrupted data* — the whole point of
    the integrity layer is that this error fires before a wrong result
    crosses an API boundary.
    """


def weight_checksum(w_dense: np.ndarray) -> np.ndarray:
    """The ABFT column-checksum row ``e^T W`` (float64, length K)."""
    w = np.asarray(w_dense)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {w.shape}")
    return w.astype(np.float64).sum(axis=0)


def verify_output(
    y: np.ndarray,
    x: np.ndarray,
    checksum_row: np.ndarray,
    *,
    rtol: float = 1e-6,
    atol: float = 1e-7,
    where: str = "spmm",
) -> float:
    """Run the ABFT column-sum check; returns the observed gap.

    Raises :class:`IntegrityError` when the gap exceeds
    ``atol + rtol * scale``, where ``scale`` is the absolute magnitude
    flowing into each column sum (``|c| @ |X|``) — the quantity FP32
    accumulation noise actually scales with.  Measured clean gaps sit
    near ``1e-8 * scale`` while a single mantissa-MSB bit flip in a
    stored FP16 weight lands near ``1e-4 * scale``, so ``rtol=1e-6``
    splits them with two orders of magnitude on either side.
    """
    xq = np.asarray(x, dtype=np.float16).astype(np.float64)
    c = np.asarray(checksum_row, dtype=np.float64)
    expected = c @ xq
    colsum = np.asarray(y, dtype=np.float64).sum(axis=0)
    if expected.size == 0:
        return 0.0
    gap = float(np.max(np.abs(colsum - expected)))
    scale = float(max(np.max(np.abs(c) @ np.abs(xq)), 1.0))
    if gap > atol + rtol * scale:
        raise IntegrityError(
            f"ABFT checksum mismatch in {where}: output column sums "
            f"deviate from e^T*W @ X by {gap:.6g} "
            f"(tolerance {atol + rtol * scale:.6g}) — "
            "the product was computed from corrupted data"
        )
    return gap


def verification_flops(m: int, k: int, n: int) -> int:
    """Flops the ABFT check itself spends: ``2KN`` for ``c @ X`` plus
    ``MN`` for the output column reduction."""
    return 2 * k * n + m * n


def verification_cost_frac(m: int, k: int, n: int) -> float:
    """Verification flops as a fraction of the ``2MKN`` SpMM flops.

    The modelled runtime overhead of verify mode; at LLM decode shapes
    (``M, K`` in the thousands) this is well under 1 %.
    """
    dense = 2 * m * k * n
    return verification_flops(m, k, n) / dense if dense else 0.0
