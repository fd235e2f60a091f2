"""Multi-GPU collectives: executable algorithms behind the comm model.

:mod:`repro.llm.parallel` prices tensor-parallel all-reduces with the
standard closed form.  This module implements the algorithms themselves
— ring all-reduce (reduce-scatter + all-gather), binary-tree
all-reduce, all-gather and reduce-scatter — moving real numpy buffers
between simulated ranks step by step, plus a per-step timing model.

Its role is the stepwise reference for
:func:`repro.llm.parallel.allreduce_seconds`: tests check that closed
form against the ring schedule here (they must agree, since
FasterTransformer's NCCL rings are what the paper's multi-GPU numbers
run on).  The simulators price communication with the closed form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..gpu.specs import GPUSpec

__all__ = [
    "CollectiveStep",
    "ring_allreduce",
    "tree_allreduce",
    "allgather",
    "reduce_scatter",
    "ring_allreduce_seconds",
    "tree_allreduce_seconds",
]


@dataclass(frozen=True)
class CollectiveStep:
    """One point-to-point transfer within a phase."""

    src: int
    dst: int
    num_bytes: float


def _check_ranks(buffers: Sequence[np.ndarray]) -> int:
    ranks = len(buffers)
    if ranks == 0:
        raise ValueError("need at least one rank")
    shape = buffers[0].shape
    for b in buffers:
        if b.shape != shape:
            raise ValueError("all ranks must hold equally shaped buffers")
    return ranks


def ring_allreduce(buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Execute a ring all-reduce; returns each rank's reduced copy.

    The classic 2(R-1)-step schedule: R-1 reduce-scatter steps circulate
    partial sums chunk by chunk, then R-1 all-gather steps circulate the
    finished chunks.  Bit-exact float64 accumulation per chunk.
    """
    ranks = _check_ranks(buffers)
    if ranks == 1:
        return [np.array(buffers[0], copy=True)]
    flat = [np.asarray(b, dtype=np.float64).reshape(-1).copy() for b in buffers]
    n = flat[0].size
    bounds = [n * i // ranks for i in range(ranks + 1)]

    def chunk(r: int, c: int) -> slice:
        del r
        return slice(bounds[c % ranks], bounds[c % ranks + 1])

    # Reduce-scatter: after step s, rank i owns the full sum of chunk
    # (i + 1) once s = R - 1 steps complete.
    for step in range(ranks - 1):
        transfers = []
        for src in range(ranks):
            dst = (src + 1) % ranks
            c = (src - step) % ranks
            transfers.append((src, dst, c))
        for src, dst, c in transfers:
            flat_src = flat[src][chunk(src, c)].copy()
            flat[dst][chunk(dst, c)] += flat_src

    # All-gather: circulate each finished chunk around the ring.
    for step in range(ranks - 1):
        transfers = []
        for src in range(ranks):
            dst = (src + 1) % ranks
            c = (src + 1 - step) % ranks
            transfers.append((src, dst, c))
        for src, dst, c in transfers:
            flat[dst][chunk(dst, c)] = flat[src][chunk(src, c)]

    shape = buffers[0].shape
    return [f.reshape(shape).astype(np.asarray(buffers[0]).dtype) for f in flat]


def tree_allreduce(buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Binary-tree all-reduce: reduce to rank 0, then broadcast."""
    ranks = _check_ranks(buffers)
    work = [np.asarray(b, dtype=np.float64).copy() for b in buffers]
    # Reduce phase.
    stride = 1
    while stride < ranks:
        for dst in range(0, ranks, 2 * stride):
            src = dst + stride
            if src < ranks:
                work[dst] += work[src]
        stride *= 2
    # Broadcast phase.
    stride //= 2
    while stride >= 1:
        for src in range(0, ranks, 2 * stride):
            dst = src + stride
            if dst < ranks:
                work[dst] = work[src].copy()
        stride //= 2
    dtype = np.asarray(buffers[0]).dtype
    return [w.astype(dtype) for w in work]


def allgather(shards: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Every rank ends with the concatenation of all shards."""
    ranks = len(shards)
    if ranks == 0:
        raise ValueError("need at least one rank")
    full = np.concatenate([np.asarray(s).reshape(-1) for s in shards])
    return [full.copy() for _ in range(ranks)]


def reduce_scatter(buffers: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Each rank ends with its chunk of the elementwise sum."""
    ranks = _check_ranks(buffers)
    total = np.sum(
        [np.asarray(b, dtype=np.float64).reshape(-1) for b in buffers], axis=0
    )
    n = total.size
    bounds = [n * i // ranks for i in range(ranks + 1)]
    dtype = np.asarray(buffers[0]).dtype
    return [
        total[bounds[r] : bounds[r + 1]].astype(dtype) for r in range(ranks)
    ]


# ---- timing --------------------------------------------------------------------------


def ring_allreduce_seconds(
    payload_bytes: float, ranks: int, gpu: GPUSpec
) -> float:
    """Stepwise ring time: 2(R-1) phases of ``payload/R`` per link.

    Algebraically equal to the closed form in
    :func:`repro.llm.parallel.allreduce_seconds` — asserted in tests.
    """
    if ranks <= 0:
        raise ValueError("ranks must be positive")
    if payload_bytes < 0:
        raise ValueError("payload cannot be negative")
    if ranks == 1 or payload_bytes == 0:
        return 0.0
    bw = gpu.interconnect_gbs * 1e9
    lat = gpu.interconnect_latency_us * 1e-6
    per_phase = (payload_bytes / ranks) / bw + lat
    return 2 * (ranks - 1) * per_phase


def tree_allreduce_seconds(
    payload_bytes: float, ranks: int, gpu: GPUSpec
) -> float:
    """Tree time: 2 ceil(log2 R) phases moving the full payload."""
    if ranks <= 0:
        raise ValueError("ranks must be positive")
    if payload_bytes < 0:
        raise ValueError("payload cannot be negative")
    if ranks == 1 or payload_bytes == 0:
        return 0.0
    bw = gpu.interconnect_gbs * 1e9
    lat = gpu.interconnect_latency_us * 1e-6
    phases = 2 * math.ceil(math.log2(ranks))
    return phases * (payload_bytes / bw + lat)
