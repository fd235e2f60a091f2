"""Expected shared-memory bank replays of a random scatter.

NVIDIA shared memory is organised as 32 banks of 4-byte words; a warp
access that maps several lanes to *different words of the same bank* is
replayed once per extra word.  SpInfer's SMBD reads the compressed value
stream coalesced (conflict-free), whereas Flash-LLM's unpack *writes*
each non-zero to its decompressed location — effectively a random scatter
— and eats replays (paper Fig. 12).  The exact replay count of a concrete
address set is :func:`repro.gpu.warp_sim.bank_conflict_replays`; this
module gives the expectation for random scatter.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expected_random_scatter_replays"]


def expected_random_scatter_replays(
    lanes: int = 32, banks: int = 32, samples: int = 2048, seed: int = 0
) -> float:
    """Expected replays when each lane writes a uniformly random word.

    This models Flash-LLM's sparse-to-dense shared-memory scatter: the
    destination of each non-zero is data-dependent and effectively
    uniform.  Monte-Carlo with a fixed seed (deterministic); for 32 lanes
    over 32 banks the expectation is ~2.4 replays per warp write, i.e. a
    ~3.4x slowdown of the store.
    """
    rng = np.random.default_rng(seed)
    draws = rng.integers(0, banks, size=(samples, lanes))
    counts = np.zeros((samples, banks), dtype=np.int64)
    rows = np.repeat(np.arange(samples), lanes)
    np.add.at(counts, (rows, draws.reshape(-1)), 1)
    return float(np.mean(counts.max(axis=1) - 1))
