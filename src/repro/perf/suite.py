"""Benchmark suite definitions and the deterministic JSON record format.

Two suites cover the reproduction's hot paths:

``kernels`` (written to ``BENCH_kernels.json``)
    TCA-BME encode (vectorised + scalar reference), batched SMBD decode
    (vectorised + lane-faithful reference), the cumsum-offset fragment
    decode, the direct CSR/Tiled-CSL format conversions, and the
    functional SpInfer / Flash-LLM SpMM kernels.

``runtime`` (written to ``BENCH_runtime.json``)
    Discrete-event serving scheduler throughput: FCFS blocking prefill,
    chunked prefill with preemption at a tight KV budget, and SJF —
    plus ``scheduler_trace``, which pins the full event trace of an
    FCFS run, not just its counters.

Every case record carries ``suite, case, shape, sparsity, median_s,
mad_s, repeats, checksum, bit_exact``.  Output is deterministic across
platforms: timings are rounded to nanosecond precision, cases are sorted
by (suite, case), and JSON keys are sorted — so committed baselines diff
stably.  ``bit_exact`` marks checksums that must match on every platform
(pure scatters/encodes); float matmul results depend on the BLAS and are
checksummed for local comparison only.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .timer import checksum_arrays, checksum_ints, measure

__all__ = [
    "BENCH_SCHEMA",
    "SUITES",
    "load_results",
    "run_suite",
    "suite_filename",
    "write_results",
]

#: Schema tag stamped into every results document.
BENCH_SCHEMA = "repro-bench/v1"

#: Suite name -> baseline filename committed at the repo root.
SUITES: Dict[str, str] = {
    "kernels": "BENCH_kernels.json",
    "runtime": "BENCH_runtime.json",
}

#: Timings are rounded to this many digits (ns precision) so JSON output
#: is byte-stable for a given set of measured values.
_ROUND_DIGITS = 9

#: Default RNG seed for every fixture; pinned so checksums are stable.
DEFAULT_SEED = 0

# Fixture shapes (m, k, n).  Reference (scalar) cases always run reduced
# shapes — they exist to anchor the speedup story, not to burn minutes.
_FULL_SHAPE = (4096, 4096, 16)
_QUICK_SHAPE = (512, 512, 8)
_REF_FULL_SHAPE = (512, 512, 8)
_REF_QUICK_SHAPE = (256, 256, 8)

_SPARSITY = 0.6


def _sparse_fixture(
    m: int, k: int, n: int, sparsity: float, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((m, k)).astype(np.float16)
    w[rng.random((m, k)) < sparsity] = 0
    x = rng.standard_normal((k, n)).astype(np.float16)
    return w, x


# ---- kernel-suite case builders --------------------------------------------------
#
# Each builder takes (shape, sparsity, seed) and returns (thunk,
# checksum_fn); the thunk is the timed body, the checksum covers its
# result.  Fixture construction happens in the builder, outside the
# timed region.


def _case_encode(shape, sparsity, seed):
    from ..core.tca_bme import encode

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    return (
        lambda: encode(w),
        lambda enc: checksum_arrays(enc.gtile_offsets, enc.bitmaps, enc.values),
    )


def _case_encode_reference(shape, sparsity, seed):
    from ..core.reference import encode_reference

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    return (
        lambda: encode_reference(w),
        lambda enc: checksum_arrays(enc.gtile_offsets, enc.bitmaps, enc.values),
    )


def _case_decode_matrix(shape, sparsity, seed):
    from ..core.smbd import decode_matrix
    from ..core.tca_bme import encode

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    enc = encode(w)
    return (
        lambda: decode_matrix(enc.bitmaps, enc.values, enc.m, enc.k, enc.config),
        lambda res: checksum_arrays(res[0]),
    )


def _case_decode_reference(shape, sparsity, seed):
    from ..core.smbd import decode_group
    from ..core.tca_bme import encode

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    enc = encode(w)
    cfg = enc.config

    def thunk():
        frags = []
        for g in range(enc.num_group_tiles):
            frags.extend(
                decode_group(enc.group_bitmaps(g), enc.group_values(g), cfg)
            )
        return np.stack(frags)

    return thunk, checksum_arrays


def _case_fragment_decode(shape, sparsity, seed):
    from ..core.smbd import decode_group_frags
    from ..core.tca_bme import encode

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    enc = encode(w)
    # The cumsum offsets are global storage-order counts, so the whole
    # bitmap/value stream decodes in one batched call.
    return (
        lambda: decode_group_frags(enc.bitmaps, enc.values, enc.config),
        lambda res: checksum_arrays(res[0]),
    )


def _case_csr_to_tca_bme(shape, sparsity, seed):
    from ..formats.conversion import csr_to_tca_bme
    from ..formats.csr import CSRMatrix

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    csr = CSRMatrix.from_dense(w)
    return (
        lambda: csr_to_tca_bme(csr),
        lambda enc: checksum_arrays(enc.gtile_offsets, enc.bitmaps, enc.values),
    )


def _case_tca_bme_to_csr(shape, sparsity, seed):
    from ..core.tca_bme import encode
    from ..formats.conversion import tca_bme_to_csr

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    enc = encode(w)
    return (
        lambda: tca_bme_to_csr(enc),
        lambda csr: checksum_arrays(csr.row_ptr, csr.col_idx, csr.values),
    )


def _case_tiled_csl_to_tca_bme(shape, sparsity, seed):
    from ..formats.conversion import tiled_csl_to_tca_bme
    from ..formats.tiled_csl import TiledCSLMatrix

    w, _x = _sparse_fixture(*shape, sparsity, seed)
    tcsl = TiledCSLMatrix.from_dense(w)
    return (
        lambda: tiled_csl_to_tca_bme(tcsl),
        lambda enc: checksum_arrays(enc.gtile_offsets, enc.bitmaps, enc.values),
    )


def _case_spinfer_spmm(shape, sparsity, seed):
    from ..core.tca_bme import encode
    from ..kernels.spinfer import SpInferKernel

    w, x = _sparse_fixture(*shape, sparsity, seed)
    enc = encode(w)
    kern = SpInferKernel()
    return lambda: kern.run_encoded(enc, x), checksum_arrays


def _case_spinfer_spmm_reference(shape, sparsity, seed):
    from ..core.tca_bme import encode
    from ..kernels.spinfer import SpInferKernel

    w, x = _sparse_fixture(*shape, sparsity, seed)
    enc = encode(w)
    kern = SpInferKernel()
    return lambda: kern.run_encoded_reference(enc, x), checksum_arrays


def _case_flash_llm_spmm(shape, sparsity, seed):
    from ..formats.tiled_csl import TiledCSLMatrix
    from ..kernels.flash_llm import FlashLLMKernel

    w, x = _sparse_fixture(*shape, sparsity, seed)
    tcsl = TiledCSLMatrix.from_dense(w)
    kern = FlashLLMKernel()
    return lambda: kern.run_encoded(tcsl, x), checksum_arrays


# ---- runtime-suite case builders -------------------------------------------------
#
# Runtime shapes are (num_requests, prompt_len, output_len); checksums
# cover the scheduler's integer counters, which are platform-independent
# (the event loop is deterministic by construction).


def _serving_case(shape, seed, **config_overrides):
    from ..llm.serving import ServingConfig, ServingSimulator, poisson_workload

    requests, prompt_len, output_len = shape
    workload = poisson_workload(
        requests,
        arrival_rate=4.0,
        prompt_len=prompt_len,
        output_len=output_len,
        seed=seed,
    )
    cfg = ServingConfig(
        model="opt-13b",
        framework="spinfer",
        gpu="RTX4090",
        num_gpus=1,
        sparsity=_SPARSITY,
        **config_overrides,
    )

    def thunk():
        # The simulator mutates Request objects in place (start/finish
        # times, generated counts); reset them so every repeat runs the
        # same workload and the checksum is repeat-invariant.
        for req in workload:
            req.start_s = None
            req.finish_s = None
            req.first_token_s = None
            req.generated = 0
        return ServingSimulator(cfg).run(workload)

    def checksum(stats):
        return checksum_ints(
            len(stats.completed),
            len(stats.rejected),
            stats.iterations,
            stats.peak_batch,
            stats.preemptions,
        )

    return thunk, checksum


def _case_scheduler_fcfs(shape, _sparsity, seed):
    return _serving_case(shape, seed, max_batch=8, policy="fcfs")


def _case_scheduler_chunked_preemption(shape, _sparsity, seed):
    return _serving_case(
        shape,
        seed,
        max_batch=4,
        policy="fcfs",
        chunked_prefill=True,
        chunk_tokens=128,
        preemption=True,
        kv_cap_tokens=2048,
    )


def _case_scheduler_sjf(shape, _sparsity, seed):
    return _serving_case(shape, seed, max_batch=8, policy="sjf")


def _trace_checksum(trace) -> str:
    """Digest of every trace event's canonical key plus the snapshot
    count (16 hex)."""
    h = hashlib.sha256()
    for e in trace.events:
        h.update(repr(e.key()).encode())
    h.update(f"snapshots:{len(trace.snapshots)}".encode())
    return h.hexdigest()[:16]


def _case_scheduler_trace(shape, _sparsity, seed):
    # Same FCFS workload as scheduler_fcfs, checksummed over the whole
    # event trace: any change to what the scheduler decides, or when,
    # breaks the bit-exact pin even if the counters still agree.
    thunk, _counters = _serving_case(shape, seed, max_batch=8, policy="fcfs")

    def checksum(stats):
        return checksum_ints(int(_trace_checksum(stats.trace), 16))

    return thunk, checksum


_RUNTIME_FULL_SHAPE = (64, 96, 128)
_RUNTIME_QUICK_SHAPE = (16, 64, 64)


# ---- case tables -----------------------------------------------------------------

CaseBuilder = Callable[
    [Tuple[int, int, int], float, int],
    Tuple[Callable[[], object], Callable[[object], str]],
]

#: name -> (builder, full_shape, quick_shape, bit_exact)
_KERNEL_CASES: Dict[str, Tuple[CaseBuilder, tuple, tuple, bool]] = {
    "tca_bme_encode": (_case_encode, _FULL_SHAPE, _QUICK_SHAPE, True),
    "tca_bme_encode_reference": (
        _case_encode_reference, _REF_FULL_SHAPE, _REF_QUICK_SHAPE, True,
    ),
    "smbd_decode_matrix": (_case_decode_matrix, _FULL_SHAPE, _QUICK_SHAPE, True),
    "smbd_decode_reference": (
        _case_decode_reference, _REF_FULL_SHAPE, _REF_QUICK_SHAPE, True,
    ),
    "smbd_fragment_decode": (
        _case_fragment_decode, _FULL_SHAPE, _QUICK_SHAPE, True,
    ),
    "csr_to_tca_bme": (_case_csr_to_tca_bme, _FULL_SHAPE, _QUICK_SHAPE, True),
    "tca_bme_to_csr": (_case_tca_bme_to_csr, _FULL_SHAPE, _QUICK_SHAPE, True),
    "tiled_csl_to_tca_bme": (
        _case_tiled_csl_to_tca_bme, _FULL_SHAPE, _QUICK_SHAPE, True,
    ),
    "spinfer_spmm": (_case_spinfer_spmm, _FULL_SHAPE, _QUICK_SHAPE, False),
    "spinfer_spmm_reference": (
        _case_spinfer_spmm_reference, _REF_FULL_SHAPE, _REF_QUICK_SHAPE, False,
    ),
    "flash_llm_spmm": (_case_flash_llm_spmm, _FULL_SHAPE, _QUICK_SHAPE, False),
}

_RUNTIME_CASES: Dict[str, Tuple[CaseBuilder, tuple, tuple, bool]] = {
    "scheduler_fcfs": (
        _case_scheduler_fcfs, _RUNTIME_FULL_SHAPE, _RUNTIME_QUICK_SHAPE, True,
    ),
    "scheduler_chunked_preemption": (
        _case_scheduler_chunked_preemption,
        _RUNTIME_FULL_SHAPE,
        _RUNTIME_QUICK_SHAPE,
        True,
    ),
    "scheduler_sjf": (
        _case_scheduler_sjf, _RUNTIME_FULL_SHAPE, _RUNTIME_QUICK_SHAPE, True,
    ),
    "scheduler_trace": (
        _case_scheduler_trace, _RUNTIME_FULL_SHAPE, _RUNTIME_QUICK_SHAPE, True,
    ),
}

_CASE_TABLES = {"kernels": _KERNEL_CASES, "runtime": _RUNTIME_CASES}


def suite_filename(suite: str) -> str:
    """Baseline filename for a suite (``BENCH_<suite>.json``)."""
    try:
        return SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; options: {sorted(SUITES)}"
        ) from None


def run_suite(
    suite: str,
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    warmup: int = 1,
    seed: int = DEFAULT_SEED,
    progress: Optional[Callable[[str], None]] = None,
) -> List[dict]:
    """Run one suite and return its case records, sorted by case name.

    ``quick`` switches to the reduced shapes and 3 repeats (CI mode);
    the full suite uses 5 repeats.  ``repeats`` overrides either.
    """
    cases = _CASE_TABLES.get(suite)
    if cases is None:
        raise ValueError(f"unknown suite {suite!r}; options: {sorted(SUITES)}")
    n_repeats = repeats if repeats is not None else (3 if quick else 5)

    records = []
    for name in sorted(cases):
        builder, full_shape, quick_shape, bit_exact = cases[name]
        shape = quick_shape if quick else full_shape
        if progress:
            progress(f"{suite}/{name} shape={shape}")
        thunk, checksum_fn = builder(shape, _SPARSITY, seed)
        result, m = measure(thunk, repeats=n_repeats, warmup=warmup)
        records.append(
            {
                "suite": suite,
                "case": name,
                "shape": list(shape),
                "sparsity": _SPARSITY,
                "median_s": round(m.median_s, _ROUND_DIGITS),
                "mad_s": round(m.mad_s, _ROUND_DIGITS),
                "repeats": m.repeats,
                "checksum": checksum_fn(result),
                "bit_exact": bit_exact,
            }
        )
    return records


def write_results(
    records: List[dict], path: str, *, suite: str, quick: bool
) -> str:
    """Write a deterministic results document (sorted cases and keys)."""
    doc = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "quick": quick,
        "cases": sorted(records, key=lambda r: (r["suite"], r["case"])),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_results(path: str) -> dict:
    """Load a results document, validating the schema tag."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {BENCH_SCHEMA!r}, "
            f"got {doc.get('schema')!r}"
        )
    return doc
