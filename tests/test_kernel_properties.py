"""Property-based tests on the kernel cost model.

The model's usefulness rests on scaling laws, not point values; these
hypothesis tests pin the laws down: monotonicity in problem size and
sparsity, GPU dominance relations, and internal consistency between the
profile's counters and its time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.specs import A6000, RTX4090
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem

dims = st.sampled_from([1024, 2048, 4096, 8192, 16384])
ns = st.sampled_from([8, 16, 32])
sparsities = st.floats(min_value=0.3, max_value=0.8)


@settings(max_examples=25, deadline=None)
@given(m=dims, k=dims, n=ns, s=sparsities)
def test_spinfer_time_decreases_with_sparsity(m, k, n, s):
    """More zeros -> fewer bytes -> never slower (memory-bound regime)."""
    kernel = make_kernel("spinfer")
    t_low = kernel.profile(SpMMProblem(m=m, k=k, n=n, sparsity=s), RTX4090).time_s
    t_high = kernel.profile(
        SpMMProblem(m=m, k=k, n=n, sparsity=min(0.95, s + 0.1)), RTX4090
    ).time_s
    assert t_high <= t_low * 1.001


@settings(max_examples=25, deadline=None)
@given(m=dims, k=dims, n=ns, s=sparsities)
def test_cublas_time_independent_of_sparsity(m, k, n, s):
    kernel = make_kernel("cublas_tc")
    t_a = kernel.profile(SpMMProblem(m=m, k=k, n=n, sparsity=s), RTX4090).time_s
    t_b = kernel.profile(SpMMProblem(m=m, k=k, n=n, sparsity=0.0), RTX4090).time_s
    assert t_a == pytest.approx(t_b)


@settings(max_examples=25, deadline=None)
@given(m=dims, k=dims, n=ns, s=sparsities)
def test_time_increases_with_m(m, k, n, s):
    for name in ("spinfer", "cublas_tc", "flash_llm"):
        kernel = make_kernel(name)
        t_small = kernel.profile(SpMMProblem(m=m, k=k, n=n, sparsity=s), RTX4090).time_s
        t_big = kernel.profile(
            SpMMProblem(m=2 * m, k=k, n=n, sparsity=s), RTX4090
        ).time_s
        assert t_big > t_small


@settings(max_examples=20, deadline=None)
@given(m=dims, k=dims, s=sparsities)
def test_decode_n_insensitive_memory_bound(m, k, s):
    """In the decode regime, N=8 vs N=16 barely moves a memory-bound
    kernel (weights dominate the traffic)."""
    kernel = make_kernel("spinfer")
    t8 = kernel.profile(SpMMProblem(m=m, k=k, n=8, sparsity=s), RTX4090).time_s
    t16 = kernel.profile(SpMMProblem(m=m, k=k, n=16, sparsity=s), RTX4090).time_s
    assert t16 <= 2.0 * t8


@settings(max_examples=20, deadline=None)
@given(m=dims, k=dims, n=ns, s=sparsities)
def test_a6000_never_faster_than_4090(m, k, n, s):
    for name in ("spinfer", "cublas_tc"):
        kernel = make_kernel(name)
        prob = SpMMProblem(m=m, k=k, n=n, sparsity=s)
        assert (
            kernel.profile(prob, A6000).time_s
            >= kernel.profile(prob, RTX4090).time_s * 0.999
        )


@settings(max_examples=20, deadline=None)
@given(m=dims, k=dims, n=ns, s=sparsities)
def test_profile_internal_consistency(m, k, n, s):
    """Counters must be mutually consistent with the predicted time."""
    prob = SpMMProblem(m=m, k=k, n=n, sparsity=s)
    for name in ("spinfer", "flash_llm", "cublas_tc", "sputnik"):
        p = make_kernel(name).profile(prob, RTX4090)
        assert p.time_s > 0
        assert 0 <= p.bandwidth_utilization <= 1.0 + 1e-9
        assert 0 <= p.tc_utilization <= 1.0 + 1e-9
        assert p.time_s * 1e6 == pytest.approx(p.time_us)
        # bw_util * time * peak == bytes, by definition.
        reconstructed = (
            p.bandwidth_utilization * p.time_s * RTX4090.dram_bandwidth_bytes
        )
        assert reconstructed == pytest.approx(p.dram_bytes, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(m=dims, k=dims, n=ns)
def test_spinfer_dominates_flash_llm_everywhere_in_range(m, k, n):
    """Fig. 10: SpInfer never loses to Flash-LLM at LLM sparsities."""
    sp = make_kernel("spinfer")
    fl = make_kernel("flash_llm")
    for s in (0.4, 0.5, 0.6, 0.7):
        prob = SpMMProblem(m=m, k=k, n=n, sparsity=s)
        assert sp.profile(prob, RTX4090).time_s <= fl.profile(prob, RTX4090).time_s
