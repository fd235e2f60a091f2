"""White-box consistency tests for the inference engine's composition.

The engine's outputs must be exactly the composition of its parts —
per-layer kernel profiles, attention model, communication model — with
no hidden double counting.
"""

import random

import pytest

from repro.gpu.specs import RTX4090
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem
from repro.llm.inference import InferenceConfig, InferenceEngine
from repro.llm.models import get_model
from repro.llm.parallel import CommModel
from repro.runtime.core import GPUPool


def engine(**kw):
    defaults = dict(model="opt-13b", framework="spinfer", gpu="RTX4090",
                    num_gpus=2, batch_size=16, prompt_len=64, output_len=128,
                    sparsity=0.6)
    defaults.update(kw)
    return InferenceEngine(InferenceConfig(**defaults))


class TestDecodeStep:
    def test_step_composition(self):
        """decode phase == output_len identical steps (linear/comm/other)
        plus the context-integrated attention."""
        e = engine()
        result = e.simulate()
        step = e.decode_step_seconds(batch=16, context=1.0)
        assert result.decode.linear_s == pytest.approx(
            128 * step.linear_s, rel=1e-9
        )
        assert result.decode.comm_s == pytest.approx(128 * step.comm_s, rel=1e-9)

    def test_step_validation(self):
        e = engine()
        with pytest.raises(ValueError):
            e.decode_step_seconds(batch=0, context=10)
        with pytest.raises(ValueError):
            e.decode_step_seconds(batch=1, context=-1)

    def test_attention_linear_in_context(self):
        e = engine()
        short = e.decode_step_seconds(batch=16, context=128).attention_s
        long = e.decode_step_seconds(batch=16, context=1024).attention_s
        assert long > short
        # Memory-bound KV reads: roughly linear once past fixed costs.
        layers = e.model.num_layers
        fixed = layers * 40e-6  # per-layer launch component
        assert (long - fixed) / (short - fixed) == pytest.approx(8.0, rel=0.2)

    def test_step_batch_monotone(self):
        e = engine()
        small = e.decode_step_seconds(batch=4, context=256).total_s
        large = e.decode_step_seconds(batch=64, context=256).total_s
        assert large > small


class TestLinearComposition:
    def test_layer_linears_match_kernel_profiles(self):
        """The per-layer linear time is the sum of the sharded weight
        matrices' kernel profiles."""
        e = engine(num_gpus=1)
        model = get_model("opt-13b")
        kernel = make_kernel("spinfer")
        expected = 0.0
        for w in model.weight_matrices():
            prob = SpMMProblem(m=w.m, k=w.k, n=16, sparsity=0.6)
            expected += w.count * kernel.profile(prob, RTX4090).time_s
        assert e._layer_linears_seconds(16) == pytest.approx(expected, rel=1e-9)

    def test_tensor_parallel_shards_shapes(self):
        """2-way TP must profile half-size matrices, not half the time."""
        one = engine(num_gpus=1)
        two = engine(num_gpus=2)
        t1 = one._layer_linears_seconds(16)
        t2 = two._layer_linears_seconds(16)
        # Sharding halves bytes but leaves fixed overheads: strictly
        # between 0.5x and 1.0x.
        assert 0.45 * t1 < t2 < 0.95 * t1

    def test_lm_head_always_dense(self):
        e = engine()
        dense_kernel = e._dense_kernel
        assert dense_kernel.name == "cublas_tc"
        assert e._lm_head_seconds(16) > 0


class TestPrefillComposition:
    def test_prefill_uses_wide_panels(self):
        """Prefill linears run at N = batch * prompt, so per-token linear
        cost is far below decode's."""
        e = engine()
        prefill = e._prefill()
        decode_step = e.decode_step_seconds(batch=16, context=64)
        prefill_per_token = prefill.linear_s / (16 * 64)
        decode_per_token = decode_step.linear_s / 16
        assert prefill_per_token < 0.25 * decode_per_token

    def test_comm_model_matches_parallel_module(self):
        e = engine(num_gpus=4)
        comm = CommModel(gpu=RTX4090, ranks=4)
        assert e.comm.layer_allreduce_seconds(5120, 16) == pytest.approx(
            comm.layer_allreduce_seconds(5120, 16)
        )


#: (framework, sparsity): both sparse kernels and one dense framework.
_FRAMEWORKS = [("spinfer", 0.6), ("flash-llm", 0.6), ("fastertransformer", 0.0)]
#: A ReLU/OPT model and a SiLU mixture-of-experts model.
_MODELS = ["opt-13b", "mixtral-8x7b"]


@pytest.mark.parametrize("model", _MODELS)
@pytest.mark.parametrize("framework,sparsity", _FRAMEWORKS)
class TestCostMemo:
    """The per-engine memo returns exactly what a fresh engine computes."""

    def test_warm_engine_equals_fresh_engine(self, framework, sparsity, model):
        grid = [
            ("decode", b, c)
            for b in (1, 2, 3, 8, 17, 32)
            for c in (0, 1.5, 100, 2047)
        ] + [("prefill", n, None) for n in (1, 7, 128, 500)]
        random.Random(0).shuffle(grid)
        warm = engine(framework=framework, sparsity=sparsity, model=model)
        for kind, n, context in grid + grid:
            fresh = engine(framework=framework, sparsity=sparsity, model=model)
            if kind == "decode":
                got = warm.decode_step_seconds(n, context)
                assert got == fresh.decode_step_seconds(n, context)
            else:
                got = warm.prefill_tokens_seconds(n)
                assert got == fresh.prefill_tokens_seconds(n)

    def test_each_call_returns_a_fresh_breakdown(
        self, framework, sparsity, model
    ):
        e = engine(framework=framework, sparsity=sparsity, model=model)
        first = e.decode_step_seconds(8, 256)
        second = e.decode_step_seconds(8, 256)
        assert first is not second
        first.add(second)
        assert e.decode_step_seconds(8, 256) == second

    def test_slowdown_scales_without_touching_nominal(
        self, framework, sparsity, model
    ):
        e = engine(framework=framework, sparsity=sparsity, model=model)
        pool = GPUPool(e, kv_budget_bytes=0.0, total_blocks=64)
        nominal = pool.decode_step(8, 256)
        nominal_prefill = pool.prefill_tokens_seconds(64)
        pool.set_slowdown(2.0)
        assert pool.decode_step(8, 256) == nominal.scaled(2.0)
        assert pool.prefill_tokens_seconds(64) == nominal_prefill * 2.0
        pool.set_slowdown(1.0)
        assert pool.decode_step(8, 256) == nominal
        assert pool.prefill_tokens_seconds(64) == nominal_prefill

    def test_warm_engine_still_validates(self, framework, sparsity, model):
        e = engine(framework=framework, sparsity=sparsity, model=model)
        e.decode_step_seconds(1, 10)
        e.prefill_tokens_seconds(1)
        with pytest.raises(ValueError):
            e.decode_step_seconds(0, 10)
        with pytest.raises(ValueError):
            e.decode_step_seconds(1, -1)
        with pytest.raises(ValueError):
            e.prefill_tokens_seconds(0)
