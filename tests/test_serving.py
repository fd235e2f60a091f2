"""Tests for the continuous-batching serving simulator."""

import copy

import pytest

from repro.llm.serving import (
    ServingConfig,
    ServingSimulator,
    compare_frameworks,
    poisson_workload,
)
from repro.runtime.events import EventKind
from repro.runtime.request import SessionRequest
from repro.runtime.scheduler import RuntimeStats


def small_workload(n=12, rate=2.0, output_len=32):
    return poisson_workload(n, rate, prompt_len=32, output_len=output_len, seed=7)


def make_sim(framework="spinfer", sparsity=0.6, **kw):
    defaults = dict(model="opt-13b", gpu="RTX4090", num_gpus=1, max_batch=16)
    defaults.update(kw)
    return ServingSimulator(
        ServingConfig(framework=framework, sparsity=sparsity, **defaults)
    )


class TestWorkload:
    def test_poisson_determinism(self):
        a = poisson_workload(10, 1.0, seed=3)
        b = poisson_workload(10, 1.0, seed=3)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]

    def test_arrivals_increasing(self):
        w = poisson_workload(20, 5.0)
        arrivals = [r.arrival_s for r in w]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_workload(0, 1.0)
        with pytest.raises(ValueError):
            poisson_workload(5, 0.0)


class TestSimulator:
    def test_all_requests_complete(self):
        stats = make_sim().run(small_workload())
        assert len(stats.completed) == 12
        for r in stats.completed:
            assert r.generated == r.output_len
            assert r.finish_s is not None and r.finish_s > r.arrival_s

    def test_latency_statistics(self):
        stats = make_sim().run(small_workload())
        assert stats.mean_latency_s > 0
        assert stats.latency_percentile(50) <= stats.latency_percentile(95)
        assert stats.goodput_tokens_per_s > 0

    def test_batching_happens(self):
        """A burst of arrivals should be served concurrently."""
        burst = [
            SessionRequest(request_id=i, arrival_s=0.0, prompt_len=32, output_len=32)
            for i in range(8)
        ]
        stats = make_sim().run(burst)
        assert stats.peak_batch > 1

    def test_max_batch_respected(self):
        burst = [
            SessionRequest(request_id=i, arrival_s=0.0, prompt_len=16, output_len=16)
            for i in range(20)
        ]
        stats = make_sim(max_batch=4).run(burst)
        assert stats.peak_batch <= 4

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            make_sim().run([])

    def test_oversized_model_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            make_sim(framework="fastertransformer", sparsity=0.0,
                     model="opt-66b", num_gpus=1)

    def test_request_timestamps_consistent(self):
        stats = make_sim().run(small_workload())
        for r in stats.completed:
            assert r.start_s >= r.arrival_s
            assert r.queue_s >= 0
            assert r.latency_s >= r.queue_s

    def test_run_returns_auditable_runtime_stats(self):
        """The simulator hands back the scheduler's own stats, whose
        completed bucket is exactly the trace's FINISH records."""
        stats = make_sim().run(small_workload())
        assert isinstance(stats, RuntimeStats)
        finished = stats.trace.of_kind(EventKind.FINISH)
        assert [e.seq_id for e in finished] == [
            r.request_id for r in stats.completed
        ]


class TestFrameworkComparison:
    def test_spinfer_beats_flash_llm_on_one_gpu(self):
        """On one 24 GB GPU, OPT-13B: dense frameworks don't even fit;
        SpInfer's KV headroom beats Flash-LLM's."""
        workload = small_workload(n=16, rate=4.0)
        results = compare_frameworks(copy.deepcopy(workload), num_gpus=1)
        assert "spinfer" in results
        assert "fastertransformer" not in results  # dense does not fit
        if "flash-llm" in results:
            assert (
                results["spinfer"].goodput_tokens_per_s
                > results["flash-llm"].goodput_tokens_per_s
            )

    def test_spinfer_kv_headroom_largest(self):
        workload = small_workload(n=8)
        results = compare_frameworks(copy.deepcopy(workload), num_gpus=2)
        budgets = {fw: s.kv_budget_bytes for fw, s in results.items()}
        assert budgets["spinfer"] == max(budgets.values())


class TestSchedulingPolicies:
    def _mixed(self):
        from repro.llm.serving import mixed_workload

        return mixed_workload(16, arrival_rate=8.0,
                              output_lens=(16, 64, 256), seed=11)

    def test_mixed_workload_draws_lengths(self):
        workload = self._mixed()
        lengths = {r.output_len for r in workload}
        assert lengths <= {16, 64, 256}
        assert len(lengths) > 1

    def test_mixed_workload_validation(self):
        from repro.llm.serving import mixed_workload

        with pytest.raises(ValueError):
            mixed_workload(4, 1.0, output_lens=())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ServingConfig(model="opt-13b", framework="spinfer", policy="lifo")

    def test_sjf_improves_mean_latency_on_mixed_traffic(self):
        """Short jobs jumping the queue cuts mean latency — the standard
        SJF result, reproduced over the cost model."""
        fcfs = make_sim(policy="fcfs", max_batch=2).run(
            copy.deepcopy(self._mixed())
        )
        sjf = make_sim(policy="sjf", max_batch=2).run(
            copy.deepcopy(self._mixed())
        )
        assert len(fcfs.completed) == len(sjf.completed) == 16
        assert sjf.mean_latency_s <= fcfs.mean_latency_s

    def test_both_policies_complete_everything(self):
        for policy in ("fcfs", "sjf"):
            stats = make_sim(policy=policy).run(copy.deepcopy(self._mixed()))
            assert len(stats.completed) == 16


class TestLatencyPercentile:
    def stats(self, latencies):
        completed = [
            SessionRequest(request_id=i, arrival_s=0.0, prompt_len=1,
                    output_len=1, start_s=0.0, finish_s=lat)
            for i, lat in enumerate(latencies)
        ]
        return RuntimeStats(completed=completed, makespan_s=max(latencies))

    def test_nearest_rank_percentiles(self):
        s = self.stats([3.0, 1.0, 4.0, 2.0])
        # nearest-rank: ceil(pct/100 * n)-th smallest
        assert s.latency_percentile(25) == 1.0
        assert s.latency_percentile(50) == 2.0
        assert s.latency_percentile(75) == 3.0
        assert s.latency_percentile(100) == 4.0

    def test_p50_of_odd_sample_is_median(self):
        s = self.stats([5.0, 1.0, 3.0])
        assert s.latency_percentile(50) == 3.0

    def test_p0_is_minimum(self):
        s = self.stats([2.0, 7.0])
        assert s.latency_percentile(0) == 2.0

    def test_single_sample_all_percentiles(self):
        s = self.stats([4.2])
        for pct in (0, 1, 50, 99, 100):
            assert s.latency_percentile(pct) == 4.2

    def test_out_of_range_percentile_rejected(self):
        s = self.stats([1.0])
        with pytest.raises(ValueError):
            s.latency_percentile(101)
        with pytest.raises(ValueError):
            s.latency_percentile(-1)

    def test_no_completions_rejected(self):
        empty = RuntimeStats()
        with pytest.raises(ValueError):
            empty.latency_percentile(50)
