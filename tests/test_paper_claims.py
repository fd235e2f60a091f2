"""One test per quantified claim in the paper's text.

Each test quotes the sentence it checks (abstract, Sections 1, 5, 6) and
asserts the reproduced quantity within a documented tolerance.  This
suite is the contract between the paper and the reproduction: a model
change that silently breaks a headline claim fails here by name.
``TestReportedFigures`` states what each figure and Table 1 claim and
asserts it on the session's registry run, the numbers
``results/REPORT.md`` shows.
"""

import numpy as np
import pytest

from repro.bench.harness import geomean
from repro.gpu.specs import A6000, RTX4090
from repro.kernels import make_kernel
from repro.kernels.base import SpMMProblem
from repro.llm.inference import InferenceConfig, simulate_inference
from repro.llm.models import kernel_matrix_zoo


def _zoo_speedups(kernel_name, gpu, sparsities=(0.4, 0.5, 0.6, 0.7)):
    zoo = kernel_matrix_zoo()
    kernel = make_kernel(kernel_name)
    cublas = make_kernel("cublas_tc")
    out = []
    for s in sparsities:
        for _label, m, k in zoo:
            for n in (8, 16, 32):
                prob = SpMMProblem(m=m, k=k, n=n, sparsity=s)
                out.append(
                    cublas.profile(prob, gpu).time_s
                    / kernel.profile(prob, gpu).time_s
                )
    return out


@pytest.fixture(scope="module")
def spinfer_speedups_4090():
    return _zoo_speedups("spinfer", RTX4090)


class TestAbstractClaims:
    def test_up_to_2_14x_over_flash_llm(self):
        """Abstract: 'up to 2.14x ... over Flash-LLM'."""
        best = 0.0
        fl = make_kernel("flash_llm")
        sp = make_kernel("spinfer")
        for s in (0.3, 0.4, 0.5):
            prob = SpMMProblem(m=28672, k=8192, n=16, sparsity=s)
            best = max(
                best,
                fl.profile(prob, RTX4090).time_s / sp.profile(prob, RTX4090).time_s,
            )
        assert best == pytest.approx(2.14, abs=0.5)

    def test_up_to_2_27x_over_sparta(self):
        """Abstract: 'up to ... 2.27x over ... SparTA'."""
        best = 0.0
        sparta = make_kernel("sparta")
        sp = make_kernel("spinfer")
        for s in (0.5, 0.6, 0.7):
            prob = SpMMProblem(m=28672, k=8192, n=16, sparsity=s)
            best = max(
                best,
                sparta.profile(prob, RTX4090).time_s
                / sp.profile(prob, RTX4090).time_s,
            )
        assert best == pytest.approx(2.27, abs=0.6)

    def test_outperforms_cublas_from_30pct(self):
        """Abstract: 'outperforms highly optimized cuBLAS at sparsity
        levels as low as 30%'."""
        prob = SpMMProblem(m=28672, k=8192, n=16, sparsity=0.3)
        t_sp = make_kernel("spinfer").profile(prob, RTX4090).time_s
        t_cb = make_kernel("cublas_tc").profile(prob, RTX4090).time_s
        assert t_sp < t_cb

    def test_e2e_speedup_up_to_1_58x(self):
        """Abstract: 'end-to-end inference speed (up to 1.58x)' — the
        peak over equal-configuration comparisons with Flash-LLM."""
        ratios = []
        for gpus in (1, 2):
            for batch in (16, 32):
                for out_len in (64, 256):
                    cfg = dict(model="opt-13b", gpu="RTX4090", num_gpus=gpus,
                               batch_size=batch, prompt_len=64,
                               output_len=out_len, sparsity=0.6)
                    sp = simulate_inference(InferenceConfig(framework="spinfer", **cfg))
                    fl = simulate_inference(
                        InferenceConfig(framework="flash-llm", **cfg)
                    )
                    if not sp.oom and not fl.oom:
                        ratios.append(fl.total_s / sp.total_s)
        assert max(ratios) == pytest.approx(1.58, abs=0.35)


class TestSection5KernelClaims:
    def test_avg_1_79x_on_rtx4090(self, spinfer_speedups_4090):
        """5.1: 'SpInfer achieves an average speedup of 1.79x over cuBLAS'."""
        assert geomean(spinfer_speedups_4090) == pytest.approx(1.79, abs=0.2)

    def test_avg_1_51x_on_a6000(self):
        """5.1: 'SpInfer achieving an average speedup of 1.51x over cuBLAS'."""
        speedups = _zoo_speedups("spinfer", A6000)
        assert geomean(speedups) == pytest.approx(1.51, abs=0.2)

    def test_win_rate_94pct_at_40(self, spinfer_speedups_4090):
        """5.1: 'surpassing cuBLAS on 94.44% of matrices' at 40%."""
        zoo_len = len(kernel_matrix_zoo()) * 3
        at_40 = spinfer_speedups_4090[:zoo_len]
        win_rate = np.mean(np.array(at_40) > 1.0)
        assert win_rate >= 0.90

    def test_avg_1_66x_at_50(self, spinfer_speedups_4090):
        """5.1: 'At the critical 50% sparsity level ... 1.66x'."""
        zoo_len = len(kernel_matrix_zoo()) * 3
        at_50 = spinfer_speedups_4090[zoo_len : 2 * zoo_len]
        assert geomean(at_50) == pytest.approx(1.66, abs=0.2)

    def test_sparta_flash_marginal_at_50(self):
        """5.1: 'SparTA and Flash-LLM offer only marginal improvements
        over cuBLAS, with 1.01x and 1.00x speedups' at 50%."""
        for name, expected in (("sparta", 1.01), ("flash_llm", 1.00)):
            speedups = _zoo_speedups(name, RTX4090, sparsities=(0.5,))
            assert geomean(speedups) == pytest.approx(expected, abs=0.12), name

    def test_smat_2_12x_at_50(self):
        """5.1: 'At 50% sparsity, SpInfer outperforms SMaT with a 2.12x
        speedup.'"""
        prob = SpMMProblem(m=16384, k=16384, n=16, sparsity=0.5)
        ratio = (
            make_kernel("smat").profile(prob, RTX4090).time_s
            / make_kernel("spinfer").profile(prob, RTX4090).time_s
        )
        assert ratio == pytest.approx(2.12, abs=1.1)


class TestSection5E2EClaims:
    def test_memory_reduction_47_5pct(self):
        """5.2: '14.4 GB memory, achieving a 47.5% reduction compared to
        the dense baseline's 27.4 GB'."""
        sp = simulate_inference(InferenceConfig(
            model="opt-13b", framework="spinfer", gpu="RTX4090",
            num_gpus=1, batch_size=16, prompt_len=64, output_len=192,
            sparsity=0.6))
        ft = simulate_inference(InferenceConfig(
            model="opt-13b", framework="fastertransformer", gpu="RTX4090",
            num_gpus=1, batch_size=16, prompt_len=64, output_len=192,
            sparsity=0.0))
        reduction = 1 - (sp.memory.total - sp.memory.overhead) / (
            ft.memory.total - ft.memory.overhead
        )
        assert reduction == pytest.approx(0.475, abs=0.1)

    def test_opt13b_1gpu_1024_tokens_where_flash_llm_caps_at_256(self):
        """5.2: 'SpInfer can support up to 1024 output tokens, whereas
        Flash-LLM is limited to a maximum of 256' (OPT-13B, 1 GPU, BS 8)."""
        def max_tokens(framework):
            best = 0
            for out_len in (64, 128, 256, 512, 1024):
                r = simulate_inference(InferenceConfig(
                    model="opt-13b", framework=framework, gpu="RTX4090",
                    num_gpus=1, batch_size=8, prompt_len=64,
                    output_len=out_len, sparsity=0.6))
                if not r.oom:
                    best = out_len
            return best

        assert max_tokens("spinfer") >= 1024
        assert max_tokens("flash-llm") <= 512

    def test_opt30b_2gpu_flash_llm_always_oom(self):
        """5.2: 'with OPT-30B on 2 RTX4090 GPUs, Flash-LLM encounters OOM
        errors across all batch sizes and output lengths, while SpInfer
        can handle up to 512 tokens with a batch size of 16'."""
        fl = simulate_inference(InferenceConfig(
            model="opt-30b", framework="flash-llm", gpu="RTX4090",
            num_gpus=2, batch_size=8, prompt_len=64, output_len=64,
            sparsity=0.6))
        sp = simulate_inference(InferenceConfig(
            model="opt-30b", framework="spinfer", gpu="RTX4090",
            num_gpus=2, batch_size=16, prompt_len=64, output_len=512,
            sparsity=0.6))
        assert fl.oom
        assert not sp.oom


class TestSection6Claims:
    def test_prefill_up_to_11_8pct_slower(self):
        """6: 'SpInfer can be up to 11.8% slower than cuBLAS_TC' in the
        compute-bound prefill regime."""
        worst = 0.0
        for n in (2048, 4096, 8192):
            prob = SpMMProblem(m=28672, k=8192, n=n, sparsity=0.6)
            worst = max(
                worst,
                make_kernel("spinfer").profile(prob, RTX4090).time_s
                / make_kernel("cublas_tc").profile(prob, RTX4090).time_s,
            )
        assert 1.0 < worst == pytest.approx(1.118, abs=0.05)

    def test_bitmap_loses_to_csr_beyond_90pct(self):
        """6: 'at extreme sparsity levels (>90%), the efficiency of bitmap
        indexing declines ... resulting in a lower compression ratio than
        CSR formats'."""
        from repro.formats.analytic import compression_ratio

        assert compression_ratio("csr", 4096, 4096, 0.99) > compression_ratio(
            "tca-bme", 4096, 4096, 0.99
        )


class TestReportedFigures:
    def test_fig01_prior_kernels_need_over_50pct(self, experiments):
        """Fig. 1: at the 40-70 % sparsity LLM pruning reaches, every
        prior SpMM loses to cuBLAS until well past 50 %; CUDA-core
        kernels never win in the swept range."""
        exp = experiments["fig01"]
        assert exp.metric("crossover_sparsity_cusparse") >= 0.8
        assert exp.metric("crossover_sparsity_flash_llm") >= 0.5
        assert exp.metric("crossover_sparsity_sparta") >= 0.5

    def test_fig09_async_pipeline_worth_a_few_percent(self, experiments):
        """Fig. 9 / Table 1: the depth-2 asynchronous pipeline (double
        buffering, two independent cp.async groups) is worth a few
        percent (+1.98 % without AsyncPipe).  Derived here with no
        overlap calibration: no knob helps when disabled, and memory
        stays the busiest resource in the decode regime."""
        exp = experiments["fig09"]
        assert exp.metric("slowdown_no_double_buffering") >= 1.0
        assert exp.metric("slowdown_fused_group") >= 1.0
        assert 1.01 < exp.metric("slowdown_neither") < 1.25
        full = exp.rows[0]
        assert full[0] == "full pipeline"
        assert full[2] > 0.9  # memory utilisation

    def test_fig10_margins_over_every_baseline(self, experiments):
        """Fig. 10 (RTX4090): SpInfer averages 1.56x / 1.67x / 2.55x /
        18.14x over Flash-LLM / SparTA / Sputnik / cuSPARSE, and only
        SpInfer clearly beats cuBLAS on average."""
        exp = experiments["fig10"]
        assert exp.metric("spinfer_over_flash_llm") == pytest.approx(
            1.56, abs=0.35
        )
        assert exp.metric("spinfer_over_sparta") == pytest.approx(1.67, abs=0.35)
        assert exp.metric("spinfer_over_sputnik") == pytest.approx(2.55, abs=0.6)
        assert exp.metric("spinfer_over_cusparse") == pytest.approx(
            18.14, rel=0.35
        )
        for name in ("flash_llm", "sparta", "sputnik", "cusparse"):
            assert exp.metric(f"avg_speedup_{name}") < 1.25, name

    def test_fig10_a6000_spinfer_still_leads(self, experiments):
        """Fig. 10 (A6000): the average drops to 1.51x over cuBLAS
        (``test_avg_1_51x_on_a6000``), and SpInfer still leads
        Flash-LLM."""
        exp = experiments["fig10_a6000"]
        assert exp.metric("avg_speedup_spinfer") > exp.metric(
            "avg_speedup_flash_llm"
        )

    def test_fig11_smat_overtakes_only_near_99_7pct(self, experiments):
        """Fig. 11: SMaT only overtakes beyond ~99.7 % sparsity, where
        clustered scientific matrices let it skip most 16x16 blocks."""
        assert 0.99 <= experiments["fig11"].metric("crossover_sparsity") <= 0.9995

    def test_fig12_flash_llm_scatter_conflicts(self, experiments):
        """Fig. 12: Flash-LLM's scatter suffers shared-memory write
        conflicts (SpInfer's SMBD has none, ``TestFig12``)."""
        assert experiments["fig12"].metric("flash_bank_replays") > 1e5

    def test_fig13_e2e_speedups_on_rtx4090(self, experiments):
        """Fig. 13: on RTX4090s SpInfer averages 1.35x / 1.42x / 1.49x
        over Flash-LLM / FasterTransformer / DeepSpeed, peaks at 1817
        tokens/s, and runs configurations where the baselines OOM."""
        exp = experiments["fig13"]
        assert exp.metric("avg_speedup_vs_flash_llm") == pytest.approx(
            1.35, abs=0.25
        )
        assert exp.metric("avg_speedup_vs_fastertransformer") == pytest.approx(
            1.42, abs=0.3
        )
        assert exp.metric("avg_speedup_vs_deepspeed") == pytest.approx(
            1.49, abs=0.3
        )
        assert exp.metric("spinfer_max_tokens_per_s") > 800
        by_case = {}
        for model, gpus, batch, out_len, fw, tps, _mem in exp.rows:
            by_case.setdefault((model, gpus, batch, out_len), {})[fw] = tps
        assert any(
            case["flash-llm"] == "OOM" and case["spinfer"] != "OOM"
            for case in by_case.values()
        )

    def test_fig14_e2e_speedups_on_a6000(self, experiments):
        """Fig. 14: on the NVLink-connected A6000s SpInfer averages
        1.29x / 1.36x / 1.55x over Flash-LLM / FasterTransformer /
        DeepSpeed."""
        exp = experiments["fig14"]
        assert exp.metric("avg_speedup_vs_flash_llm") == pytest.approx(
            1.29, abs=0.25
        )
        assert exp.metric("avg_speedup_vs_fastertransformer") == pytest.approx(
            1.36, abs=0.3
        )
        assert exp.metric("avg_speedup_vs_deepspeed") == pytest.approx(
            1.55, abs=0.35
        )

    def test_fig15_linear_layers_dominate(self, experiments):
        """Fig. 15: linear layers (SpMM/GEMM) dominate every
        framework's time."""
        for fw, _gpus, _total, linear, mha, comm, other in experiments[
            "fig15"
        ].rows:
            assert linear == max(linear, mha, comm, other), fw

    def test_fig16_spinfer_wins_at_decode_n(self, experiments):
        """Fig. 16: SpInfer dominates at decode-phase N; only a large
        ``N = batch x seq_len`` turns it slower than cuBLAS."""
        n, _t_sp, _t_cb, speedup = experiments["fig16"].rows[0]
        assert n == 8 and speedup > 1.0

    def test_tab01_ablation_costs(self, experiments):
        """Table 1: removing SMBD increases kernel duration by 10.03 %,
        removing the asynchronous pipeline by 1.98 %."""
        exp = experiments["tab01"]
        assert exp.metric("slowdown_no_smbd") == pytest.approx(1.10, abs=0.1)
        assert exp.metric("slowdown_no_async") == pytest.approx(1.02, abs=0.05)
