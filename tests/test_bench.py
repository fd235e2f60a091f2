"""Tests for the experiment harness and the shape of each reproduction.

Every band below reads the session's registry run (the ``experiments``
fixture in conftest.py), i.e. the numbers ``results/REPORT.md`` shows:
the paper's figures and Table 1, then DESIGN.md's design-choice
ablations and the extension experiments that have no paper figure.
test_paper_claims.py holds the claims stated in the paper's text.
"""

import pytest

from repro.bench.harness import Experiment, format_table, geomean


class TestHarness:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_geomean_validation(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])

    def test_format_table_alignment(self):
        out = format_table(["a", "long"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_experiment_render_and_metric(self):
        exp = Experiment(
            exp_id="demo", title="Demo", headers=["x"], rows=[[1]],
            metrics={"m": 1.0}, notes="note",
        )
        text = exp.render()
        assert "Demo" in text and "m = 1" in text and "note" in text
        assert exp.metric("m") == 1.0
        with pytest.raises(KeyError):
            exp.metric("missing")


class TestFig01:
    def test_spinfer_earliest_crossover(self, experiments):
        exp = experiments["fig01"]
        xo = {k.replace("crossover_sparsity_", ""): v
              for k, v in exp.metrics.items()}
        assert xo["spinfer"] <= 0.4
        assert all(xo["spinfer"] <= v for v in xo.values())


class TestFig02:
    def test_paper_shares(self, experiments):
        exp = experiments["fig02"]
        assert 0.5 < exp.metric("gemm_time_share") < 0.85
        assert 0.75 < exp.metric("weight_memory_share") < 0.95


class TestFig03:
    def test_cr_claims(self, experiments):
        exp = experiments["fig03"]
        assert exp.metric("tca_bme_cr_at_30") > 1.0
        assert exp.metric("csr_cr_at_50") < 1.0
        assert exp.metric("tiled_csl_cr_at_50") == pytest.approx(1.0, abs=0.02)
        assert 1.0 < exp.metric("sparta_cr_at_50") < 1.3
        # Paper reference values: TCA-BME CR ~1.78 at 50%, ~2.76 at 70%.
        assert exp.metric("tca_bme_cr_at_50") == pytest.approx(1.78, abs=0.1)
        assert exp.metric("tca_bme_cr_at_70") == pytest.approx(2.76, abs=0.15)


class TestFig04:
    def test_decode_points_memory_bound(self, experiments):
        exp = experiments["fig04"]
        assert exp.metric("all_decode_points_memory_bound") == 1.0
        assert exp.metric("tca_ci_gain_over_csr_at_50") > 2.0


class TestFig10:
    def test_sweep_orderings(self, experiments):
        exp = experiments["fig10"]
        assert exp.metric("avg_speedup_spinfer") > 1.3
        assert exp.metric("avg_speedup_spinfer") > exp.metric("avg_speedup_flash_llm")
        assert exp.metric("avg_speedup_spinfer") > exp.metric("avg_speedup_sparta")
        assert exp.metric("spinfer_over_cusparse") > 10.0
        assert exp.metric("spinfer_win_rate_40") > 0.9
        assert exp.metric("spinfer_win_rate_70") == 1.0


class TestFig11:
    def test_crossover_beyond_99pct(self, experiments):
        exp = experiments["fig11"]
        assert exp.metric("spinfer_speedup_at_50") > 1.5
        assert 0.99 <= exp.metric("crossover_sparsity") <= 1.0


class TestFig12:
    def test_micro_claims(self, experiments):
        exp = experiments["fig12"]
        assert exp.metric("spinfer_fewest_registers") == 1.0
        assert exp.metric("spinfer_dram_vs_cublas") < 0.7
        assert exp.metric("spinfer_dram_vs_flash") < 1.0
        assert exp.metric("spinfer_bank_replays") == 0.0
        assert exp.metric("flash_bank_replays") > 0.0


class TestTab01:
    def test_ablation_magnitudes(self, experiments):
        exp = experiments["tab01"]
        # Paper: +10.03% without SMBD, +1.98% without AsyncPipe.
        assert 1.02 < exp.metric("slowdown_no_smbd") < 1.35
        assert 1.0 < exp.metric("slowdown_no_async") < 1.12
        assert exp.metric("slowdown_no_smbd") > exp.metric("slowdown_no_async")


class TestFig15:
    def test_one_gpu_spinfer_has_no_comm(self, experiments):
        exp = experiments["fig15"]
        assert exp.metric("spinfer_1gpu_comm_s") == 0.0
        assert exp.metric("spinfer_linear_vs_ft_2gpu") < 0.75
        assert exp.metric("spinfer_total_vs_ft_2gpu") < 0.9


class TestFig16:
    def test_bounded_prefill_slowdown(self, experiments):
        exp = experiments["fig16"]
        # Paper: up to 11.8% slower in the compute-bound regime.
        assert 1.0 < exp.metric("max_slowdown_large_n") < 1.15


class TestAblations:
    """DESIGN.md's design-choice sweeps: each constant the paper fixes
    sits where the ablation says it should."""

    def test_grouptile_64_is_the_knee(self, experiments):
        exp = experiments["abl_grouptile"]
        assert exp.metric("best_gt") == 64
        assert exp.metric("penalty_gt16") > 1.3
        assert exp.metric("penalty_gt256") > 1.3

    def test_split_k_rescues_small_grids_within_bounds(self, experiments):
        exp = experiments["abl_splitk"]
        assert 2 <= exp.metric("best_split_k") <= 16
        assert exp.metric("speedup_over_split1") > 1.5

    def test_larger_mma_shape_wins(self, experiments):
        """Section 4.2.1: ``m16n8k16`` beats ``m16n8k8``."""
        assert experiments["abl_mma_shape"].metric("k16_speedup_over_k8") > 1.2

    def test_quantization_composes_with_bitmaps(self, experiments):
        """Section 2.3: INT8/INT4 value streams shrink storage further
        while INT8 SpMM error stays below 1 %."""
        exp = experiments["abl_quant"]
        assert exp.metric("cr_int8") > exp.metric("cr_fp16")
        assert exp.metric("cr_int4") > exp.metric("cr_int8")
        assert exp.metric("int8_cr_gain") > 1.4
        int8_row = next(r for r in exp.rows if r[0] == "int8")
        assert int8_row[2] < 0.01


class TestExtensions:
    """Experiments with no paper figure that test the paper's prose."""

    def test_accuracy_wanda_beats_magnitude(self, experiments):
        """Section 5.2's Wanda-60 % setting: with real calibration
        activations Wanda beats magnitude, and degradation grows with
        sparsity."""
        exp = experiments["ext_accuracy"]
        assert exp.metric("wanda_over_magnitude_kl") < 1.0
        assert exp.metric("kl_growth_30_to_70") > 1.5
        assert exp.metric("top1_drop_30_to_70") > 0.0

    def test_chaos_recovery_beats_fail_fast(self, experiments):
        exp = experiments["ext_chaos"]
        assert exp.metric("reroute_goodput_gain_vs_fail_fast") > 1.0
        assert exp.metric("reroute_availability") == 1.0
        assert exp.metric("fail_fast_availability") < 1.0
        assert exp.metric("flaky_link_retry_completed") > 0
        assert exp.metric("flaky_link_fail_fast_completed") == 0

    def test_disaggregated_hybrid_beats_homogeneous(self, experiments):
        """Section 6: dense prefill + SpInfer decode beats both
        homogeneous deployments on a long-prompt workload."""
        exp = experiments["ext_disagg"]
        assert exp.metric("hybrid_speedup_vs_dense") > 1.0
        assert exp.metric("hybrid_speedup_vs_spinfer") >= 1.0
        assert exp.metric("kv_migration_share") < 0.25

    def test_fleet_autoscaler_dominates_a_static_fleet(self, experiments):
        exp = experiments["ext_fleet"]
        for arm in ("clean", "chaos"):
            assert exp.metric(f"target_util_dominated_statics_{arm}") >= 1
            assert (exp.metric(f"target_util_cost_usd_{arm}")
                    < exp.metric(f"static_4_cost_usd_{arm}"))

    def test_integrity_catches_every_injected_corruption(self, experiments):
        exp = experiments["ext_integrity"]
        assert exp.metric("detection_rate_verify_on") >= 0.99
        assert exp.metric("false_negatives_verify_on") == 0
        assert exp.metric("served_corrupted_verify_off") > 0
        assert 0.0 < exp.metric("goodput_cost_frac") < 0.10

    def test_memory_walls(self, experiments):
        """Section 5.2: OPT-13B on one RTX4090 at batch 8 — SpInfer
        sustains 1024 output tokens, Flash-LLM stops at 256 and dense
        frameworks do not fit."""
        exp = experiments["ext_memory"]
        assert exp.metric("spinfer_max_output") >= 1024
        assert exp.metric("flash_llm_max_output") <= 512
        assert exp.metric("dense_max_output") == 0
        assert exp.metric("wall_extension_vs_flash_llm") >= 2.0

    def test_offloading_multiplies_throughput(self, experiments):
        """Section 2.3: SpInfer 'can be combined with [offloading]
        methods to further enhance performance'."""
        exp = experiments["ext_offload"]
        assert exp.metric("speedup_tca_bme") > 1.5
        resident = {r[0]: r[1] for r in exp.rows}
        assert resident["tca-bme"] > resident["dense"]

    def test_serving_gains_throughput_and_kv_headroom(self, experiments):
        """Section 2.3: SpInfer 'is orthogonal to these serving systems
        and can complement and improve their performance'."""
        exp = experiments["ext_serving"]
        assert exp.metric("throughput_gain_vs_flash_llm") > 1.0
        assert exp.metric("kv_headroom_vs_flash_llm") > 2.0
        assert exp.metric("dense_frameworks_fit") == 0.0

    def test_chunked_preemptive_scheduler_wins_the_tail(self, experiments):
        exp = experiments["ext_serving_runtime"]
        assert exp.metric("p99_latency_gain") > 1.0
        assert exp.metric("p99_ttft_gain") > 1.0
        assert exp.metric("preemptions") > 0
        assert exp.metric("legacy_makespan_drift") < 0.01
