"""Tests for the deployment-plan checker (rules M*/T*/K*/O*/D*).

Every rule ID is triggered at least once on a deliberately broken
artifact; the builtin sweep must come back error-free; and the planner
is translation-validated against the checker (the simulator's OOM flag
and rule M001 must agree exactly, and any plan the planner emits must
lint clean).
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.deploy_model import (
    DeploymentSpec,
    KVCachePlan,
    kv_plan_for_spec,
    spec_kv_budget_bytes,
    spec_kv_bytes_per_token,
)
from repro.analysis.findings import Severity
from repro.analysis.plan_lint import (
    builtin_deployment_specs,
    check_all_builtin_deployments,
    lint_deployment,
    lint_deployment_plan,
    lint_disaggregated,
    lint_kv_allocator,
    lint_kv_plan,
    lint_offload_plan,
)
from repro.cli import main
from repro.llm.disaggregation import DisaggregatedConfig
from repro.llm.inference import InferenceConfig, simulate_inference
from repro.llm.kv_cache import KVBlockAllocator
from repro.llm.models import get_model
from repro.llm.offloading import OffloadPlan, layer_bytes, plan_offload
from repro.llm.planning import best_batch


def rule_ids(findings):
    return {f.rule_id for f in findings}


def error_ids(findings):
    return {f.rule_id for f in findings if f.severity == Severity.ERROR}


def spec(**overrides):
    base = dict(
        model="opt-13b", framework="spinfer", gpu="RTX4090",
        num_gpus=1, batch_size=8, prompt_len=64, output_len=256,
        sparsity=0.6,
    )
    base.update(overrides)
    return DeploymentSpec(**base)


class TestMemoryRules:
    def test_m001_dense_model_too_large(self):
        findings = lint_deployment(
            spec(model="opt-66b", framework="fastertransformer",
                 sparsity=0.0)
        )
        assert "M001" in error_ids(findings)

    def test_m002_no_kv_headroom(self):
        findings = lint_deployment(
            spec(model="opt-66b", framework="fastertransformer",
                 sparsity=0.0)
        )
        assert "M002" in error_ids(findings)

    def test_m003_single_sequence_exceeds_budget(self):
        findings = lint_deployment(
            spec(batch_size=1, output_len=16000)
        )
        assert "M003" in rule_ids(findings)

    def test_m004_margin_is_tunable(self):
        clean = spec()
        assert "M004" not in rule_ids(lint_deployment(clean))
        strict = lint_deployment(clean, oom_margin=0.99)
        assert "M004" in rule_ids(strict)
        assert all(
            f.severity == Severity.WARNING
            for f in strict if f.rule_id == "M004"
        )

    def test_m005_dense_framework_with_sparsity(self):
        findings = lint_deployment(
            spec(framework="fastertransformer", sparsity=0.6)
        )
        assert "M005" in error_ids(findings)
        # the engine refuses the same configuration at run time
        with pytest.raises(ValueError):
            simulate_inference(InferenceConfig(
                model="opt-13b", framework="fastertransformer",
                sparsity=0.6,
            ))

    def test_m005_sparsity_out_of_range(self):
        assert "M005" in error_ids(lint_deployment(spec(sparsity=1.5)))
        assert "M005" in error_ids(lint_deployment(spec(sparsity=-0.1)))

    def test_m005_sparse_format_at_zero_sparsity_warns(self):
        findings = lint_deployment(spec(sparsity=0.0))
        m005 = [f for f in findings if f.rule_id == "M005"]
        assert m005 and all(
            f.severity == Severity.WARNING for f in m005
        )

    def test_m006_below_breakeven_sparsity(self):
        findings = lint_deployment(spec(sparsity=0.05))
        assert "M006" in rule_ids(findings)

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError):
            lint_deployment(spec(batch_size=0))
        with pytest.raises(ValueError):
            lint_deployment(spec(prompt_len=-1))
        with pytest.raises(KeyError):
            lint_deployment(spec(model="gpt-99"))


class TestShardingRules:
    def test_t001_more_ranks_than_heads(self):
        findings = lint_deployment(spec(num_gpus=64))
        assert "T001" in error_ids(findings)

    def test_t002_t004_t005_non_divisible_ranks(self):
        findings = lint_deployment(
            spec(model="llama2-7b", num_gpus=3)
        )
        ids = rule_ids(findings)
        assert {"T002", "T004", "T005"} <= ids
        t002 = next(f for f in findings if f.rule_id == "T002")
        assert "MB" in t002.message  # waste is quantified

    def test_t003_gqa_kv_head_replication(self):
        findings = lint_deployment(
            spec(model="llama3-8b", num_gpus=16)
        )
        ids = rule_ids(findings)
        assert "T003" in ids
        assert "T001" not in ids  # 16 ranks <= 32 heads
        assert "T004" not in ids  # 4096 % 16 == 0

    def test_single_gpu_never_fires_t_rules(self):
        findings = lint_deployment(spec(num_gpus=1))
        assert not any(f.rule_id.startswith("T") for f in findings)

    def test_shipped_power_of_two_grid_has_no_padding_waste(self):
        # all builtin model dimensions divide by 8: T002 stays silent
        for s in builtin_deployment_specs():
            assert "T002" not in rule_ids(lint_deployment(s))


class TestKVPlanRules:
    def test_k001_undersized_pool(self):
        plan = KVCachePlan(
            block_size=16, total_blocks=10, max_seqs=4, max_seq_len=100
        )
        assert "K001" in error_ids(lint_kv_plan(plan))

    def test_k001_malformed_plan(self):
        plan = KVCachePlan(
            block_size=0, total_blocks=10, max_seqs=4, max_seq_len=100
        )
        assert "K001" in error_ids(lint_kv_plan(plan))

    def test_k002_pool_overcommits_budget(self):
        plan = KVCachePlan(
            block_size=16, total_blocks=1000, max_seqs=4, max_seq_len=128
        )
        findings = lint_kv_plan(
            plan, bytes_per_token=1e6, budget_bytes=1e9
        )
        assert "K002" in error_ids(findings)
        # without budget information the rule cannot fire
        assert "K002" not in rule_ids(lint_kv_plan(plan))

    def test_k003_block_larger_than_sequence(self):
        plan = KVCachePlan(
            block_size=512, total_blocks=100, max_seqs=2, max_seq_len=128
        )
        assert "K003" in rule_ids(lint_kv_plan(plan))

    def test_k003_excessive_slack(self):
        plan = KVCachePlan(
            block_size=16, total_blocks=100, max_seqs=2, max_seq_len=17
        )
        assert "K003" in rule_ids(lint_kv_plan(plan))

    def test_derived_plan_is_clean(self):
        s = spec()
        plan = kv_plan_for_spec(s)
        findings = lint_kv_plan(
            plan,
            bytes_per_token=spec_kv_bytes_per_token(s),
            budget_bytes=spec_kv_budget_bytes(s),
        )
        assert not findings, [f.render() for f in findings]


class TestKVAllocatorRules:
    def exercised(self):
        alloc = KVBlockAllocator(total_blocks=32, block_size=16)
        alloc.allocate(0, tokens=20)
        alloc.fork(0, 1)
        for _ in range(5):
            alloc.append_token(1)
        return alloc

    def test_clean_allocator_passes(self):
        assert lint_kv_allocator(self.exercised()) == []

    def test_k004_tampered_refcount(self):
        alloc = self.exercised()
        block = alloc.sequence(0).block_ids[0]
        alloc._refcount[block] += 1
        assert "K004" in error_ids(lint_kv_allocator(alloc))

    def test_k004_block_both_free_and_allocated(self):
        alloc = self.exercised()
        alloc._free.append(alloc.sequence(1).block_ids[-1])
        assert "K004" in error_ids(lint_kv_allocator(alloc))

    def test_k005_out_of_range_block(self):
        alloc = self.exercised()
        alloc.sequence(0).block_ids.append(999)
        assert "K005" in error_ids(lint_kv_allocator(alloc))

    def test_k005_duplicate_block_in_table(self):
        alloc = self.exercised()
        table = alloc.sequence(1).block_ids
        table.append(table[-1])
        assert "K005" in error_ids(lint_kv_allocator(alloc))

    def test_k005_token_count_exceeds_capacity(self):
        alloc = self.exercised()
        alloc.sequence(0).tokens = 999
        assert "K005" in error_ids(lint_kv_allocator(alloc))


class TestOffloadRules:
    def good_plan(self):
        return plan_offload("opt-66b", "tca-bme", 0.6)

    def test_good_plan_is_clean(self):
        findings = lint_offload_plan(self.good_plan())
        assert not findings, [f.render() for f in findings]

    def test_o001_split_does_not_cover_model(self):
        plan = dataclasses.replace(
            self.good_plan(), resident_layers=10, streamed_layers=10
        )
        assert "O001" in error_ids(lint_offload_plan(plan))

    def test_o002_stream_misses_deadline(self):
        plan = self.good_plan()
        assert plan.streamed_layers > 0
        findings = lint_offload_plan(plan, step_deadline_s=1e-6)
        assert "O002" in error_ids(findings)
        # a generous deadline passes
        assert "O002" not in rule_ids(
            lint_offload_plan(plan, step_deadline_s=60.0)
        )

    def test_o003_layer_bytes_fabricated(self):
        plan = self.good_plan()
        plan = dataclasses.replace(plan, layer_bytes=plan.layer_bytes / 2)
        assert "O003" in error_ids(lint_offload_plan(plan))

    def test_o003_dense_cannot_encode_sparsity(self):
        model = get_model("opt-13b")
        plan = OffloadPlan(
            model="opt-13b", weight_format="dense", sparsity=0.5,
            layer_bytes=2.0 * model.layer_params(),
            resident_layers=40, streamed_layers=0,
            kv_reserved_bytes=0.0,
        )
        assert "O003" in error_ids(lint_offload_plan(plan))

    def test_o004_resident_layers_overflow_dram(self):
        model = get_model("opt-66b")
        plan = OffloadPlan(
            model="opt-66b", weight_format="dense", sparsity=0.0,
            layer_bytes=layer_bytes(model, "dense", 0.0),
            resident_layers=model.num_layers, streamed_layers=0,
            kv_reserved_bytes=0.0,
        )
        assert "O004" in error_ids(lint_offload_plan(plan))


class TestDisaggregationRules:
    def test_d001_d002_pools_too_small(self):
        cfg = DisaggregatedConfig(
            model="opt-66b",
            prefill_framework="fastertransformer",
            decode_framework="fastertransformer",
            gpu="RTX4090", prefill_gpus=1, decode_gpus=1,
            sparsity=0.0,
        )
        ids = error_ids(lint_disaggregated(cfg))
        assert {"D001", "D002"} <= ids

    def test_d003_migration_exceeds_budget(self):
        cfg = DisaggregatedConfig(
            model="opt-13b",
            prefill_framework="spinfer", decode_framework="spinfer",
            gpu="RTX4090", prefill_gpus=1, decode_gpus=1,
            batch_size=64, prompt_len=4096, output_len=128,
            sparsity=0.6,
        )
        findings = lint_disaggregated(cfg)
        assert "D003" in rule_ids(findings)
        assert "D003" not in rule_ids(
            lint_disaggregated(cfg, migration_budget_s=None)
        )

    def test_d004_sparsity_without_sparse_pool(self):
        cfg = DisaggregatedConfig(
            model="opt-13b",
            prefill_framework="fastertransformer",
            decode_framework="fastertransformer",
            gpu="RTX4090", prefill_gpus=2, decode_gpus=2,
            sparsity=0.6,
        )
        assert "D004" in rule_ids(lint_disaggregated(cfg))

    def test_hybrid_with_sparse_decode_has_no_d004(self):
        cfg = DisaggregatedConfig(
            model="opt-13b",
            prefill_framework="fastertransformer",
            decode_framework="spinfer",
            gpu="RTX4090", prefill_gpus=2, decode_gpus=2,
            sparsity=0.6,
        )
        assert "D004" not in rule_ids(lint_disaggregated(cfg))


class TestBuiltinSweep:
    def test_shipped_deployments_are_error_free(self):
        report = check_all_builtin_deployments()
        assert report.ok, report.render()
        assert report.checked > 150

    def test_sweep_covers_every_framework_and_gpu(self):
        specs = list(builtin_deployment_specs())
        assert {s.framework for s in specs} == {
            "spinfer", "flash-llm", "fastertransformer", "deepspeed"
        }
        assert {s.gpu for s in specs} == {"RTX4090", "A6000"}
        # sparse memory wins: spinfer never needs more GPUs than dense
        by_key = {
            (s.model, s.gpu, s.framework): s.num_gpus for s in specs
        }
        for (model, gpu, fw), gpus in by_key.items():
            if fw == "spinfer":
                dense = by_key.get((model, gpu, "fastertransformer"))
                if dense is not None:
                    assert gpus <= dense

    def test_json_report_round_trips(self):
        report = check_all_builtin_deployments(cross_check_planner=False)
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["checked"] == report.checked
        assert len(payload["findings"]) == len(report.findings)
        for item in payload["findings"]:
            assert {"rule_id", "rule", "severity", "subject",
                    "location", "message"} <= set(item)


class TestTranslationValidation:
    GRID = [
        (model, fw, gpus)
        for model in ("opt-13b", "opt-30b", "llama2-7b")
        for fw in ("spinfer", "fastertransformer")
        for gpus in (1, 2, 4)
    ]

    @pytest.mark.parametrize("model,framework,num_gpus", GRID)
    def test_m001_agrees_with_simulator_oom(
        self, model, framework, num_gpus
    ):
        sparsity = 0.6 if framework == "spinfer" else 0.0
        s = spec(model=model, framework=framework, num_gpus=num_gpus,
                 sparsity=sparsity)
        result = simulate_inference(InferenceConfig(
            model=model, framework=framework, gpu="RTX4090",
            num_gpus=num_gpus, batch_size=8, prompt_len=64,
            output_len=256, sparsity=sparsity,
        ))
        assert ("M001" in rule_ids(lint_deployment(s))) == result.oom

    @settings(max_examples=15, deadline=None)
    @given(
        model=st.sampled_from(("opt-13b", "opt-30b", "llama2-13b")),
        framework=st.sampled_from(("spinfer", "flash-llm", "deepspeed")),
        batch=st.integers(min_value=1, max_value=48),
        num_gpus=st.sampled_from((1, 2, 4, 8)),
        prompt=st.integers(min_value=16, max_value=2048),
    )
    def test_oom_iff_m001_property(
        self, model, framework, batch, num_gpus, prompt
    ):
        sparsity = 0.6 if framework in ("spinfer", "flash-llm") else 0.0
        s = spec(model=model, framework=framework, num_gpus=num_gpus,
                 batch_size=batch, prompt_len=prompt, sparsity=sparsity)
        result = simulate_inference(InferenceConfig(
            model=model, framework=framework, gpu="RTX4090",
            num_gpus=num_gpus, batch_size=batch, prompt_len=prompt,
            output_len=256, sparsity=sparsity,
        ))
        assert ("M001" in rule_ids(lint_deployment(s))) == result.oom

    @pytest.mark.parametrize("model,framework,sparsity", [
        ("opt-13b", "spinfer", 0.6),
        ("opt-13b", "fastertransformer", 0.0),
        ("llama2-7b", "flash-llm", 0.6),
    ])
    def test_planner_output_lints_clean(self, model, framework, sparsity):
        plan = best_batch(
            model, framework, gpu="RTX4090", num_gpus=2,
            batches=(1, 4, 8), sparsity=sparsity,
        )
        assert plan is not None
        template = spec(model=model, framework=framework, num_gpus=2,
                        sparsity=sparsity)
        findings = lint_deployment_plan(plan, template)
        assert not error_ids(findings), [f.render() for f in findings]

    def test_planner_rejects_what_m001_flags(self):
        s = spec(model="opt-66b", framework="fastertransformer",
                 num_gpus=1, sparsity=0.0)
        assert "M001" in error_ids(lint_deployment(s))
        assert best_batch(
            "opt-66b", "fastertransformer", gpu="RTX4090", num_gpus=1,
            batches=(8,), sparsity=0.0,
        ) is None


class TestLintCLI:
    def test_deployment_flag_exits_zero(self, capsys):
        rc = main(["lint", "--deployment"])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_deployment_json_output(self, capsys):
        rc = main(["lint", "--deployment", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["errors"] == 0

    def test_both_sweeps_combine_counts(self, capsys):
        main(["lint", "--all-builtin"])
        programs = capsys.readouterr().out
        main(["lint", "--deployment", "--all-builtin"])
        combined = capsys.readouterr().out
        n = int(programs.split("checked ")[1].split(" ")[0])
        m = int(combined.split("checked ")[1].split(" ")[0])
        assert m > n
