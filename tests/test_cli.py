"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_experiments_registered(self):
        expected = {
            "fig01", "fig02", "fig03", "fig04", "fig09", "fig10",
            "fig10_a6000", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16", "tab01",
            "abl_grouptile", "abl_splitk", "abl_mma_shape", "abl_quant",
            "ext_serving", "ext_serving_runtime", "ext_disagg",
            "ext_accuracy", "ext_offload", "ext_memory", "ext_chaos",
            "ext_server", "ext_fleet", "ext_integrity",
        }
        assert expected == set(EXPERIMENTS)

    @pytest.mark.parametrize("argv, flag", [
        pytest.param(
            ["encode", "--m", "512", "--k", "512", "--sparsity", "-0.2"],
            "--sparsity", id="encode-negative-sparsity",
        ),
        pytest.param(
            ["offload", "--model", "opt-66b", "--batch", "0"],
            "--batch", id="offload-zero-batch",
        ),
        pytest.param(
            ["profile", "--m", "512", "--k", "512", "--sparsity", "1.5"],
            "--sparsity", id="profile-sparsity-above-one",
        ),
        pytest.param(
            ["dispatch", "--m", "512", "--k", "512", "--sparsity", "2"],
            "--sparsity", id="dispatch-sparsity-above-one",
        ),
        pytest.param(
            ["sweep", "--m", "512", "--k", "512", "--ns", "0"],
            "--ns", id="sweep-zero-n",
        ),
        pytest.param(
            ["simulate", "--model", "opt-13b", "--batch", "0"],
            "--batch", id="simulate-zero-batch",
        ),
    ])
    def test_out_of_range_number_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected" in err
        assert "Traceback" not in err


class TestBenchCommand:
    def test_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "fig03"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Compression ratio" in out
        assert list(tmp_path.iterdir()) == []  # prints, writes nothing

    def test_gpu_override(self, capsys):
        rc = main(["bench", "fig01", "--gpu", "A6000"])
        assert rc == 0
        assert "on A6000" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        rc = main(["bench", "fig99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestProfileCommand:
    def test_default_kernels(self, capsys):
        rc = main(["profile", "--m", "4096", "--k", "4096", "--n", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spinfer" in out and "cublas_tc" in out
        assert "vs_cublas" in out

    def test_kernel_subset(self, capsys):
        rc = main([
            "profile", "--m", "2048", "--k", "2048",
            "--kernels", "spinfer", "cublas_tc",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sputnik" not in out


class TestEncodeCommand:
    def test_basic(self, capsys):
        rc = main(["encode", "--m", "256", "--k", "256", "--sparsity", "0.6"])
        assert rc == 0
        assert "CR" in capsys.readouterr().out

    def test_all_formats(self, capsys):
        rc = main(["encode", "--m", "128", "--k", "128", "--all-formats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tca-bme" in out and "csr" in out


class TestSimulateCommand:
    def test_fits(self, capsys):
        rc = main([
            "simulate", "--model", "opt-13b", "--framework", "spinfer",
            "--gpus", "1", "--batch", "8", "--output-len", "64",
        ])
        assert rc == 0
        assert "tokens/s" in capsys.readouterr().out

    def test_oom_exit_code(self, capsys):
        rc = main([
            "simulate", "--model", "opt-66b", "--framework",
            "fastertransformer", "--sparsity", "0.0", "--gpus", "1",
        ])
        assert rc == 1
        assert "OOM" in capsys.readouterr().out


class TestModelsCommand:
    def test_lists_zoo(self, capsys):
        rc = main(["models"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "opt-13b" in out and "mixtral-8x7b" in out


class TestDispatchCommand:
    def test_decode_shape(self, capsys):
        rc = main(["dispatch", "--m", "28672", "--k", "8192", "--n", "16"])
        assert rc == 0
        assert "spinfer" in capsys.readouterr().out

    def test_dense_fallback_prefill(self, capsys):
        rc = main(["dispatch", "--m", "28672", "--k", "8192", "--n", "8192",
                   "--dense-fallback"])
        assert rc == 0
        assert "cublas_tc" in capsys.readouterr().out


class TestOffloadCommand:
    def test_plan_printed(self, capsys):
        rc = main(["offload", "--model", "opt-66b", "--format", "tca-bme"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resident layers" in out

    def test_infeasible_exit_code(self, capsys):
        rc = main(["offload", "--model", "opt-175b", "--format", "dense",
                   "--sparsity", "0.0", "--batch", "32", "--context", "2048"])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().out


class TestReportCommand:
    def test_report_written(self, capsys, tmp_path, monkeypatch):
        # Restrict the registry so the test stays fast.
        import repro.cli as cli
        from repro.bench.format_bench import fig03_compression

        monkeypatch.setattr(cli, "EXPERIMENTS", {"fig03": fig03_compression})
        out_path = str(tmp_path / "R.md")
        rc = main(["report", "--output", out_path])
        assert rc == 0
        assert "report written" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_prints_table(self, capsys):
        rc = main(["sweep", "--m", "2048", "--k", "2048", "--ns", "16",
                   "--sparsities", "0.5", "--kernels", "spinfer"])
        assert rc == 0
        assert "Kernel sweep" in capsys.readouterr().out

    def test_sweep_csv(self, capsys, tmp_path):
        out = str(tmp_path / "s.csv")
        rc = main(["sweep", "--m", "1024", "--k", "1024", "--ns", "8",
                   "--sparsities", "0.6", "--csv", out])
        assert rc == 0
        assert "csv written" in capsys.readouterr().out


class TestServeCommand:
    def test_text_output(self, capsys):
        rc = main([
            "serve", "--model", "opt-13b", "--requests", "8",
            "--arrival-rate", "4", "--max-batch", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "ttft" in out

    def test_json_output(self, capsys):
        import json

        rc = main([
            "serve", "--model", "opt-13b", "--requests", "8",
            "--arrival-rate", "4", "--max-batch", "4", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 8
        assert payload["p99_latency_s"] > 0
        assert payload["preemptions"] == 0

    @pytest.mark.parametrize("argv", [
        pytest.param([
            "--model", "opt-13b", "--requests", "16", "--arrival-rate", "4",
            "--prompt-len", "96", "--output-lens", "32", "128", "384",
            "--max-batch", "4", "--kv-cap-tokens", "2048",
            "--chunked-prefill", "--preemption",
        ], id="chunked-preemption"),
        pytest.param([
            "--model", "opt-13b", "--policy", "sjf", "--requests", "16",
            "--arrival-rate", "4", "--max-batch", "8",
        ], id="sjf-blocking"),
        pytest.param([
            "--requests", "16", "--arrival-rate", "4", "--max-batch", "8",
            "--preemption", "--kv-cap-tokens", "1024",
        ], id="blocking-preemption"),
    ])
    def test_chunked_preemption_with_audit(self, capsys, argv):
        """The serving smoke gate: each run completes all 16 requests
        and its trace passes the runtime audit (R rules, including the
        causal time order of blocking-prefill iterations)."""
        import json

        rc = main(["serve", *argv, "--audit", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 16
        assert payload["audit"]["errors"] == 0
        assert payload["audit"]["snapshots"] > 0

    def test_trace_file_input(self, capsys, tmp_path):
        import json

        trace = [
            {"request_id": 0, "arrival_s": 0.0,
             "prompt_len": 32, "output_len": 16},
            {"request_id": 1, "arrival_s": 0.5,
             "prompt_len": 64, "output_len": 8},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        rc = main([
            "serve", "--model", "opt-13b", "--trace", str(path), "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["completed"] == 2

    @pytest.mark.parametrize("trace, problem", [
        ([{"request_id": 0, "arrival_s": 0.0, "prompt_len": 32}],
         "0: missing field 'output_len'"),
        ([{"request_id": 0, "arrival_s": 0.0, "prompt_len": 32,
           "output_len": 8}, 7],
         "1: expected an object, got int"),
        ([{"request_id": 0, "arrival_s": 0.0, "prompt_len": 32,
           "output_len": 8}] * 2,
         "1: duplicate request_id 0"),
        ([{"request_id": 0, "arrival_s": -1.0, "prompt_len": 32,
           "output_len": 8}],
         "0: arrival_s=-1.0 must be >= 0"),
        ([{"request_id": 0, "arrival_s": 0.0, "prompt_len": -5,
           "output_len": 8}],
         "0: prompt_len=-5 must be >= 0"),
        ([{"request_id": 0, "arrival_s": 0.0, "prompt_len": 32,
           "output_len": 0}],
         "0: output_len=0 must be >= 1"),
        ([], "the trace must be a non-empty JSON list of requests"),
    ], ids=["missing-field", "not-an-object", "duplicate-id",
            "negative-arrival", "negative-prompt", "zero-output", "empty"])
    def test_bad_trace_exits_2_naming_the_record(
        self, capsys, tmp_path, trace, problem
    ):
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        rc = main(["serve", "--trace", str(path), "--json"])
        assert rc == 2
        assert capsys.readouterr().err == f"serve: {problem}\n"

    def test_kv_budget_reports_the_capped_pool(self, capsys):
        import json

        rc = main([
            "serve", "--kv-cap-tokens", "2048", "--chunked-prefill",
            "--preemption", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kv_budget_gb"] == pytest.approx(1.678, abs=1e-3)

    def test_sjf_policy(self, capsys):
        rc = main([
            "serve", "--model", "opt-13b", "--requests", "8",
            "--arrival-rate", "8", "--policy", "sjf",
            "--output-lens", "16", "64", "--max-batch", "2",
        ])
        assert rc == 0

    def test_infeasible_model_errors(self, capsys):
        rc = main([
            "serve", "--model", "opt-66b", "--framework",
            "fastertransformer", "--sparsity", "0",
        ])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err


class TestChaosCommand:
    def test_text_output(self, capsys):
        rc = main(["chaos", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fail-fast" in out
        assert "reroute" in out
        assert "best goodput" in out

    def test_json_replay_identical(self, capsys):
        rc = main(["chaos", "--quick", "--json"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["chaos", "--quick", "--json"])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_reroute_beats_fail_fast_on_gpu_crash(self, capsys):
        import json

        rc = main(["chaos", "--quick", "--json", "--plan", "gpu-crash"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        policies = report["policies"]
        assert (policies["reroute"]["goodput_tokens_per_s"]
                > policies["fail-fast"]["goodput_tokens_per_s"])
        assert report["winner_goodput"] == "reroute"

    def test_flaky_link_retry_rescues_batch(self, capsys):
        import json

        rc = main(["chaos", "--quick", "--json", "--plan", "flaky-link",
                   "--policies", "fail-fast", "retry"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        policies = report["policies"]
        assert policies["fail-fast"]["completed"] == 0
        assert policies["retry"]["completed"] > 0

    def test_faults_lint_gate(self, capsys):
        rc = main(["lint", "--faults"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_plan_file_round_trip(self, capsys, tmp_path):
        import json

        from repro.runtime.faults import builtin_fault_plans

        plan = builtin_fault_plans()["gpu-crash"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        rc = main(["chaos", "--quick", "--json", "--plan-file", str(path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["plan"] == "gpu-crash"

    @pytest.mark.parametrize("plan_name", ["gpu-crash", "flaky-link"])
    def test_plan_file_is_read_once(
        self, capsys, tmp_path, monkeypatch, plan_name
    ):
        """Every policy arm runs the plan loaded at the start of the
        command, for the replica router and the disaggregated runtime."""
        import builtins
        import json

        from repro.runtime.faults import builtin_fault_plans

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(builtin_fault_plans()[plan_name].to_dict()))
        reads = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        rc = main(["chaos", "--quick", "--json", "--plan-file", str(path)])
        assert rc == 0
        assert len(reads) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["plan"] == plan_name

    def test_plan_file_bad_key_rejected(self, capsys, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "name": "bad", "seed": 1,
            "events": [{"t": 1.0, "kind": "gpu_crash", "oops": 3}],
        }))
        rc = main(["chaos", "--quick", "--plan-file", str(path)])
        assert rc == 2
        assert "oops" in capsys.readouterr().err

    def test_plan_file_missing_rejected(self, capsys, tmp_path):
        rc = main([
            "chaos", "--quick", "--plan-file", str(tmp_path / "nope.json"),
        ])
        assert rc == 2
        assert "chaos:" in capsys.readouterr().err


class TestIntegrityCommand:
    def test_text_output(self, capsys):
        rc = main(["integrity", "--quick", "--plans", "sdc-replica"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verify-off" in out
        assert "verify-on" in out
        assert "quarantine" in out
        assert "detection" in out

    def test_json_replay_identical_and_detects(self, capsys):
        import json

        rc = main(["integrity", "--quick", "--json",
                   "--plans", "sdc-replica"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["integrity", "--quick", "--json",
                   "--plans", "sdc-replica"])
        assert rc == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["schema"] == "repro-integrity/v1"
        assert report["headline"]["detection_rate_verify_on"] >= 0.99
        assert report["headline"]["false_negatives_verify_on"] == 0

    def test_integrity_lint_gate(self, capsys):
        rc = main(["lint", "--integrity"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


class TestServerCommand:
    def test_text_output(self, capsys):
        rc = main(["server", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sessions" in out
        assert "prefix" in out
        assert "p99" in out and "ttft" in out

    def test_json_replay_identical(self, capsys):
        rc = main(["server", "--quick", "--json"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["server", "--quick", "--json"])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_json_schema_and_reuse_wins(self, capsys):
        import json

        rc = main(["server", "--quick", "--json"])
        assert rc == 0
        reuse = json.loads(capsys.readouterr().out)
        assert reuse["schema"] == "repro-server/v1"
        rc = main(["server", "--quick", "--json", "--no-reuse"])
        assert rc == 0
        control = json.loads(capsys.readouterr().out)
        assert (reuse["report"]["prefix_cache"]["prefill_tokens"]
                < control["report"]["prefix_cache"]["prefill_tokens"])
        assert control["report"]["prefix_cache"]["hits"] == 0

    def test_crash_plan_completes_leak_free(self, capsys):
        import json

        rc = main(["server", "--quick", "--json", "--plan", "gpu-crash"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["runtime"]["faults"] >= 1
        assert report["prefix_cache"]["leaked_blocks"] == 0

    def test_server_lint_gate(self, capsys):
        rc = main(["lint", "--server"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out


class TestFleetCommand:
    def test_text_output(self, capsys):
        rc = main(["fleet", "--quick"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pareto frontier" in out
        assert "target-util" in out and "static-2" in out
        assert "dominates" in out

    def test_json_replay_identical(self, capsys):
        rc = main(["fleet", "--quick", "--json"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["fleet", "--quick", "--json"])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_fault_arm_replay_identical(self, capsys):
        rc = main(["fleet", "--quick", "--json", "--plan", "chaos-mix"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["fleet", "--quick", "--json", "--plan", "chaos-mix"])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_json_schema_and_dominance(self, capsys):
        import json

        rc = main(["fleet", "--quick", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-fleet/v1"
        report = doc["report"]
        assert report["pareto_frontier"]
        assert report["dominates"]["target-util"]

    def test_policy_subset(self, capsys):
        import json

        rc = main(["fleet", "--quick", "--json",
                   "--policies", "static-2", "target-util"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert set(report["policies"]) == {"static-2", "target-util"}

    def test_unknown_policy_exits_2(self, capsys):
        rc = main(["fleet", "--quick", "--policies", "nope"])
        assert rc == 2
        assert "bad fleet scenario" in capsys.readouterr().err

    def test_unknown_profile_exits_2(self):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--profile", "lunar"])
        assert exc.value.code == 2

    def test_fleet_lint_gate(self, capsys):
        rc = main(["lint", "--fleet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_list_rules_includes_a_family(self, capsys):
        rc = main(["lint", "--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for rule in ("A001", "A002", "A003", "A004", "A005"):
            assert rule in out
