"""Command-line interface.

Subcommands mirror the library's main entry points::

    repro report                    # every table/figure -> results/REPORT.md
    repro bench fig10 --gpu A6000   # print one experiment
    repro profile --m 28672 --k 8192 --n 16 --sparsity 0.6
    repro encode --m 4096 --k 4096 --sparsity 0.6
    repro simulate --model opt-13b --framework spinfer --gpus 1
    repro serve --model opt-13b --chunked-prefill --preemption
    repro server --sessions 8 --turns 3   # multi-turn streaming server
    repro chaos --plan gpu-crash    # recovery policies under faults
    repro integrity --quick --json  # SDC detection vs verification cost
    repro fleet --json              # capacity planner: policy sweep -> Pareto
    repro lint --all-builtin        # static checks (W*/P*/F* rules)
    repro lint --deployment         # deployment checks (M*/T*/K*/O*/D*)
    repro lint --faults             # recovery-policy checks (R* rules)
    repro lint --integrity          # integrity-policy/SDC checks (C*)
    repro lint --fleet              # autoscaler/fleet checks (A* rules)
    repro lint --server             # server admission/session checks (Q*)
    repro lint --source             # determinism lint of repo source (S*)
    repro lint --schedule           # schedule-race dual replay (H002)
    repro lint --list-rules         # combined rule catalogue
    repro models                    # list the model zoo

Everything prints rendered text tables; ``report`` writes the one
committed record, ``results/REPORT.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable, Dict, List, Optional

from .bench.ablation_bench import (
    abl_grouptile_size,
    abl_mma_shape,
    abl_quantization,
    abl_split_k,
)
from .bench.accuracy_bench import ext_accuracy
from .bench.chaos_bench import ext_chaos
from .bench.disagg_bench import ext_disaggregation
from .bench.e2e_bench import (
    fig02_breakdown,
    fig13_e2e_rtx4090,
    fig14_e2e_a6000,
    fig15_time_breakdown,
)
from .bench.fleet_bench import ext_fleet
from .bench.format_bench import fig03_compression, fig04_roofline
from .bench.harness import format_table
from .bench.integrity_bench import ext_integrity
from .bench.kernel_bench import (
    fig01_motivation,
    fig10_kernel_sweep,
    fig11_smat_comparison,
    fig12_micro_metrics,
    fig16_prefill,
    tab01_ablation,
)
from .bench.memory_bench import ext_memory_walls
from .bench.offload_bench import ext_offloading
from .bench.pipeline_bench import fig09_pipeline_schedule
from .bench.server_bench import ext_server
from .bench.serving_bench import ext_serving, ext_serving_runtime
from .gpu.specs import A6000, GPUS, get_gpu
from .kernels import KERNELS, make_kernel
from .kernels.base import SpMMProblem
from .llm.inference import InferenceConfig, simulate_inference
from .llm.models import MODELS

__all__ = ["main", "build_parser"]

#: Experiment registry: id -> zero-argument callable.
EXPERIMENTS: Dict[str, Callable] = {
    "fig01": fig01_motivation,
    "fig02": fig02_breakdown,
    "fig03": fig03_compression,
    "fig04": fig04_roofline,
    "fig09": fig09_pipeline_schedule,
    "fig10": fig10_kernel_sweep,
    "fig10_a6000": partial(fig10_kernel_sweep, A6000),
    "fig11": fig11_smat_comparison,
    "fig12": fig12_micro_metrics,
    "fig13": fig13_e2e_rtx4090,
    "fig14": fig14_e2e_a6000,
    "fig15": fig15_time_breakdown,
    "fig16": fig16_prefill,
    "tab01": tab01_ablation,
    "abl_grouptile": abl_grouptile_size,
    "abl_splitk": abl_split_k,
    "abl_mma_shape": abl_mma_shape,
    "abl_quant": abl_quantization,
    "ext_chaos": ext_chaos,
    "ext_integrity": ext_integrity,
    "ext_server": ext_server,
    "ext_serving": ext_serving,
    "ext_serving_runtime": ext_serving_runtime,
    "ext_disagg": ext_disaggregation,
    "ext_fleet": ext_fleet,
    "ext_accuracy": ext_accuracy,
    "ext_offload": ext_offloading,
    "ext_memory": ext_memory_walls,
}

#: Experiments accepting a GPU argument.
_GPU_PARAM = {"fig01", "fig09", "fig10", "fig11", "fig12", "fig16", "tab01"}


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.check:
        return _bench_check(args)
    if args.experiment is None:
        return _bench_perf(args)
    targets = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for exp_id in targets:
        try:
            fn = EXPERIMENTS[exp_id]
        except KeyError:
            print(
                f"unknown experiment {exp_id!r}; available: "
                f"{', '.join(sorted(EXPERIMENTS))} or 'all'",
                file=sys.stderr,
            )
            return 2
        if exp_id in _GPU_PARAM and args.gpu:
            exp = fn(get_gpu(args.gpu))
        else:
            exp = fn()
        print(exp.render())
    return 0


def _bench_perf(args: argparse.Namespace) -> int:
    """Run the perf suites; with --json also write BENCH_*.json files."""
    import json as json_mod
    import os

    from .perf.suite import SUITES, run_suite, suite_filename, write_results

    progress = None if args.json else (lambda msg: print(f"[bench] {msg}"))
    documents = {}
    for suite in sorted(SUITES):
        records = run_suite(
            suite,
            quick=args.quick,
            repeats=args.repeats,
            seed=args.seed,
            progress=progress,
        )
        documents[suite] = records

    if args.json:
        out_dir = args.output or "."
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        for suite, records in documents.items():
            path = os.path.join(out_dir, suite_filename(suite))
            write_results(records, path, suite=suite, quick=args.quick)
            paths[suite] = path
        print(json_mod.dumps(
            {"written": paths, "quick": args.quick}, indent=2, sort_keys=True
        ))
        return 0

    for suite, records in documents.items():
        rows = [
            [
                r["case"],
                "x".join(str(s) for s in r["shape"]),
                f"{r['sparsity']:.0%}",
                f"{r['median_s'] * 1e3:.3f}",
                f"{r['mad_s'] * 1e3:.3f}",
                r["repeats"],
                r["checksum"],
            ]
            for r in records
        ]
        print(f"# perf suite: {suite}"
              f" ({'quick' if args.quick else 'full'} shapes)")
        print(format_table(
            ["case", "shape", "sparsity", "median_ms", "mad_ms", "reps", "checksum"],
            rows,
        ))
        print()
    return 0


def _bench_check(args: argparse.Namespace) -> int:
    """Gate fresh measurements against committed BENCH_*.json baselines."""
    import os

    from .perf.regression import compare_documents, render_regressions
    from .perf.suite import load_results, run_suite

    fresh_docs = {}
    if args.against:
        for spec in args.against:
            paths = (
                [os.path.join(spec, f) for f in sorted(os.listdir(spec))
                 if f.endswith(".json")]
                if os.path.isdir(spec)
                else [spec]
            )
            for path in paths:
                doc = load_results(path)
                fresh_docs[doc["suite"]] = doc

    exit_code = 0
    for baseline_path in args.check:
        baseline = load_results(baseline_path)
        suite = baseline["suite"]
        fresh = fresh_docs.get(suite)
        if fresh is None:
            records = run_suite(
                suite, quick=True, repeats=args.repeats, seed=args.seed
            )
            fresh = {"suite": suite, "quick": True, "cases": records}
        try:
            regressions, notes = compare_documents(
                baseline, fresh, tolerance=args.tolerance
            )
        except ValueError as exc:
            print(f"bench check refused: {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"== {baseline_path} (suite {suite}, "
              f"tolerance {args.tolerance:.2f}) ==")
        print(render_regressions(regressions, notes))
        if regressions:
            exit_code = 1
    if exit_code:
        print("bench check FAILED", file=sys.stderr)
    return exit_code


def _cmd_profile(args: argparse.Namespace) -> int:
    gpu = get_gpu(args.gpu)
    problem = SpMMProblem(m=args.m, k=args.k, n=args.n, sparsity=args.sparsity)
    names = args.kernels or [
        n for n in sorted(KERNELS) if not n.startswith("spinfer_")
    ]
    rows = []
    base: Optional[float] = None
    for name in names:
        p = make_kernel(name).profile(problem, gpu)
        if name == "cublas_tc":
            base = p.time_s
        rows.append([name, f"{p.time_us:.1f}", f"{p.dram_bytes / 1e6:.1f}",
                     f"{p.bandwidth_utilization:.0%}", f"{p.tc_utilization:.0%}",
                     p.registers_per_thread, p.time_s])
    rows.sort(key=lambda r: r[-1])
    table = [
        r[:-1] + ([f"{base / r[-1]:.2f}x"] if base else ["-"]) for r in rows
    ]
    print(
        f"SpMM profile: M={args.m} K={args.k} N={args.n} "
        f"sparsity={args.sparsity:.0%} on {gpu.name}"
    )
    print(format_table(
        ["kernel", "time_us", "dram_MB", "bw_util", "tc_util", "regs", "vs_cublas"],
        table,
    ))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    import numpy as np

    from .core.tca_bme import encode
    from .formats.registry import FORMATS, encode_as

    rng = np.random.default_rng(args.seed)
    w = rng.standard_normal((args.m, args.k)).astype(np.float16)
    w[rng.random((args.m, args.k)) < args.sparsity] = 0

    enc = encode(w)
    print(
        f"TCA-BME: {args.m}x{args.k} at {args.sparsity:.0%} sparsity -> "
        f"{enc.storage_bytes()} B (CR {enc.compression_ratio():.3f})"
    )
    if args.all_formats:
        rows = []
        for name in sorted(FORMATS):
            f = encode_as(name, w)
            rows.append([name, f.storage_bytes(), f"{f.compression_ratio():.3f}"])
        rows.sort(key=lambda r: r[1])
        print(format_table(["format", "bytes", "CR"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = InferenceConfig(
        model=args.model,
        framework=args.framework,
        gpu=args.gpu,
        num_gpus=args.gpus,
        batch_size=args.batch,
        prompt_len=args.prompt_len,
        output_len=args.output_len,
        sparsity=args.sparsity,
    )
    r = simulate_inference(cfg)
    if r.oom:
        print(
            f"OOM: {args.model} on {args.gpus}x{args.gpu} needs "
            f"{r.memory_gb:.1f} GB/GPU"
        )
        return 1
    print(f"{args.model} / {args.framework} on {args.gpus}x{args.gpu}:")
    print(f"  throughput : {r.tokens_per_second:8.1f} tokens/s")
    print(f"  latency    : {r.total_s:8.2f} s "
          f"(prefill {r.prefill.total_s:.2f} s, decode {r.decode.total_s:.2f} s)")
    print(f"  memory     : {r.memory_gb:8.1f} GB/GPU")
    d = r.decode
    print(
        f"  decode mix : linear {d.linear_s:.2f} s, attention "
        f"{d.attention_s:.2f} s, comm {d.comm_s:.2f} s, other {d.other_s:.2f} s"
    )
    return 0


def _load_serve_trace(path: str) -> list:
    """The ``serve --trace`` requests: a non-empty JSON list of objects
    with ``request_id``, ``arrival_s``, ``prompt_len`` and ``output_len``.
    Raises ValueError prefixed with the index of the record at fault."""
    from .runtime.request import SessionRequest

    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ValueError("the trace must be a non-empty JSON list of requests")
    requests, seen = [], set()
    for index, record in enumerate(raw):
        try:
            if not isinstance(record, dict):
                raise ValueError(
                    f"expected an object, got {type(record).__name__}"
                )
            req = SessionRequest(
                request_id=int(record["request_id"]),
                arrival_s=float(record["arrival_s"]),
                prompt_len=int(record["prompt_len"]),
                output_len=int(record["output_len"]),
            )
            if req.request_id in seen:
                raise ValueError(f"duplicate request_id {req.request_id}")
        except KeyError as exc:
            raise ValueError(f"{index}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{index}: {exc}") from None
        seen.add(req.request_id)
        requests.append(req)
    return requests


def _cmd_serve(args: argparse.Namespace) -> int:
    from .llm.serving import (
        ServingConfig,
        ServingSimulator,
        mixed_workload,
        poisson_workload,
    )

    if args.trace:
        try:
            requests = _load_serve_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    elif len(args.output_lens) > 1:
        requests = mixed_workload(
            args.requests, arrival_rate=args.arrival_rate,
            output_lens=tuple(args.output_lens),
            prompt_len=args.prompt_len, seed=args.seed,
        )
    else:
        requests = poisson_workload(
            args.requests, arrival_rate=args.arrival_rate,
            prompt_len=args.prompt_len, output_len=args.output_lens[0],
            seed=args.seed,
        )

    snapshot_every = args.snapshot_every
    if args.audit and not snapshot_every:
        snapshot_every = 4  # auditing needs snapshots to audit
    cfg = ServingConfig(
        model=args.model,
        framework=args.framework,
        gpu=args.gpu,
        num_gpus=args.gpus,
        sparsity=args.sparsity,
        max_batch=args.max_batch,
        policy=args.policy,
        chunked_prefill=args.chunked_prefill,
        chunk_tokens=args.chunk_tokens,
        preemption=args.preemption,
        snapshot_every=snapshot_every,
        kv_cap_tokens=args.kv_cap_tokens,
    )
    try:
        sim = ServingSimulator(cfg)
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    stats = sim.run(requests)

    payload = {
        "schema": "repro-serve/v1",
        "completed": len(stats.completed),
        "rejected": [r.request_id for r in stats.rejected],
        "makespan_s": stats.makespan_s,
        "throughput_tokens_per_s": stats.goodput_tokens_per_s,
        "peak_batch": stats.peak_batch,
        "preemptions": stats.preemptions,
        "iterations": stats.iterations,
        "kv_budget_gb": stats.kv_budget_bytes / 1e9,
        "events": len(stats.trace.events) if stats.trace else 0,
    }
    if stats.completed:
        payload.update(
            mean_latency_s=stats.mean_latency_s,
            p50_latency_s=stats.latency_percentile(50),
            p99_latency_s=stats.latency_percentile(99),
            mean_ttft_s=stats.mean_ttft_s,
            p99_ttft_s=stats.ttft_percentile(99),
        )

    audit_errors = 0
    if args.audit:
        from .analysis.findings import Severity
        from .analysis.plan_lint import lint_runtime_trace

        findings = lint_runtime_trace(stats.trace)
        audit_errors = sum(
            1 for f in findings if f.severity == Severity.ERROR
        )
        payload["audit"] = {
            "snapshots": len(stats.trace.snapshots),
            "findings": len(findings),
            "errors": audit_errors,
        }

    if args.json:
        # Versioned + key-sorted so replays are byte-comparable (the
        # same contract repro chaos/server --json honour).
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"{cfg.model} / {cfg.framework} on {cfg.num_gpus}x{cfg.gpu} "
            f"({cfg.policy}, "
            f"{'chunked' if cfg.chunked_prefill else 'blocking'} prefill, "
            f"preemption {'on' if cfg.preemption else 'off'}):"
        )
        print(f"  completed  : {payload['completed']}/{len(requests)} "
              f"requests in {stats.makespan_s:.2f} s")
        if stats.rejected:
            print(f"  rejected   : {len(stats.rejected)} request(s) whose "
                  "KV exceeds the whole pool")
        print(f"  throughput : {stats.goodput_tokens_per_s:8.1f} tokens/s")
        if stats.completed:
            print(f"  latency    : mean {stats.mean_latency_s:.2f} s, "
                  f"p99 {stats.latency_percentile(99):.2f} s")
            print(f"  ttft       : mean {stats.mean_ttft_s:.2f} s, "
                  f"p99 {stats.ttft_percentile(99):.2f} s")
        print(f"  kv budget  : {stats.kv_budget_bytes / 1e9:8.2f} GB "
              f"(peak batch {stats.peak_batch}, "
              f"{stats.preemptions} preemption(s))")
        if args.audit:
            print(f"  audit      : {payload['audit']['snapshots']} "
                  f"snapshot(s), {audit_errors} error finding(s)")
    if audit_errors:
        print(f"audit FAILED: {audit_errors} error finding(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_server(args: argparse.Namespace) -> int:
    from .server.streaming import ServerConfig, server_report, server_report_json

    cfg = ServerConfig(
        model=args.model,
        framework=args.framework,
        gpu=args.gpu,
        replicas=args.replicas,
        sessions=args.sessions,
        turns=args.turns,
        arrival_rate=args.arrival_rate,
        seed=args.seed,
        server_policy=args.server_policy,
        recovery=args.recovery,
        fault_plan=args.plan,
        reuse_prefix=not args.no_reuse,
    )
    if args.quick:
        cfg = cfg.quick()
    if args.json:
        print(server_report_json(cfg))
        return 0
    report = server_report(cfg)
    sess, cache, lat = (
        report["sessions"], report["prefix_cache"], report["latency"]
    )
    print(
        f"server: {cfg.model} / {cfg.framework}, {cfg.replicas} replica(s), "
        f"{sess['submitted']} session(s) / {sess['turns_submitted']} turn(s), "
        f"policy {cfg.server_policy!r}, prefix reuse "
        f"{'on' if cfg.reuse_prefix else 'off'}"
    )
    print(f"  sessions   : {sess['completed']} completed, "
          f"{sess['aborted']} aborted")
    print(f"  turns      : {sess['turns_completed']}/"
          f"{sess['turns_submitted']} completed")
    print(f"  admission  : {report['admission']['parked']} parked, "
          f"{report['admission']['refused']} refused")
    print(f"  prefix     : {cache['hits']} hit(s), {cache['misses']} "
          f"miss(es), {cache['cached_prefill_tokens']} cached vs "
          f"{cache['prefill_tokens']} prefilled token(s), "
          f"{cache['leaked_blocks']} leaked block(s)")
    print(f"  stream     : {report['stream']['events']} token event(s) in "
          f"{report['stream']['flushes']} flush(es)")
    print(f"  ttft       : mean {lat['mean_ttft_s']:.3f} s, "
          f"p99 {lat['p99_ttft_s']:.3f} s")
    print(f"  makespan   : {report['runtime']['makespan_s']:.3f} s "
          f"({report['runtime']['preemptions']} preemption(s), "
          f"{report['runtime']['faults']} fault(s))")
    return 1 if cache["leaked_blocks"] else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .llm.chaos import ChaosConfig, chaos_report, chaos_report_json
    from .runtime.faults import FaultPlan

    try:
        fault_plan = None
        if args.plan_file is not None:
            # Read once per command: every policy arm runs this plan.
            with open(args.plan_file) as fh:
                fault_plan = FaultPlan.from_dict(json.load(fh))
        cfg = ChaosConfig(
            model=args.model,
            framework=args.framework,
            gpu=args.gpu,
            replicas=args.replicas,
            num_requests=args.requests,
            arrival_rate=args.arrival_rate,
            seed=args.seed,
            plan=args.plan,
            fault_plan=fault_plan,
        )
    except (ValueError, OSError, KeyError) as exc:
        # A bad --plan-file surfaces here: unreadable path, invalid
        # JSON, or FaultPlan.from_dict naming the offending key.
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        cfg = cfg.quick()
    try:
        if args.json:
            print(chaos_report_json(cfg, policies=args.policies))
            return 0
        report = chaos_report(cfg, policies=args.policies)
    except ValueError as exc:
        # A plan file whose events the injector rejects when it arms.
        print(f"chaos: {exc}", file=sys.stderr)
        return 2
    print(
        f"chaos: plan {cfg.plan!r} on {cfg.model} / {cfg.framework}, "
        f"{cfg.replicas} replica(s), {cfg.num_requests} request(s)"
    )
    rows = []
    for name, m in sorted(report["policies"].items()):
        rows.append([
            name, m["completed"],
            m["failed"] + m["shed"] + m["timed_out"] + m["cancelled"],
            m["retries"], m["wasted_recompute_tokens"],
            f"{m['goodput_tokens_per_s']:.1f}", f"{m['availability']:.3f}",
            f"{m['makespan_s']:.3f}",
        ])
    print(format_table(
        ["policy", "done", "lost", "retries", "wasted_tok",
         "goodput", "avail", "makespan_s"],
        rows,
    ))
    print(f"best goodput: {report['winner_goodput']}")
    return 0


def _cmd_integrity(args: argparse.Namespace) -> int:
    from .integrity.harness import (
        IntegrityConfig,
        integrity_report,
        integrity_report_json,
    )
    from .llm.chaos import ChaosConfig

    try:
        cfg = IntegrityConfig(
            chaos=ChaosConfig(
                model=args.model,
                framework=args.framework,
                gpu=args.gpu,
                replicas=args.replicas,
                num_requests=args.requests,
                arrival_rate=args.arrival_rate,
                seed=args.seed,
            ),
            recovery=args.recovery,
            plans=tuple(args.plans) if args.plans else IntegrityConfig().plans,
        )
    except ValueError as exc:
        print(f"integrity: {exc}", file=sys.stderr)
        return 2
    if args.quick:
        cfg = cfg.quick()
    if args.json:
        print(integrity_report_json(cfg))
        return 0
    report = integrity_report(cfg)
    chaos = cfg.chaos
    print(
        f"integrity: plans {', '.join(cfg.plans)} on {chaos.model} / "
        f"{chaos.framework}, {chaos.replicas} replica(s), "
        f"{chaos.num_requests} request(s), recovery {cfg.recovery!r}"
    )
    rows = []
    for arm, data in sorted(report["arms"].items()):
        s = data["summary"]
        rows.append([
            arm, s["sdc_injected"], s["sdc_detected"],
            f"{s['detection_rate']:.3f}", s["false_negatives"],
            s["quarantines"], f"{s['verification_s']:.4f}",
            f"{s['goodput_tokens_per_s']:.1f}",
        ])
    print(format_table(
        ["arm", "injected", "detected", "det_rate", "served_bad",
         "quarantined", "verify_s", "goodput"],
        rows,
    ))
    h = report["headline"]
    print(
        f"verify-on: detection {h['detection_rate_verify_on']:.3f}, "
        f"{h['false_negatives_verify_on']} corrupted served "
        f"(verify-off served {h['served_corrupted_verify_off']}), "
        f"goodput cost {100 * h['goodput_cost_frac']:.2f}%"
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .fleet.planner import FleetConfig, fleet_report, fleet_report_json

    try:
        cfg = FleetConfig(
            fleet=args.fleet,
            profile=args.profile,
            policies=tuple(args.policies)
            if args.policies
            else FleetConfig().policies,
            recovery=args.recovery,
            fault_plan=args.plan,
            seed=args.seed,
            quick=args.quick,
        )
        if args.json:
            print(fleet_report_json(cfg))
            return 0
        report = fleet_report(cfg)
    except (KeyError, ValueError) as exc:
        print(f"bad fleet scenario: {exc}", file=sys.stderr)
        return 2
    traffic = report["traffic"]
    print(
        f"fleet: {cfg.fleet!r} under {cfg.profile!r} traffic "
        f"({traffic['sessions']} session(s), mean {traffic['mean_rate']:.2f} "
        f"-> peak {traffic['peak_rate']:.2f} sessions/s), "
        f"fault plan {cfg.fault_plan!r}"
    )
    rows = []
    for name, p in sorted(report["policies"].items()):
        rows.append([
            name,
            f"{p['cost']['usd']:.6f}",
            f"{p['service']['goodput_tokens_per_s']:.1f}",
            f"{p['service']['slo_attainment']:.3f}",
            f"{p['service']['availability']:.3f}",
            p["scaling"]["peak_replicas"],
            p["scaling"]["scale_ups"],
            p["scaling"]["scale_downs"],
            p["kv_migration"]["migrations"],
        ])
    print(format_table(
        ["policy", "cost_usd", "goodput", "slo", "avail", "peak",
         "ups", "downs", "kv_migr"],
        rows,
    ))
    print(f"pareto frontier: {', '.join(report['pareto_frontier'])}")
    for name, beaten in sorted(report["dominates"].items()):
        verdict = ", ".join(beaten) if beaten else "(none)"
        print(f"  {name} dominates: {verdict}")
    scale = report["fleet_scale"]
    for name in sorted(scale):
        s = scale[name]
        print(
            f"  at {traffic['modeled_users']:,} users: {name} peaks at "
            f"~{s['peak_replicas']:,.0f} replicas "
            f"(${s['usd_per_hour_at_peak']:,.2f}/h)"
        )
    return 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from .kernels.dispatch import KernelDispatcher

    dispatcher = KernelDispatcher(
        gpu=get_gpu(args.gpu),
        dense_weights_available=args.dense_fallback,
    )
    problem = SpMMProblem(
        m=args.m, k=args.k, n=args.n, sparsity=args.sparsity,
        block_occupancy=args.block_occupancy,
    )
    d = dispatcher.select(problem)
    print(
        f"dispatch: {d.kernel_name} "
        f"({d.profile.time_us:.1f} us; runner-up {d.runner_up} at "
        f"{d.margin:.2f}x)"
    )
    return 0


def _cmd_offload(args: argparse.Namespace) -> int:
    from .llm.offloading import plan_offload

    try:
        plan = plan_offload(
            args.model, args.format, args.sparsity, args.gpu,
            batch_size=args.batch, context_len=args.context,
        )
    except ValueError as exc:
        print(f"infeasible: {exc}")
        return 1
    print(f"{args.model} ({args.format}) on one {args.gpu}:")
    print(f"  resident layers : {plan.resident_layers}/{plan.total_layers}")
    print(f"  streamed per step: {plan.streamed_bytes_per_step / 1e9:.2f} GB over PCIe")
    print(f"  KV reservation  : {plan.kv_reserved_bytes / 1e9:.2f} GB")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.sweeps import export_csv, kernel_sweep

    exp = kernel_sweep(
        args.m, args.k,
        kernels=tuple(args.kernels),
        ns=tuple(args.ns),
        sparsities=tuple(args.sparsities),
        gpu=get_gpu(args.gpu),
    )
    print(exp.render())
    if args.csv:
        print(f"[csv written to {export_csv(exp, args.csv)}]")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.report import write_report

    path = write_report(args.output)
    print(f"report written to {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.builtin import check_all_builtin_programs
    from .analysis.fault_lint import check_builtin_fault_artifacts
    from .analysis.findings import Report, Severity, ensure_all_registered, rule_table
    from .analysis.fleet_lint import check_builtin_fleet_artifacts
    from .analysis.integrity_lint import check_builtin_integrity_artifacts
    from .analysis.plan_lint import check_all_builtin_deployments
    from .analysis.schedule_lint import check_builtin_schedules
    from .analysis.server_lint import check_builtin_server_artifacts
    from .analysis.source_lint import check_source

    if args.list_rules:
        ensure_all_registered()
        rows = rule_table()
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            print(format_table(
                ["rule", "name", "severity", "family", "gate"],
                [[r["rule_id"], r["name"], r["severity"], r["family_title"],
                  r["gate"]] for r in rows],
            ))
        return 0

    # Target selection: --all-builtin sweeps the kernel-layer artifacts
    # (warp programs, pipeline traces, formats), --deployment sweeps the
    # deployment artifacts (specs, KV plans, offload, disaggregation,
    # planner output), --faults sweeps recovery policies and chaos-run
    # outcomes, --fleet sweeps autoscaler policies and quick fleet runs
    # (flapping, kill-on-scale-down, unbounded ceilings, dropped KV,
    # conservation), --server sweeps admission policies / session teardown /
    # token-stream ordering, --source lints this repo's own Python for determinism
    # hazards, --schedule dual-replays every builtin scenario under a
    # reversed same-time tie-break, --integrity sweeps integrity
    # policies and SDC-run ledger audits.  With no flag every sweep runs.
    any_flag = (
        args.all_builtin or args.deployment or args.faults
        or args.fleet or args.server or args.source or args.schedule
        or args.integrity
    )
    run_programs = args.all_builtin or not any_flag
    run_deployments = args.deployment or not any_flag
    run_faults = args.faults or not any_flag
    run_fleet = args.fleet or not any_flag
    run_server = args.server or not any_flag
    run_source = args.source or not any_flag
    run_schedule = args.schedule or not any_flag
    run_integrity = args.integrity or not any_flag
    report = Report()
    for enabled, sweep in (
        (run_programs, check_all_builtin_programs),
        (run_deployments, check_all_builtin_deployments),
        (run_faults, check_builtin_fault_artifacts),
        (run_fleet, check_builtin_fleet_artifacts),
        (run_server, check_builtin_server_artifacts),
        (run_source, check_source),
        (run_schedule, check_builtin_schedules),
        (run_integrity, check_builtin_integrity_artifacts),
    ):
        if enabled:
            report.merge(sweep())
    if args.json:
        print(report.to_json())
    else:
        min_severity = Severity.INFO if args.verbose else Severity.WARNING
        print(report.render(min_severity=min_severity))
    if not report.ok:
        print(f"lint FAILED: {len(report.errors)} error finding(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_models(_args: argparse.Namespace) -> int:
    rows = []
    for name, m in sorted(MODELS.items()):
        rows.append([
            name, m.num_layers, m.hidden_size, m.ffn_size,
            f"{m.total_params() / 1e9:.1f}B",
            f"{m.weight_bytes_dense() / 1e9:.1f}",
        ])
    print(format_table(
        ["model", "layers", "hidden", "ffn", "params", "weights GB (fp16)"], rows
    ))
    return 0


def _ranged(kind: type, low: float, high: float, expected: str) -> Callable:
    """An argparse ``type=`` that rejects a value outside [low, high]:
    argparse then exits 2 with a one-line error naming the flag."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}"
            )
        return value

    return parse


_sparsity = _ranged(float, 0.0, 1.0, "a sparsity in [0, 1]")
_positive_int = _ranged(int, 1, float("inf"), "a positive integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpInfer reproduction: benches, kernel profiles, "
        "format encoding and inference simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser(
        "bench",
        help="run a paper experiment (or 'all'), or — with no experiment — "
        "the perf-regression suite (see docs/PERFORMANCE.md)",
    )
    p_bench.add_argument("experiment", nargs="?", default=None,
                         help="experiment id, e.g. fig10, tab01, all; omit "
                         "to run the perf suites instead")
    p_bench.add_argument("--gpu", choices=sorted(GPUS), default=None)
    p_bench.add_argument("--quick", action="store_true",
                         help="perf suite: reduced shapes and repeats (CI mode)")
    p_bench.add_argument("--json", action="store_true",
                         help="perf suite: write BENCH_kernels.json / "
                         "BENCH_runtime.json and print their paths as JSON")
    p_bench.add_argument("--output", default=None, metavar="DIR",
                         help="directory for --json output (default: cwd)")
    p_bench.add_argument("--repeats", type=int, default=None,
                         help="perf suite: override timed repeats per case")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="perf suite: fixture RNG seed")
    p_bench.add_argument("--check", nargs="+", default=None, metavar="BASELINE",
                         help="compare against baseline BENCH_*.json file(s); "
                         "exits nonzero on perf or checksum regression")
    p_bench.add_argument("--against", nargs="+", default=None, metavar="FRESH",
                         help="fresh BENCH_*.json file(s) or a directory of "
                         "them for --check (default: re-run quick suites)")
    p_bench.add_argument("--tolerance", type=float, default=0.25,
                         help="--check: allowed relative median_s slowdown "
                         "(0.25 = fail if >25%% slower)")
    p_bench.set_defaults(func=_cmd_bench)

    p_prof = sub.add_parser("profile", help="profile SpMM kernels on a shape")
    p_prof.add_argument("--m", type=_positive_int, required=True)
    p_prof.add_argument("--k", type=_positive_int, required=True)
    p_prof.add_argument("--n", type=_positive_int, default=16)
    p_prof.add_argument("--sparsity", type=_sparsity, default=0.6)
    p_prof.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_prof.add_argument("--kernels", nargs="*", choices=sorted(KERNELS))
    p_prof.set_defaults(func=_cmd_profile)

    p_enc = sub.add_parser("encode", help="encode a random matrix, report storage")
    p_enc.add_argument("--m", type=_positive_int, default=4096)
    p_enc.add_argument("--k", type=_positive_int, default=4096)
    p_enc.add_argument("--sparsity", type=_sparsity, default=0.6)
    p_enc.add_argument("--seed", type=int, default=0)
    p_enc.add_argument("--all-formats", action="store_true")
    p_enc.set_defaults(func=_cmd_encode)

    p_sim = sub.add_parser("simulate", help="simulate end-to-end generation")
    p_sim.add_argument("--model", choices=sorted(MODELS), required=True)
    p_sim.add_argument("--framework", default="spinfer")
    p_sim.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_sim.add_argument("--gpus", type=_positive_int, default=1)
    p_sim.add_argument("--batch", type=_positive_int, default=8)
    p_sim.add_argument("--prompt-len", type=int, default=64)
    p_sim.add_argument("--output-len", type=int, default=256)
    p_sim.add_argument("--sparsity", type=float, default=0.6)
    p_sim.set_defaults(func=_cmd_simulate)

    p_serve = sub.add_parser(
        "serve",
        help="simulate a serving trace on the event runtime "
        "(continuous batching, chunked prefill, preemption)",
    )
    p_serve.add_argument("--model", choices=sorted(MODELS), default="opt-13b")
    p_serve.add_argument("--framework", default="spinfer")
    p_serve.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_serve.add_argument("--gpus", type=int, default=1)
    p_serve.add_argument("--sparsity", type=float, default=0.6)
    p_serve.add_argument("--max-batch", type=int, default=16)
    p_serve.add_argument("--policy", choices=("fcfs", "sjf"), default="fcfs")
    p_serve.add_argument("--chunked-prefill", action="store_true",
                         help="interleave prompt chunks with decode steps")
    p_serve.add_argument("--chunk-tokens", type=int, default=128)
    p_serve.add_argument("--preemption", action="store_true",
                         help="admit on demand, preempt-by-recompute when "
                         "the KV pool runs dry")
    p_serve.add_argument("--requests", type=int, default=32)
    p_serve.add_argument("--arrival-rate", type=float, default=2.0,
                         help="Poisson arrival rate, requests/s")
    p_serve.add_argument("--prompt-len", type=int, default=64)
    p_serve.add_argument("--output-lens", nargs="+", type=int, default=[128],
                         help="one value = fixed outputs; several = mixed")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--kv-cap-tokens", type=int, default=None,
                         help="cap the KV pool below the DRAM budget")
    p_serve.add_argument("--snapshot-every", type=int, default=0,
                         help="capture a lintable KV snapshot every N "
                         "iterations")
    p_serve.add_argument("--trace", default=None,
                         help="JSON file of requests (request_id, arrival_s, "
                         "prompt_len, output_len) instead of a synthetic "
                         "workload")
    p_serve.add_argument("--audit", action="store_true",
                         help="run the K-rule checker over the runtime's KV "
                         "snapshots; non-zero exit on error findings")
    p_serve.add_argument("--json", action="store_true",
                         help="emit stats as JSON instead of text")
    p_serve.set_defaults(func=_cmd_serve)

    p_server = sub.add_parser(
        "server",
        help="run the session-aware streaming server: multi-turn "
        "sessions over replicated pools with admission control "
        "(buckets/tiers/quotas), shared-prefix KV reuse and "
        "deterministic per-token streaming",
    )
    p_server.add_argument("--model", choices=sorted(MODELS), default="opt-13b")
    p_server.add_argument("--framework", default="spinfer")
    p_server.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_server.add_argument("--replicas", type=int, default=2,
                          help="GPU replicas behind the router")
    p_server.add_argument("--sessions", type=int, default=8)
    p_server.add_argument("--turns", type=int, default=3,
                          help="mean turns per session")
    p_server.add_argument("--arrival-rate", type=float, default=2.0,
                          help="session arrival rate, sessions/s")
    p_server.add_argument("--seed", type=int, default=5,
                          help="workload seed (think times, lengths, "
                          "tenants are all pre-drawn from it)")
    p_server.add_argument("--server-policy", default="standard",
                          choices=("standard", "open-door"),
                          help="admission policy: buckets, priority "
                          "tiers, per-tenant quotas")
    p_server.add_argument("--recovery", default="reroute",
                          choices=("fail-fast", "retry", "reroute"))
    p_server.add_argument("--plan", default=None,
                          choices=("gpu-crash", "stragglers", "chaos-mix"),
                          help="inject a builtin fault plan mid-run")
    p_server.add_argument("--no-reuse", action="store_true",
                          help="disable the session prefix cache (the "
                          "bench's control arm)")
    p_server.add_argument("--quick", action="store_true",
                          help="smaller workload (CI replay gate)")
    p_server.add_argument("--json", action="store_true",
                          help="emit the deterministic report as JSON "
                          "(schema repro-server/v1; byte-identical "
                          "across runs of the same seeds)")
    p_server.set_defaults(func=_cmd_server)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay one workload under a pinned fault plan once per "
        "recovery policy and compare SLO metrics (goodput, availability, "
        "retries, wasted recompute)",
    )
    p_chaos.add_argument("--plan", default="gpu-crash",
                         choices=("gpu-crash", "stragglers", "chaos-mix",
                                  "flaky-link", "sdc-replica", "weight-flip",
                                  "kv-poison"),
                         help="builtin fault plan to inject")
    p_chaos.add_argument("--plan-file", default=None, metavar="PATH",
                         help="load the fault plan from a JSON file "
                         "(FaultPlan.to_dict() shape) instead of a builtin; "
                         "a plan targeting only prefill/decode drives the "
                         "disaggregated runtime")
    p_chaos.add_argument("--model", choices=sorted(MODELS), default="opt-13b")
    p_chaos.add_argument("--framework", default="spinfer")
    p_chaos.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_chaos.add_argument("--replicas", type=int, default=2,
                         help="GPU replicas behind the router")
    p_chaos.add_argument("--requests", type=int, default=24)
    p_chaos.add_argument("--arrival-rate", type=float, default=4.0)
    p_chaos.add_argument("--seed", type=int, default=3,
                         help="workload seed (the fault plan has its own "
                         "pinned seed)")
    p_chaos.add_argument("--policies", nargs="+", default=None,
                         choices=("fail-fast", "retry", "reroute"),
                         help="recovery policies to compare (default: all)")
    p_chaos.add_argument("--quick", action="store_true",
                         help="smaller workload (CI replay gate)")
    p_chaos.add_argument("--json", action="store_true",
                         help="emit the deterministic comparison report as "
                         "JSON (byte-identical across runs of the same "
                         "seeds)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_integrity = sub.add_parser(
        "integrity",
        help="replay the silent-data-corruption fault plans under "
        "verify-off / verify-on / quarantine integrity arms with "
        "identical seeds and compare detection rate, false negatives "
        "and goodput (schema repro-integrity/v1)",
    )
    p_integrity.add_argument("--model", choices=sorted(MODELS),
                             default="opt-13b")
    p_integrity.add_argument("--framework", default="spinfer")
    p_integrity.add_argument("--gpu", choices=sorted(GPUS),
                             default="RTX4090")
    p_integrity.add_argument("--replicas", type=int, default=2,
                             help="GPU replicas behind the router")
    p_integrity.add_argument("--requests", type=int, default=24)
    p_integrity.add_argument("--arrival-rate", type=float, default=4.0)
    p_integrity.add_argument("--seed", type=int, default=3,
                             help="workload seed (fault plans carry their "
                             "own pinned seeds)")
    p_integrity.add_argument("--recovery", default="reroute",
                             choices=("fail-fast", "retry", "reroute"),
                             help="recovery policy shared by every arm")
    p_integrity.add_argument("--plans", nargs="+", default=None,
                             choices=("sdc-replica", "weight-flip",
                                      "kv-poison"),
                             help="SDC fault plans to replay (default: all)")
    p_integrity.add_argument("--quick", action="store_true",
                             help="smaller workload (CI replay gate)")
    p_integrity.add_argument("--json", action="store_true",
                             help="emit the deterministic report as JSON "
                             "(byte-identical across runs of the same "
                             "scenario)")
    p_integrity.set_defaults(func=_cmd_integrity)

    p_fleet = sub.add_parser(
        "fleet",
        help="run the capacity planner: replay one pinned traffic curve "
        "through static and autoscaling policies, price each run and "
        "report the cost-vs-goodput Pareto frontier",
    )
    p_fleet.add_argument("--fleet", default="consumer-mix",
                         help="builtin fleet spec (replica-class mix)")
    p_fleet.add_argument("--profile", default="diurnal",
                         choices=("diurnal", "bursty", "steady"),
                         help="builtin traffic profile")
    p_fleet.add_argument("--policies", nargs="+", default=None,
                         help="autoscaler policies to sweep (default: "
                         "static-2/3/4, target-util, queue-depth)")
    p_fleet.add_argument("--plan", default=None,
                         choices=("gpu-crash", "stragglers", "chaos-mix"),
                         help="inject a builtin fault plan into every arm")
    p_fleet.add_argument("--recovery", default="reroute",
                         choices=("fail-fast", "retry", "reroute"))
    p_fleet.add_argument("--seed", type=int, default=None,
                         help="traffic seed override (default: the "
                         "profile's pinned seed)")
    p_fleet.add_argument("--quick", action="store_true",
                         help="halved horizon (CI replay gate)")
    p_fleet.add_argument("--json", action="store_true",
                         help="emit the deterministic report as JSON "
                         "(schema repro-fleet/v1; byte-identical across "
                         "runs of the same scenario)")
    p_fleet.set_defaults(func=_cmd_fleet)

    p_lint = sub.add_parser(
        "lint",
        help="statically check warp programs, pipeline schedules, sparse "
        "formats, deployment plans, recovery policies, the repo's own "
        "source, the event-loop schedule and integrity policies "
        "(rules W*/P*/F*/M*/T*/K*/O*/D*/R*/A*/Q*/S*/H*/C*, see "
        "docs/ANALYSIS.md)",
    )
    p_lint.add_argument(
        "--all-builtin", action="store_true",
        help="sweep every warp program, pipeline trace and format "
        "container the repo constructs",
    )
    p_lint.add_argument(
        "--deployment", action="store_true",
        help="sweep every builtin deployment: model x GPU x framework "
        "specs, derived KV plans, offload and disaggregated configs, "
        "and cross-check the planner's output",
    )
    p_lint.add_argument(
        "--faults", action="store_true",
        help="sweep the builtin recovery policies (good ones must be "
        "clean, deliberately broken ones must trip their documented "
        "R rules) and audit quick chaos runs for conservation",
    )
    p_lint.add_argument(
        "--fleet", action="store_true",
        help="sweep the builtin fleet specs and autoscaler policies "
        "(good ones must be clean, deliberately broken ones must trip "
        "their documented A rules) and audit quick fleet runs — "
        "including a fault arm — for scale-event conservation",
    )
    p_lint.add_argument(
        "--server", action="store_true",
        help="sweep the builtin server policies (good ones clean, "
        "deliberately broken ones tripping their documented Q rules), "
        "audit a quick multi-turn run for prefix-block leaks and "
        "stream-ordering violations, and regression-test the stream "
        "checker against corrupted streams",
    )
    p_lint.add_argument(
        "--source", action="store_true",
        help="lint the repo's own Python for determinism hazards "
        "(ambient RNG, wall-clock reads, unordered iteration — S rules); "
        "the broken fixture package must trip its documented findings",
    )
    p_lint.add_argument(
        "--schedule", action="store_true",
        help="dual-replay every builtin serving/disaggregation/chaos/"
        "server/fleet scenario under a reversed same-time tie-break and "
        "require identical behaviour (H002)",
    )
    p_lint.add_argument(
        "--integrity", action="store_true",
        help="sweep the builtin integrity policies (shipped ones clean, "
        "deliberately broken ones tripping their documented C rules), "
        "regression-test the outcome audit against synthetic probes, "
        "and ledger-audit quick SDC runs per plan and arm",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the combined rule catalogue across all lint "
        "families and exit",
    )
    p_lint.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    p_lint.add_argument("--verbose", action="store_true",
                        help="also print info-severity findings")
    p_lint.set_defaults(func=_cmd_lint)

    p_models = sub.add_parser("models", help="list the model zoo")
    p_models.set_defaults(func=_cmd_models)

    p_report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    p_report.add_argument("--output", default=None,
                          help="path for REPORT.md (default: results/REPORT.md)")
    p_report.set_defaults(func=_cmd_report)

    p_disp = sub.add_parser("dispatch", help="pick the fastest kernel for a shape")
    p_disp.add_argument("--m", type=_positive_int, required=True)
    p_disp.add_argument("--k", type=_positive_int, required=True)
    p_disp.add_argument("--n", type=_positive_int, default=16)
    p_disp.add_argument("--sparsity", type=_sparsity, default=0.6)
    p_disp.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_disp.add_argument("--block-occupancy", type=float, default=None)
    p_disp.add_argument("--dense-fallback", action="store_true",
                        help="a dense weight copy exists (enables cuBLAS)")
    p_disp.set_defaults(func=_cmd_dispatch)

    p_off = sub.add_parser("offload", help="plan host-offloaded deployment")
    p_off.add_argument("--model", choices=sorted(MODELS), required=True)
    p_off.add_argument("--format", choices=("dense", "tca-bme"), default="tca-bme")
    p_off.add_argument("--sparsity", type=float, default=0.6)
    p_off.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_off.add_argument("--batch", type=_positive_int, default=8)
    p_off.add_argument("--context", type=int, default=512)
    p_off.set_defaults(func=_cmd_offload)

    p_sweep = sub.add_parser("sweep", help="sweep kernels over an (N, sparsity) grid")
    p_sweep.add_argument("--m", type=_positive_int, required=True)
    p_sweep.add_argument("--k", type=_positive_int, required=True)
    p_sweep.add_argument("--kernels", nargs="+", choices=sorted(KERNELS),
                         default=["spinfer", "flash_llm", "cublas_tc"])
    p_sweep.add_argument("--ns", nargs="+", type=_positive_int,
                         default=[8, 16, 32])
    p_sweep.add_argument("--sparsities", nargs="+", type=_sparsity,
                         default=[0.4, 0.5, 0.6, 0.7])
    p_sweep.add_argument("--gpu", choices=sorted(GPUS), default="RTX4090")
    p_sweep.add_argument("--csv", default=None, help="also export rows as CSV")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
