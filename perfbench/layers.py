"""Which program functions the traced run wraps, and the per-layer metrics.

Layer names are the program's module names: ``core``, ``kernels``,
``llm``, ``runtime``, ``server``, ``fleet``, ``integrity`` (plus
``sim``, the modelled-time split the runtime reports, and ``trace``).
"""

from __future__ import annotations

from typing import Dict, Optional

import repro.core.tca_bme as tca_bme
import repro.kernels.spinfer as spinfer
import repro.llm.functional_model as functional
from repro.fleet.autoscaler import AutoscalerPolicy
from repro.fleet.simulator import FleetSimulator
from repro.kernels.flash_llm import FlashLLMKernel
from repro.llm.kv_cache import KVBlockAllocator
from repro.runtime.core import EventLoop, GPUPool
from repro.runtime.faults import FaultTolerantRuntime
from repro.server.admission import AdmissionGate
from repro.server.sessions import SessionManager
from repro.server.streaming import StreamingServer

from tracer import Tracer

_KV_OPS = {"allocate": "allocate", "append": "append_token", "fork": "fork", "free": "free"}


def instrument(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""

    def spinfer_traffic(result, kernel, w, x, *args, **kwargs):
        # Bytes computed from the operand sizes: bitmaps + values + X + Y.
        tr.counters["kernels.spinfer.flops"] += 2.0 * w.m * w.k * x.shape[1]
        tr.counters["kernels.spinfer.bytes"] += (
            w.bitmaps.nbytes + w.values.nbytes + x.nbytes + result.nbytes
        )

    def decode_key(result, pool, batch, avg_context):
        tr.count_key("llm.cost.decode_step", (batch, avg_context))

    def prefill_key(result, pool, tokens):
        tr.count_key("llm.cost.prefill", tokens)

    def kv_util(result, alloc, *args, **kwargs):
        util = alloc.used_blocks / alloc.total_blocks
        if util > tr.counters["runtime.kv.peak_util"]:
            tr.counters["runtime.kv.peak_util"] = util

    def prefix_hooks(result, manager, sched):
        # The session manager's admission/retention hooks are closures
        # installed per scheduler; time them where they are installed.
        if sched.prefix_source is not None:
            sched.prefix_source = tr.wrapper(sched.prefix_source, "server.prefix", span=False)
        if sched.retain_kv is not None:
            sched.retain_kv = tr.wrapper(sched.retain_kv, "server.prefix", span=False)

    # core + kernels (functional model path)
    tr.patch(tca_bme, "encode", "core.encode")
    tr.patch(functional, "encode", "core.encode")
    tr.patch(spinfer, "decode_matrix", "core.smbd_decode")
    tr.patch(spinfer.SpInferKernel, "run_encoded", "kernels.spinfer", observe=spinfer_traffic)
    tr.patch(FlashLLMKernel, "run_encoded", "kernels.flash_llm")
    tr.patch(
        functional._Linear,
        "__call__",
        lambda lin, x, backend: "kernels.dense" if backend == "dense" else "llm.linear",
    )
    # llm: forward pass and the cost model the serving runtime prices with
    tr.patch(functional.FunctionalTransformer, "forward", "llm.forward")
    tr.patch(functional.FunctionalTransformer, "_attention", "llm.attention")
    tr.patch(functional, "_softmax", "llm.softmax", span=False)
    tr.patch(functional, "_layernorm", "llm.layernorm", span=False)
    tr.patch(GPUPool, "decode_step", "llm.cost.decode_step", span=False, observe=decode_key)
    tr.patch(GPUPool, "prefill_tokens_seconds", "llm.cost.prefill", span=False, observe=prefill_key)
    # runtime
    tr.patch(EventLoop, "run", "runtime.loop")
    tr.patch(FaultTolerantRuntime, "run", "runtime.run")
    tr.patch(FaultTolerantRuntime, "submit", "runtime.router.submit")
    for op, attr in _KV_OPS.items():
        tr.patch(
            KVBlockAllocator, attr, f"runtime.kv.{op}", span=False,
            observe=None if op == "free" else kv_util,
        )
    # server
    tr.patch(StreamingServer, "run", "server.run")
    tr.patch(AdmissionGate, "offer", "server.gate.offer")
    tr.patch(AdmissionGate, "release", "server.gate.release")
    tr.patch(SessionManager, "attach_scheduler", "server.prefix.attach", span=False, observe=prefix_hooks)
    for attr in ("pool_for", "end_session", "migrate_prefix"):
        tr.patch(SessionManager, attr, "server.prefix", span=False)
    # fleet
    tr.patch(FleetSimulator, "run", "fleet.run")
    tr.patch(AutoscalerPolicy, "desired_replicas", "fleet.autoscaler.desired_replicas")


def layer_metrics(
    tr: Tracer,
    counts: Dict[str, float],
    wall_s: float,
    traced_wall_s: float,
    oracle_tr: Optional[Tracer] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``counts`` are the program's own counters for the run (see
    :class:`workloads.Outcome`); ``wall_s`` is the untraced median wall
    time of the timed phase, ``traced_wall_s`` the traced one.
    ``oracle_tr`` traced the oracle backends (``kernels.flash_llm`` and
    ``kernels.dense``) on the same inputs, outside the timed phase.
    """
    out: Dict[str, float] = {}

    def timed(name: str, self_ms: bool = True, source: Optional[Tracer] = None) -> None:
        layer = (source or tr).layer(name)
        out[f"{name}.calls"] = layer["calls"]
        out[f"{name}.ms"] = layer["ms"]
        if self_ms:
            out[f"{name}.self_ms"] = layer["self_ms"]

    def count(*names: str) -> None:
        for name in names:
            out[name] = counts.get(name, 0)

    timed("core.encode")
    timed("core.smbd_decode")
    timed("kernels.spinfer")
    out["kernels.spinfer.flops"] = tr.counters["kernels.spinfer.flops"]
    out["kernels.spinfer.bytes"] = tr.counters["kernels.spinfer.bytes"]
    oracle = oracle_tr or Tracer()
    timed("kernels.flash_llm", self_ms=False, source=oracle)
    timed("kernels.dense", self_ms=False, source=oracle)

    timed("llm.forward")
    out["llm.forward.nonlinear_ms"] = (
        tr.layer("llm.attention")["self_ms"]
        + tr.layer("llm.softmax")["ms"]
        + tr.layer("llm.layernorm")["ms"]
    )
    for name in ("llm.cost.decode_step", "llm.cost.prefill"):
        timed(name)
        out[f"{name}.repeat_key_frac"] = tr.repeat_key_frac(name)

    count("runtime.loop.events", "runtime.loop.cancelled")
    out["runtime.loop.events_per_s"] = out["runtime.loop.events"] / wall_s
    count(
        "runtime.sched.iterations",
        "runtime.sched.batch_mean",
        "runtime.sched.preemptions",
        "runtime.sched.queue_wait_p50_s",
        "runtime.sched.queue_wait_p99_s",
    )
    timed("runtime.router.submit")
    count("runtime.router.retries", "runtime.router.faults")
    for op in _KV_OPS:
        out[f"runtime.kv.{op}.calls"] = tr.layer(f"runtime.kv.{op}")["calls"]
    out["runtime.kv.ms"] = sum(tr.layer(f"runtime.kv.{op}")["self_ms"] for op in _KV_OPS)
    out["runtime.kv.peak_util"] = tr.counters["runtime.kv.peak_util"]
    count("runtime.stream.events", "runtime.stream.flushes")

    timed("server.gate.offer")
    timed("server.gate.release")
    count("server.gate.parked", "server.gate.refused")
    count("server.prefix.hit_frac", "server.prefix.cached_token_frac")
    out["server.prefix.ms"] = tr.layer("server.prefix")["ms"]

    timed("fleet.autoscaler.desired_replicas")
    count(
        "fleet.scale_ups",
        "fleet.scale_downs",
        "fleet.drains",
        "fleet.kv_migrations",
        "fleet.peak_replicas",
    )
    count(
        "integrity.sdc_injected",
        "integrity.sdc_detected",
        "integrity.detection_rate",
        "integrity.quarantines",
        "integrity.verification_s",
    )
    count(
        "sim.prefill_s",
        "sim.decode.linear_s",
        "sim.decode.attention_s",
        "sim.decode.comm_s",
        "sim.decode.other_s",
    )
    out["trace.overhead_frac"] = traced_wall_s / wall_s - 1.0
    return out
