"""Discrete-event simulation runtime for serving-layer experiments.

The serving and disaggregation simulators used to be two unrelated
programs: a hand-rolled ``while`` loop with token-arithmetic admission,
and a closed-form three-term sum.  This package extracts what they
share — an explicit clock, a deterministic event queue, a per-GPU
resource model backed by the paged KV allocator — and re-expresses both
as *policies* over that core:

* :mod:`~repro.runtime.core` — :class:`EventLoop` (clock + event queue
  with deterministic tie-breaking) and :class:`GPUPool` (inference cost
  model + :class:`~repro.llm.kv_cache.KVBlockAllocator` as the single
  source of KV truth);
* :mod:`~repro.runtime.events` — the event vocabulary and trace records;
* :mod:`~repro.runtime.policies` — heap-based FCFS / SJF admission
  queues (O(log n) push/pop, replacing the legacy O(n²) list scans);
* :mod:`~repro.runtime.scheduler` — continuous batching with blocking
  or chunked prefill and preemption-by-recompute, plus the two-pool
  disaggregated composition with KV-migration events;
* :mod:`~repro.runtime.trace` — the event log and K-rule-auditable
  allocator snapshots.

See docs/RUNTIME.md for the event loop contract, the scheduler modes
and the trace format.
"""

from .core import EventLoop, GPUPool
from .events import EventKind, TraceEvent
from .faults import (
    ALL_FAULT_KINDS,
    BROKEN_RECOVERY_POLICIES,
    RECOVERY_POLICIES,
    SILENT_FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultTolerantRuntime,
    RecoveryPolicy,
    builtin_fault_plans,
    get_recovery_policy,
)
from .policies import POLICIES, AdmissionPolicy, FCFSPolicy, SJFPolicy, get_policy
from .request import SessionRequest, TokenEvent, TokenStream
from .scheduler import (
    PREFILL_MODES,
    ContinuousBatchingScheduler,
    DisaggregatedRuntime,
    RuntimeStats,
    SeqState,
)
from .trace import KVSnapshot, RuntimeTrace

__all__ = [
    "EventLoop",
    "GPUPool",
    "EventKind",
    "TraceEvent",
    "SessionRequest",
    "TokenEvent",
    "TokenStream",
    "POLICIES",
    "AdmissionPolicy",
    "FCFSPolicy",
    "SJFPolicy",
    "get_policy",
    "PREFILL_MODES",
    "ContinuousBatchingScheduler",
    "DisaggregatedRuntime",
    "RuntimeStats",
    "SeqState",
    "KVSnapshot",
    "RuntimeTrace",
    "FaultKind",
    "ALL_FAULT_KINDS",
    "SILENT_FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultTolerantRuntime",
    "RecoveryPolicy",
    "RECOVERY_POLICIES",
    "BROKEN_RECOVERY_POLICIES",
    "builtin_fault_plans",
    "get_recovery_policy",
]
