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

# perfbench's workloads import these three from the package itself.
from .faults import FaultTolerantRuntime, builtin_fault_plans, get_recovery_policy

__all__ = ["FaultTolerantRuntime", "builtin_fault_plans", "get_recovery_policy"]
