"""Event vocabulary of the discrete-event runtime.

Two kinds of record live here:

* **Loop events** — things scheduled on the :class:`~repro.runtime.core.
  EventLoop`'s clock (request arrivals, iteration completions, KV
  migrations).  The loop stores them as ``(time, seq, callback)`` heap
  entries; :data:`EventKind` names the callbacks so traces stay
  greppable.
* **Trace events** — the append-only log the scheduler emits as it
  makes decisions.  The log is the runtime's observable behaviour: two
  runs of the same trace and configuration must produce *identical*
  logs (the determinism contract tests/test_runtime.py pins down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

__all__ = ["EventKind", "TraceEvent"]

_Scalar = Union[int, float, str]


class EventKind:
    """Stable names for everything the runtime logs.

    Plain string constants (not an Enum) so trace JSON stays readable
    and forward-compatible: consumers match on the string.
    """

    ARRIVE = "arrive"
    REJECT = "reject"
    ADMIT = "admit"
    PREFILL_CHUNK = "prefill_chunk"
    DECODE_STEP = "decode_step"
    FIRST_TOKEN = "first_token"
    PREEMPT = "preempt"
    FINISH = "finish"
    MIGRATE_START = "migrate_start"
    MIGRATE_END = "migrate_end"
    # ---- faults and recovery (repro.runtime.faults) -------------------
    #: An injected fault landed (``info["fault"]`` names the kind).
    FAULT = "fault"
    #: A straggling pool returned to nominal speed.
    RECOVER = "recover"
    #: A migration attempt was lost in flight.
    MIGRATE_FAIL = "migrate_fail"
    #: A request missed its deadline and was evicted.
    TIMEOUT = "timeout"
    #: A request was cancelled (client abort or injected cancellation).
    CANCEL = "cancel"
    #: Admission-level load shedding: rejected with a reason, not queued.
    SHED = "shed"
    #: A failed request re-enters service after backoff.
    RETRY = "retry"
    #: A failed request was re-routed to a surviving pool.
    REROUTE = "reroute"
    #: A request exhausted its recovery options and failed terminally.
    FAIL = "fail"
    # ---- silent data corruption (repro.integrity) ---------------------
    #: A silent corruption landed (``info["source"]``: sdc_iteration /
    #: weight_bit_flip / kv_corruption / kv_migration).  Unlike FAULT,
    #: nothing errored — the data is just wrong.
    CORRUPT = "corrupt"
    #: Verification (ABFT checksum, weight digest, KV content tag)
    #: caught a corruption before it was served.
    CORRUPT_DETECTED = "corrupt_detected"
    #: The router quarantined a replica after repeated detections.
    QUARANTINE = "quarantine"


@dataclass(frozen=True)
class TraceEvent:
    """One logged scheduler decision.

    ``info`` holds small scalars only (counts, token numbers, reasons).
    """

    t: float
    kind: str
    seq_id: Optional[int] = None
    pool: str = "gpu0"
    info: Dict[str, _Scalar] = field(default_factory=dict)

    def key(self) -> Tuple:
        """Canonical comparison key: the full observable content.

        Used by the determinism tests — two runs are equivalent iff the
        event-key sequences are equal.
        """
        return (
            self.t,
            self.kind,
            self.seq_id,
            self.pool,
            tuple(sorted(self.info.items())),
        )
