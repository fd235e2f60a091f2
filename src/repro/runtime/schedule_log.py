"""Schedule logging for the happens-before analysis.

A :class:`ScheduleRecorder` attaches to an :class:`~repro.runtime.core.
EventLoop` as its ``observer`` and records one :class:`ScheduleRecord`
per scheduled event: when it was scheduled and by whom (the dispatching
parent handle, giving causal ancestry), when and in what order it fired,
and — via the attached :class:`~repro.runtime.trace.RuntimeTrace` — the
set of state locations its callback wrote.  Write-sets are derived from
the trace events a callback emits while it is the dispatching event
(:meth:`~repro.runtime.events.TraceEvent.write_keys`), a dynamic
over-approximation of the scheduler/allocator state it touched.

The resulting :class:`ScheduleLog` is the input to the H-family rules in
:mod:`repro.analysis.schedule_lint`: same-timestamp write-write pairs
ordered only by insertion tie-break (H001), time-travel and non-finite
fire times (H003), cancelled-handle reuse and stale cancels (H004), and
unbounded same-timestamp cascades (H005).  H002 — the semantic check —
does not read the log at all: it replays the whole scenario under the
reversed tie-break and diffs the observable trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

__all__ = ["ScheduleRecord", "ScheduleLog", "ScheduleRecorder"]

#: A state location: ``(pool, seq_id)`` or the pool-wide ``(pool, "*")``.
WriteKey = Tuple[str, object]


@dataclass
class ScheduleRecord:
    """One event's lifetime on the loop."""

    handle: int
    fire_t: float
    scheduled_t: float
    phase: int
    #: Handle of the event whose dispatch scheduled this one (causal
    #: parent), or None when scheduled from outside the loop (setup).
    parent: Optional[int]
    #: Position in dispatch order, or None if never dispatched
    #: (cancelled, or still pending when the loop drained).
    dispatch_index: Optional[int] = None
    cancelled: bool = False
    #: State locations written during this event's dispatch.
    writes: FrozenSet[WriteKey] = frozenset()
    #: Trace-event kinds emitted during dispatch (diagnostic labels).
    kinds: Tuple[str, ...] = ()

    @property
    def dispatched(self) -> bool:
        return self.dispatch_index is not None

    def to_dict(self) -> Dict:
        return {
            "handle": self.handle,
            "fire_t": self.fire_t,
            "scheduled_t": self.scheduled_t,
            "phase": self.phase,
            "parent": self.parent,
            "dispatch_index": self.dispatch_index,
            "cancelled": self.cancelled,
            "writes": sorted(str(w) for w in self.writes),
            "kinds": list(self.kinds),
        }


@dataclass
class ScheduleLog:
    """Complete schedule record of one loop execution."""

    records: List[ScheduleRecord] = field(default_factory=list)
    #: Handles whose cancel arrived after they fired or were already
    #: cancelled — H004's subject.
    stale_cancels: List[int] = field(default_factory=list)

    def dispatched(self) -> List[ScheduleRecord]:
        out = [r for r in self.records if r.dispatched]
        out.sort(key=lambda r: r.dispatch_index)
        return out

    def record_for(self, handle: int) -> ScheduleRecord:
        for rec in self.records:
            if rec.handle == handle:
                return rec
        raise KeyError(f"no schedule record for handle {handle}")

    def ancestors(self, handle: int) -> Set[int]:
        """Causal ancestry via scheduled-by parent chains."""
        seen: Set[int] = set()
        by_handle = {r.handle: r for r in self.records}
        cur = by_handle.get(handle)
        while cur is not None and cur.parent is not None:
            if cur.parent in seen:  # defensive: parents are acyclic
                break
            seen.add(cur.parent)
            cur = by_handle.get(cur.parent)
        return seen

    def to_dict(self) -> Dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "stale_cancels": list(self.stale_cancels),
        }


class ScheduleRecorder:
    """EventLoop observer that builds a :class:`ScheduleLog`.

    Attach before running::

        loop = EventLoop()
        recorder = ScheduleRecorder(loop)
        rt = FaultTolerantRuntime(..., loop=loop)
        recorder.set_trace(rt.trace)   # write-set attribution
        rt.run(requests)
        log = recorder.log

    ``set_trace`` may be called any time before the loop runs; without a
    trace the recorder still captures timing/causality (write-sets stay
    empty, so H001 has nothing to intersect but H003–H005 work fully).
    """

    def __init__(self, loop) -> None:
        self.log = ScheduleLog()
        self._loop = loop
        self._by_handle: Dict[int, ScheduleRecord] = {}
        self._trace = None
        self._mark = 0
        self._dispatch_count = 0
        self._current: Optional[ScheduleRecord] = None
        loop.observer = self

    def set_trace(self, trace) -> None:
        """Attach the :class:`RuntimeTrace` used for write-set
        attribution (events appended during a dispatch belong to it)."""
        self._trace = trace
        self._mark = len(trace.events)

    # ---- EventLoop observer hooks ----------------------------------------------------

    def on_schedule(
        self, handle: int, time: float, phase: int, parent: Optional[int]
    ) -> None:
        rec = ScheduleRecord(
            handle=handle,
            fire_t=time,
            scheduled_t=self._loop.now,
            phase=phase,
            parent=parent,
        )
        self.log.records.append(rec)
        self._by_handle[handle] = rec

    def on_cancel(self, handle: int, pending: bool) -> None:
        if pending:
            self._by_handle[handle].cancelled = True
        else:
            self.log.stale_cancels.append(handle)

    def on_dispatch(self, handle: int, time: float) -> None:
        rec = self._by_handle[handle]
        rec.dispatch_index = self._dispatch_count
        self._dispatch_count += 1
        rec.fire_t = time
        self._current = rec
        if self._trace is not None:
            self._mark = len(self._trace.events)

    def on_dispatch_done(self, handle: int) -> None:
        rec = self._current
        if rec is None or rec.handle != handle:
            rec = self._by_handle[handle]
        if self._trace is not None:
            end = len(self._trace.events)
            emitted = self._trace.events[self._mark : end]
            writes: Set[WriteKey] = set()
            for ev in emitted:
                writes.update(ev.write_keys())
            rec.writes = frozenset(writes)
            rec.kinds = tuple(ev.kind for ev in emitted)
            self._mark = end
        self._current = None
