"""Runtime traces: the event log.

A :class:`RuntimeTrace` is the runtime's complete observable record:
an ordered list of :class:`~repro.runtime.events.TraceEvent` scheduler
decisions.  KV bookkeeping is not copied into it: the allocator's own
methods keep refcounts and block tables consistent at every write
(``tests/test_kv_cache.py`` proves K004/K005 after every operation of
random programs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .events import TraceEvent

__all__ = ["RuntimeTrace"]


@dataclass
class RuntimeTrace:
    """Append-only record of one runtime execution, in time order:
    :meth:`record` refuses an event earlier than the last one (or
    before t=0), so a trace can never run backwards."""

    events: List[TraceEvent] = field(default_factory=list)

    def record(
        self,
        t: float,
        kind: str,
        seq_id: Optional[int] = None,
        pool: str = "gpu0",
        **info,
    ) -> None:
        last = self.events[-1].t if self.events else 0.0
        if t < last:
            raise ValueError(
                f"{kind} event at t={t} precedes the trace's last event "
                f"at t={last}"
            )
        self.events.append(
            TraceEvent(t=t, kind=kind, seq_id=seq_id, pool=pool, info=info)
        )

    # ---- views -----------------------------------------------------------------------

    def event_log(self) -> List[Tuple]:
        """The canonical comparison form for determinism assertions."""
        return [e.key() for e in self.events]

    def digest(self) -> str:
        """SHA-256 (hex) of :meth:`event_log` — the ``trace_sha256`` key
        two ``--json`` replays are compared by."""
        return hashlib.sha256(repr(self.event_log()).encode()).hexdigest()

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]
