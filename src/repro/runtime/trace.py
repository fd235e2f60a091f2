"""Runtime traces: the event log and auditable KV snapshots.

A :class:`RuntimeTrace` is the runtime's complete observable record:
an ordered list of :class:`~repro.runtime.events.TraceEvent` scheduler
decisions plus periodic :class:`KVSnapshot` captures of the paged
allocator.  Snapshots expose the same introspection surface as a live
:class:`~repro.llm.kv_cache.KVBlockAllocator` (``block_tables()``,
``refcounts()``, ``free_block_ids()``, ``sequence()``), so
``repro.analysis.plan_lint.lint_kv_allocator`` audits them unchanged —
the event simulation is translation-validated against the static
checker's K001–K005 rules at every captured instant, not just at the
end of a run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..llm.kv_cache import KVBlockAllocator, SequenceAllocation
from .events import TraceEvent

__all__ = ["KVSnapshot", "RuntimeTrace"]


@dataclass(frozen=True)
class KVSnapshot:
    """Immutable copy of an allocator's bookkeeping at one instant.

    Duck-compatible with :class:`KVBlockAllocator` for everything the
    K-rule checker reads.
    """

    t: float
    pool: str
    total_blocks: int
    block_size: int
    tables: Dict[int, List[int]]
    refs: Dict[int, int]
    free: List[int]
    tokens: Dict[int, int]

    @classmethod
    def capture(
        cls, alloc: KVBlockAllocator, t: float, pool: str = "gpu0"
    ) -> "KVSnapshot":
        tables = alloc.block_tables()
        return cls(
            t=t,
            pool=pool,
            total_blocks=alloc.total_blocks,
            block_size=alloc.block_size,
            tables=tables,
            refs=alloc.refcounts(),
            free=alloc.free_block_ids(),
            tokens={sid: alloc.sequence(sid).tokens for sid in tables},
        )

    # ---- KVBlockAllocator introspection surface --------------------------------------

    def block_tables(self) -> Dict[int, List[int]]:
        return {sid: list(t) for sid, t in self.tables.items()}

    def refcounts(self) -> Dict[int, int]:
        return dict(self.refs)

    def free_block_ids(self) -> List[int]:
        return list(self.free)

    def sequence(self, seq_id: int) -> SequenceAllocation:
        try:
            return SequenceAllocation(
                seq_id=seq_id,
                block_ids=list(self.tables[seq_id]),
                tokens=self.tokens[seq_id],
            )
        except KeyError:
            raise KeyError(f"unknown sequence {seq_id}") from None

    @property
    def used_blocks(self) -> int:
        return self.total_blocks - len(self.free)


@dataclass
class RuntimeTrace:
    """Append-only record of one runtime execution, in time order:
    :meth:`record` refuses an event earlier than the last one (or
    before t=0), so a trace can never run backwards."""

    events: List[TraceEvent] = field(default_factory=list)
    snapshots: List[KVSnapshot] = field(default_factory=list)

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

    def snapshot(
        self, alloc: KVBlockAllocator, t: float, pool: str = "gpu0"
    ) -> KVSnapshot:
        snap = KVSnapshot.capture(alloc, t, pool)
        self.record(t, "snapshot", pool=pool, index=len(self.snapshots))
        self.snapshots.append(snap)
        return snap

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
