"""Multi-turn sessions and the shared-prefix KV cache.

A chat session re-sends its whole history every turn; without help the
runtime re-prefills tokens it already materialised one turn ago.  The
:class:`SessionManager` closes that loop through two scheduler hooks:

* ``retain_kv(seq_id, req)`` — fired just before a finished turn's
  blocks are freed: the manager forks the sequence into a
  *session-owned* prefix (``owner="session:<id>"``, a negative seq id so
  it can never collide with a request), so the blocks survive the free
  under refcount.
* ``prefix_source(req)`` — consulted at admission: when the arriving
  turn's pool still holds the session's prefix, the scheduler forks it
  copy-on-write and prefills only the new tokens.

Crash safety is *lazy*: a GPU crash wipes the pool's allocator
(``free_all``), so the next lookup sees ``has_sequence() == False``,
drops the registry entry, and the turn re-prefills from scratch — the
reroute-recompute discipline, extended to cached history.  Session
affinity (``FaultTolerantRuntime.submit(req, prefer=pool)``) keeps
turns landing where their prefix lives while that pool is alive.

Teardown is provable: ending a session frees its prefix and audits
``owned_blocks("session:<id>")`` on every pool — anything left is a
leak, reported (and linted, rule Q002) rather than silently stranded.

This module also defines the deterministic multi-turn workload
(:class:`SessionSpec` / :func:`session_workload`): think times and
lengths are pre-drawn from one pinned generator at build time, so the
simulation itself never touches an RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..runtime.events import EventKind

__all__ = [
    "TurnSpec",
    "SessionSpec",
    "SessionPrefix",
    "SessionManager",
    "session_workload",
]


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TurnSpec:
    """One turn of a session: the user adds ``new_tokens`` on top of the
    history and the model answers with ``output_len`` tokens.
    ``think_s`` is the user's pause after the PREVIOUS turn finished
    (ignored for turn 0, which fires at the session's start time)."""

    new_tokens: int
    output_len: int
    think_s: float = 0.0

    def __post_init__(self) -> None:
        if self.new_tokens <= 0 or self.output_len <= 0:
            raise ValueError("turns need positive prompt and output tokens")
        if self.think_s < 0:
            raise ValueError("think time cannot be negative")


@dataclass(frozen=True)
class SessionSpec:
    """A whole conversation, fixed before the simulation starts."""

    session_id: int
    start_s: float
    turns: Tuple[TurnSpec, ...]
    tenant: str = "default"
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.turns:
            raise ValueError("a session needs at least one turn")
        if self.start_s < 0:
            raise ValueError("start time cannot be negative")


def session_workload(
    sessions: int = 8,
    turns: int = 3,
    arrival_rate: float = 2.0,
    mean_new_tokens: int = 96,
    mean_output: int = 48,
    mean_think_s: float = 0.4,
    tenants: Tuple[str, ...] = ("default",),
    priority_tiers: int = 1,
    seed: int = 0,
) -> List[SessionSpec]:
    """Draw a pinned multi-turn workload.

    All randomness happens HERE, in a fixed draw order from one
    ``np.random.default_rng(seed)``; the returned specs are plain data,
    so two servers fed the same seed see byte-identical conversations —
    the property the reuse-vs-no-reuse bench and the ``--json`` replay
    gate both rest on.
    """
    if sessions <= 0 or turns <= 0:
        raise ValueError("need at least one session and one turn")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    rng = np.random.default_rng(seed)
    out: List[SessionSpec] = []
    start = 0.0
    for sid in range(sessions):
        start += float(rng.exponential(1.0 / arrival_rate))
        n_turns = int(rng.integers(max(1, turns - 1), turns + 2))
        spec_turns = []
        for k in range(n_turns):
            new_tokens = max(8, int(rng.poisson(mean_new_tokens)))
            output_len = max(8, int(rng.poisson(mean_output)))
            think = (
                0.0 if k == 0 else round(float(rng.exponential(mean_think_s)), 6)
            )
            spec_turns.append(
                TurnSpec(
                    new_tokens=new_tokens,
                    output_len=output_len,
                    think_s=think,
                )
            )
        tenant = tenants[int(rng.integers(len(tenants)))]
        priority = int(rng.integers(max(1, priority_tiers)))
        out.append(
            SessionSpec(
                session_id=sid,
                start_s=round(start, 6),
                turns=tuple(spec_turns),
                tenant=tenant,
                priority=priority,
            )
        )
    return out


# ---------------------------------------------------------------------------
# the prefix cache
# ---------------------------------------------------------------------------


@dataclass
class SessionPrefix:
    """Registry entry: where a session's cached history lives."""

    pool: str
    seq_id: int
    tokens: int


class SessionManager:
    """Owns session→prefix bookkeeping across a router's replica pools.

    Construction wires ``prefix_source`` / ``retain_kv`` into every
    scheduler of the :class:`~repro.runtime.faults.FaultTolerantRuntime`
    (or a sequence of standalone schedulers).  With ``enabled=False``
    both hooks stay None and the runtime is bit-identical to a
    session-blind one — that OFF switch is the bench's control arm.
    """

    def __init__(self, runtime, enabled: bool = True) -> None:
        self.runtime = runtime
        self.enabled = enabled
        self._prefixes: Dict[int, SessionPrefix] = {}
        #: Prefix sequences use a dedicated negative id space so they
        #: can never collide with request ids (seq_id = request_id).
        self._next_prefix_id = -1
        self._hit_requests: set = set()
        self._miss_requests: set = set()
        self.invalidations = 0
        self.retained = 0
        self.migrations = 0
        self.migrated_tokens = 0
        self.migration_drops = 0
        #: Prefixes dropped because the receive-side content-tag check
        #: caught a corrupted payload (integrity layer; the session's
        #: next turn recomputes from the prompt instead of forking
        #: poisoned KV).
        self.integrity_drops = 0
        if enabled:
            for sched in runtime.schedulers:
                self.attach_scheduler(sched)

    def attach_scheduler(self, sched) -> None:
        """Wire the prefix hooks into one scheduler.  Called for every
        scheduler at construction, and again by the fleet simulator for
        replicas provisioned mid-run (``FaultTolerantRuntime.add_pool``)
        — a scaled-up pool must cache prefixes like any other."""
        if not self.enabled:
            return
        sched.prefix_source = self._make_prefix_source(sched)
        sched.retain_kv = self._make_retain(sched)

    @staticmethod
    def owner(session_id: int) -> str:
        return f"session:{session_id}"

    # ---- lookups ---------------------------------------------------------------------

    def pool_for(self, session_id) -> Optional[str]:
        """Pool holding the session's prefix (the affinity target)."""
        entry = self._prefixes.get(session_id)
        return entry.pool if entry is not None else None

    def sessions_on(self, pool_name: str) -> List[int]:
        """Sessions whose prefix lives on ``pool_name``, sorted — the
        drain path migrates exactly these before retiring the pool."""
        return sorted(
            sid
            for sid, entry in self._prefixes.items()
            if entry.pool == pool_name
        )

    @property
    def hits(self) -> int:
        """Requests admitted through a live prefix fork."""
        return len(self._hit_requests)

    @property
    def misses(self) -> int:
        """Session requests that wanted a prefix and found none."""
        return len(self._miss_requests)

    # ---- scheduler hooks -------------------------------------------------------------

    def _make_prefix_source(self, sched):
        def source(req):
            session_id = getattr(req, "session_id", None)
            if session_id is None or req.cached_tokens <= 0:
                return None
            entry = self._prefixes.get(session_id)
            if entry is None or entry.pool != sched.pool.name:
                self._miss_requests.add(req.request_id)
                return None
            if not sched.pool.allocator.has_sequence(entry.seq_id):
                # The pool crashed since the prefix was retained:
                # free_all() wiped it.  Drop the stale entry; this turn
                # re-prefills its whole history (recompute discipline).
                del self._prefixes[session_id]
                self.invalidations += 1
                self._miss_requests.add(req.request_id)
                return None
            self._hit_requests.add(req.request_id)
            return entry.seq_id, min(entry.tokens, req.cached_tokens)

        return source

    def _make_retain(self, sched):
        def retain(seq_id: int, req) -> None:
            session_id = getattr(req, "session_id", None)
            if session_id is None:
                return
            # One prefix per session: the finished turn's sequence holds
            # the FULL history (old prefix included via the admission
            # fork), so the old prefix is strictly redundant now.
            self._drop_prefix(session_id)
            prefix_id = self._next_prefix_id
            self._next_prefix_id -= 1
            alloc = sched.pool.allocator
            alloc.fork(seq_id, prefix_id, owner=self.owner(session_id))
            self._prefixes[session_id] = SessionPrefix(
                pool=sched.pool.name,
                seq_id=prefix_id,
                tokens=alloc.sequence(prefix_id).tokens,
            )
            self.retained += 1

        return retain

    # ---- migration (scale-down drain) ------------------------------------------------

    def migrate_prefix(self, session_id, target_sched) -> int:
        """Ship a session's prefix KV to ``target_sched``'s pool instead
        of recomputing it after the source is retired.

        Blocks move between allocators, so this is a fresh allocation on
        the target plus a free on the source (``fork`` only shares
        within one allocator).  Returns the tokens moved; 0 means there
        was nothing live to move (stale entry — dropped), and a target
        without room drops the prefix too (``migration_drops``): the
        session survives, its next turn re-prefills, exactly the lazy
        crash-invalidation discipline.
        """
        entry = self._prefixes.get(session_id)
        if entry is None:
            return 0
        source = self.runtime._by_pool.get(entry.pool)
        if (
            source is None
            or not source.pool.allocator.has_sequence(entry.seq_id)
        ):
            # Crash wiped it since retention; nothing to ship.
            self._prefixes.pop(session_id, None)
            self.invalidations += 1
            return 0
        if target_sched.pool.name == entry.pool:
            return entry.tokens  # already there
        tokens = entry.tokens
        alloc = target_sched.pool.allocator
        if alloc.blocks_needed(tokens) > alloc.free_blocks:
            # No room on the survivor: drop rather than deadlock the
            # drain.  The next turn recomputes from the prompt.
            self._drop_prefix(session_id)
            self.migration_drops += 1
            return 0
        # Receive-side integrity check: the target reads the shipped
        # payload's ``payload_version``.  Anything but 0 means the prefix
        # was silently corrupted at the source — drop it (recompute-from-
        # prompt) rather than fork poisoned KV into every future turn of
        # the session.
        src_alloc = source.pool.allocator
        version = src_alloc.sequence(entry.seq_id).payload_version
        pol = self.runtime.integrity
        if version != 0 and pol is not None and pol.verify_kv:
            target_sched.trace.record(
                target_sched.loop.now,
                EventKind.CORRUPT_DETECTED,
                None,
                target_sched.pool.name,
                source="kv_tag",
                session=session_id,
                tokens=tokens,
            )
            self._drop_prefix(session_id)
            self.integrity_drops += 1
            return 0
        new_id = self._next_prefix_id
        self._next_prefix_id -= 1
        # The payload travels with its integrity generation: a shipped
        # (undetected) corruption stays traceable on the target.
        alloc.allocate(
            new_id, tokens, owner=self.owner(session_id),
            payload_version=version,
        )
        source.pool.allocator.free(entry.seq_id)
        self._prefixes[session_id] = SessionPrefix(
            pool=target_sched.pool.name, seq_id=new_id, tokens=tokens
        )
        self.migrations += 1
        self.migrated_tokens += tokens
        return tokens

    def drop_prefixes_on(self, pool_name: str) -> int:
        """Drop every prefix resident on ``pool_name`` (a drain that
        finds no routable survivor to migrate them to).  Returns how
        many sessions lost their cache."""
        dropped = 0
        for session_id in self.sessions_on(pool_name):
            self._drop_prefix(session_id)
            self.migration_drops += 1
            dropped += 1
        return dropped

    # ---- teardown --------------------------------------------------------------------

    def _drop_prefix(self, session_id) -> None:
        entry = self._prefixes.pop(session_id, None)
        if entry is None:
            return
        sched = self.runtime._by_pool.get(entry.pool)
        if sched is None:
            return
        alloc = sched.pool.allocator
        if alloc.has_sequence(entry.seq_id):
            alloc.free(entry.seq_id)

    def end_session(self, session_id) -> List[Tuple[str, int]]:
        """Free the session's prefix and PROVE nothing is left: returns
        ``(pool, block)`` pairs still tagged with the session's owner —
        empty on a correct run, non-empty is a leak (lint rule Q002)."""
        self._drop_prefix(session_id)
        leaked: List[Tuple[str, int]] = []
        for sched in self.runtime.schedulers:
            for block in sched.pool.allocator.owned_blocks(
                self.owner(session_id)
            ):
                leaked.append((sched.pool.name, block))
        return leaked

    def teardown(self) -> Dict[int, List[Tuple[str, int]]]:
        """End every live session; maps session_id → leaked blocks for
        any session that failed the post-free audit."""
        leaks: Dict[int, List[Tuple[str, int]]] = {}
        for session_id in sorted(self._prefixes):
            leaked = self.end_session(session_id)
            if leaked:
                leaks[session_id] = leaked
        return leaks
