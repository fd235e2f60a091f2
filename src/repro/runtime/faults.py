"""Deterministic fault injection and fault-tolerant serving.

The runtime built in :mod:`repro.runtime.scheduler` models a perfect
world; this module breaks it on purpose — reproducibly.  Three layers:

* **Fault plans** — a :class:`FaultPlan` is an immutable list of typed
  :class:`FaultEvent` records (GPU crash, transient kernel/ECC error,
  straggler slowdown with a recovery time, KV-migration failure,
  request cancellation).  Plans are either written explicitly or drawn
  from a pinned ``np.random.Generator`` seed, so every chaos run
  replays bit-identically: same plan + same workload + same recovery
  policy ⇒ same :class:`~repro.runtime.trace.RuntimeTrace`.
* **Injection** — a :class:`FaultInjector` schedules the plan's events
  on the target's :class:`~repro.runtime.core.EventLoop`.  Faults are
  ordinary loop events; they obey the same ``(time, seq)`` determinism
  contract as everything else.
* **Recovery** — a :class:`RecoveryPolicy` says what the serving layer
  does about it: fail fast, retry the same pool with exponential
  backoff (deterministic jitter, bounded budget), or reroute to a
  surviving pool and recompute the lost KV from the prompt.
  :class:`FaultTolerantRuntime` is the router that applies the policy
  across N single-pool replicas, owns per-request deadlines
  (cancellable loop events), and sheds load when capacity drops.

Backoff jitter never touches an RNG at run time: it is a pure integer
hash of ``(request_id, attempt)``, so the jitter a request sees cannot
depend on the order other requests failed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import EventLoop, GPUPool, det_hash01
from .events import EventKind
from .scheduler import (
    ContinuousBatchingScheduler,
    DisaggregatedRuntime,
    RuntimeStats,
)
from .trace import RuntimeTrace

__all__ = [
    "ALL_FAULT_KINDS",
    "SILENT_FAULT_KINDS",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "RecoveryPolicy",
    "RECOVERY_POLICIES",
    "FaultInjector",
    "FaultTolerantRuntime",
    "builtin_fault_plans",
    "get_recovery_policy",
]


# ---------------------------------------------------------------------------
# fault vocabulary
# ---------------------------------------------------------------------------


class FaultKind:
    """Typed fault events the injector understands."""

    #: The pool's GPUs die; resident KV is lost, requests need recovery.
    GPU_CRASH = "gpu_crash"
    #: Recoverable kernel/ECC error: the in-flight iteration reruns.
    TRANSIENT = "transient"
    #: Straggler: iteration costs multiply by ``factor`` for
    #: ``duration_s`` seconds, then the pool recovers.
    SLOWDOWN = "slowdown"
    #: A KV migration (disaggregated prefill→decode) is lost in flight.
    MIGRATION_FAIL = "migration_fail"
    #: The client aborts ``request_id``.
    CANCEL = "cancel"
    #: Silent data corruption: a bit flips in the pool's resident
    #: encoded weights.  Every decode is wrong until verification
    #: catches the digest mismatch and reloads the weights.
    WEIGHT_BIT_FLIP = "weight_bit_flip"
    #: Silent data corruption of KV state — resident on a pool (the
    #: lowest live sequence is garbled in place), or in flight on the
    #: disaggregated prefill→decode migration link.
    KV_CORRUPTION = "kv_corruption"
    #: A flaky replica: for ``duration_s`` seconds a seeded fraction
    #: (``factor``) of decode iterations on the target return
    #: plausible-but-wrong results with no error signal at all.
    SDC_REPLICA = "sdc_replica"


ALL_FAULT_KINDS = (
    FaultKind.GPU_CRASH,
    FaultKind.TRANSIENT,
    FaultKind.SLOWDOWN,
    FaultKind.MIGRATION_FAIL,
    FaultKind.CANCEL,
    FaultKind.WEIGHT_BIT_FLIP,
    FaultKind.KV_CORRUPTION,
    FaultKind.SDC_REPLICA,
)

#: The faults that corrupt data without raising any error signal; the
#: integrity layer (:mod:`repro.integrity`) exists to catch these.
SILENT_FAULT_KINDS = (
    FaultKind.WEIGHT_BIT_FLIP,
    FaultKind.KV_CORRUPTION,
    FaultKind.SDC_REPLICA,
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    t: float
    kind: str
    target: str = "gpu0"
    duration_s: float = 0.0
    factor: float = 1.0
    request_id: Optional[int] = None

    #: (field, accepted types, their name in the error); a bool is
    #: refused everywhere, although Python counts it as an int.
    _TYPES = (
        ("t", Real, "a number"),
        ("kind", str, "a string"),
        ("target", str, "a string"),
        ("duration_s", Real, "a number"),
        ("factor", Real, "a number"),
        ("request_id", (Integral, type(None)), "an integer or null"),
    )

    def __post_init__(self) -> None:
        for name, types, what in self._TYPES:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(
                    f"fault field {name!r} must be {what}, got {value!r}"
                )
        if self.kind not in ALL_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"use one of {ALL_FAULT_KINDS}"
            )
        if self.t < 0:
            raise ValueError("fault time cannot be negative")
        if self.duration_s < 0:
            raise ValueError("fault duration cannot be negative")
        if self.factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if self.kind == FaultKind.CANCEL and self.request_id is None:
            raise ValueError("cancellation faults need a request_id")
        if self.kind == FaultKind.SDC_REPLICA and not 0.0 < self.factor <= 1.0:
            raise ValueError(
                "sdc_replica factor is the corrupted-iteration fraction; "
                f"it must be in (0, 1], got {self.factor}"
            )

    _FIELDS = ("t", "kind", "target", "duration_s", "factor", "request_id")
    _REQUIRED = ("t", "kind")

    def to_dict(self) -> Dict:
        return {
            "t": self.t,
            "kind": self.kind,
            "target": self.target,
            "duration_s": self.duration_s,
            "factor": self.factor,
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultEvent":
        if not isinstance(data, dict):
            raise ValueError(
                f"FaultEvent.from_dict: expected an object, got {data!r}"
            )
        for key in data:
            if key not in cls._FIELDS:
                raise ValueError(
                    f"FaultEvent.from_dict: unknown key {key!r}; "
                    f"expected a subset of {cls._FIELDS}"
                )
        for key in cls._REQUIRED:
            if key not in data:
                raise ValueError(
                    f"FaultEvent.from_dict: missing required key {key!r}"
                )
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable fault schedule."""

    name: str
    seed: int
    events: Tuple[FaultEvent, ...] = ()

    @classmethod
    def generate(
        cls,
        name: str,
        seed: int,
        horizon_s: float,
        pools: Sequence[str],
        crashes: int = 0,
        transients: int = 0,
        slowdowns: int = 0,
        migration_failures: int = 0,
        cancellations: int = 0,
        request_ids: Sequence[int] = (),
    ) -> "FaultPlan":
        """Draw a plan from a pinned generator.

        Every draw comes from ``np.random.default_rng(seed)`` in a fixed
        order, and times are rounded to microseconds, so the same
        arguments always produce the same plan — byte-for-byte, across
        runs and across machines.
        """
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        if not pools:
            raise ValueError("generate needs at least one pool name")
        if cancellations and not request_ids:
            raise ValueError("cancellations need candidate request_ids")
        rng = np.random.default_rng(seed)
        pools = tuple(pools)

        def when() -> float:
            return round(float(rng.uniform(0.0, horizon_s)), 6)

        def where() -> str:
            return pools[int(rng.integers(len(pools)))]

        events: List[FaultEvent] = []
        for _ in range(crashes):
            events.append(FaultEvent(when(), FaultKind.GPU_CRASH, where()))
        for _ in range(transients):
            events.append(FaultEvent(when(), FaultKind.TRANSIENT, where()))
        for _ in range(slowdowns):
            events.append(
                FaultEvent(
                    when(),
                    FaultKind.SLOWDOWN,
                    where(),
                    duration_s=round(
                        float(rng.uniform(0.1 * horizon_s, 0.5 * horizon_s)), 6
                    ),
                    factor=round(float(rng.uniform(1.5, 4.0)), 6),
                )
            )
        for _ in range(migration_failures):
            events.append(
                FaultEvent(when(), FaultKind.MIGRATION_FAIL, where())
            )
        for _ in range(cancellations):
            rid = int(request_ids[int(rng.integers(len(request_ids)))])
            events.append(
                FaultEvent(when(), FaultKind.CANCEL, where(), request_id=rid)
            )
        events.sort(
            key=lambda e: (
                e.t,
                e.kind,
                e.target,
                -1 if e.request_id is None else e.request_id,
            )
        )
        return cls(name=name, seed=seed, events=tuple(events))

    def scaled(self, time_factor: float) -> "FaultPlan":
        """Same plan with every timestamp multiplied (workload rescale)."""
        if time_factor <= 0:
            raise ValueError(
                "scaled() needs a positive time_factor (it multiplies "
                f"every fault timestamp), got {time_factor}"
            )
        return replace(
            self,
            events=tuple(
                replace(
                    e,
                    t=e.t * time_factor,
                    duration_s=e.duration_s * time_factor,
                )
                for e in self.events
            ),
        )

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(
                f"FaultPlan.from_dict: expected an object, got {data!r}"
            )
        for key in data:
            if key not in ("name", "seed", "events"):
                raise ValueError(
                    f"FaultPlan.from_dict: unknown key {key!r}; "
                    "expected a subset of ('name', 'seed', 'events')"
                )
        for key in ("name", "seed"):
            if key not in data:
                raise ValueError(
                    f"FaultPlan.from_dict: missing required key {key!r}"
                )
        for key, types, what in (
            ("name", str, "a string"),
            ("seed", Integral, "an integer"),
            ("events", list, "a list"),
        ):
            value = data.get(key, [])
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(
                    f"FaultPlan.from_dict: {key!r} must be {what}, "
                    f"got {value!r}"
                )
        return cls(
            name=data["name"],
            seed=data["seed"],
            events=tuple(
                FaultEvent.from_dict(e) for e in data.get("events", ())
            ),
        )


# ---------------------------------------------------------------------------
# recovery policies
# ---------------------------------------------------------------------------

RECOVERY_MODES = ("fail_fast", "retry", "reroute")


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the serving layer does when a fault takes a request down.

    Only ``mode`` and ``backoff_base_s`` differ between the shipped
    policies; every other knob is a class constant that they all share.
    A policy that retries needs a positive base backoff: with none, a
    persistent fault is retried in a tight loop.
    """

    name: str
    mode: str = "fail_fast"
    backoff_base_s: float = 0.05
    #: Retry budget per request (``fail_fast`` never retries).
    max_retries: ClassVar[int] = 3
    backoff_factor: ClassVar[float] = 2.0
    jitter_frac: ClassVar[float] = 0.1
    #: Per-request deadline from arrival.
    deadline_s: ClassVar[float] = 120.0
    #: Shed arrivals when a pool's waiting queue reaches this depth.
    shed_queue_depth: ClassVar[int] = 512

    def __post_init__(self) -> None:
        if self.mode not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.mode!r}; "
                f"use one of {RECOVERY_MODES}"
            )
        if self.mode != "fail_fast" and self.backoff_base_s <= 0:
            raise ValueError(
                f"mode={self.mode!r} retries with base backoff "
                f"{self.backoff_base_s}s: resubmission would be immediate, "
                "so a persistent fault is retried in a tight loop"
            )

    def backoff_s(self, attempt: int, key: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), with
        deterministic jitter keyed on ``(key, attempt)``."""
        base = self.backoff_base_s * self.backoff_factor ** max(
            attempt - 1, 0
        )
        jitter = 1.0 + self.jitter_frac * (2.0 * det_hash01(key, attempt) - 1.0)
        return base * jitter


#: Sane builtin policies — the three the chaos benchmark compares.
RECOVERY_POLICIES: Dict[str, RecoveryPolicy] = {
    "fail-fast": RecoveryPolicy(name="fail-fast", mode="fail_fast"),
    "retry": RecoveryPolicy(name="retry", mode="retry", backoff_base_s=0.05),
    "reroute": RecoveryPolicy(
        name="reroute", mode="reroute", backoff_base_s=0.02
    ),
}


def get_recovery_policy(name: str) -> RecoveryPolicy:
    try:
        return RECOVERY_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown recovery policy {name!r}; "
            f"available: {sorted(RECOVERY_POLICIES)}"
        ) from None


# ---------------------------------------------------------------------------
# injection
# ---------------------------------------------------------------------------


class FaultInjector:
    """Schedules a :class:`FaultPlan`'s events on a target's loop.

    Targets: a :class:`FaultTolerantRuntime` (full fault surface) or a
    :class:`DisaggregatedRuntime` (migration failures, KV corruption and
    slowdowns).  A bare :class:`ContinuousBatchingScheduler` is not a
    target: crash recovery and deadlines belong to the router.  ``arm``
    validates every event against the target BEFORE scheduling
    anything, so a bad plan fails loudly instead of half-injecting.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    # ---- target adapters ---------------------------------------------------------

    def arm(self, target) -> int:
        """Schedule every event; returns how many were armed."""
        if isinstance(target, FaultTolerantRuntime):
            return self._arm_router(target)
        if isinstance(target, DisaggregatedRuntime):
            return self._arm_disaggregated(target)
        raise TypeError(
            f"cannot inject faults into {type(target).__name__}"
        )

    def _arm_router(self, rt: "FaultTolerantRuntime") -> int:
        for ev in self.plan.events:
            if ev.kind == FaultKind.MIGRATION_FAIL:
                raise ValueError(
                    f"plan {self.plan.name!r}: migration faults target a "
                    "DisaggregatedRuntime, not a replica router"
                )
            if ev.kind != FaultKind.CANCEL and ev.target not in rt._by_pool:
                raise ValueError(
                    f"plan {self.plan.name!r}: unknown pool {ev.target!r}; "
                    f"router has {sorted(rt._by_pool)}"
                )
        for ev in self.plan.events:
            if ev.kind == FaultKind.CANCEL:
                self._schedule_cancel(rt.loop, ev, rt.cancel_request)
            else:
                sched = rt._by_pool[ev.target]
                self._schedule_pool_fault(rt.loop, ev, sched)
        return len(self.plan.events)

    def _arm_disaggregated(self, rt: DisaggregatedRuntime) -> int:
        pools = {
            rt.prefill_pool.name: rt.prefill_pool,
            rt.decode_pool.name: rt.decode_pool,
        }
        allowed = (
            FaultKind.MIGRATION_FAIL,
            FaultKind.SLOWDOWN,
            FaultKind.KV_CORRUPTION,
        )
        for ev in self.plan.events:
            if ev.kind not in allowed:
                raise ValueError(
                    f"plan {self.plan.name!r}: a DisaggregatedRuntime only "
                    "takes migration_fail, kv_corruption and slowdown "
                    f"faults, not {ev.kind!r}"
                )
            if ev.target not in pools:
                raise ValueError(
                    f"plan {self.plan.name!r}: unknown pool {ev.target!r}; "
                    f"runtime has {sorted(pools)}"
                )
        for ev in self.plan.events:
            if ev.kind == FaultKind.MIGRATION_FAIL:
                rt.loop.schedule_at(ev.t, rt.migration_fault)
            elif ev.kind == FaultKind.KV_CORRUPTION:
                # Garble the next migration crossing the link.
                rt.loop.schedule_at(ev.t, rt.kv_corruption)
            else:
                self._schedule_slowdown(
                    rt.loop, ev, pools[ev.target],
                    rt.trace, rt.decode_sched.stats,
                )
        return len(self.plan.events)

    # ---- event wiring ------------------------------------------------------------

    @staticmethod
    def _schedule_cancel(loop: EventLoop, ev: FaultEvent, cancel) -> None:
        loop.schedule_at(ev.t, lambda: cancel(ev.request_id))

    def _schedule_pool_fault(
        self, loop: EventLoop, ev: FaultEvent,
        sched: ContinuousBatchingScheduler,
    ) -> None:
        if ev.kind == FaultKind.GPU_CRASH:
            loop.schedule_at(ev.t, lambda: sched.fail_pool("injected"))
        elif ev.kind == FaultKind.TRANSIENT:
            loop.schedule_at(ev.t, sched.transient_error)
        elif ev.kind == FaultKind.SLOWDOWN:
            self._schedule_slowdown(
                loop, ev, sched.pool, sched.trace, sched.stats
            )
        elif ev.kind == FaultKind.WEIGHT_BIT_FLIP:
            loop.schedule_at(ev.t, sched.corrupt_weights)
        elif ev.kind == FaultKind.KV_CORRUPTION:
            loop.schedule_at(ev.t, sched.corrupt_resident_kv)
        elif ev.kind == FaultKind.SDC_REPLICA:
            self._schedule_sdc_window(loop, ev, sched)
        else:  # pragma: no cover - arm() validated kinds already
            raise AssertionError(ev.kind)

    @staticmethod
    def _schedule_sdc_window(
        loop: EventLoop, ev: FaultEvent,
        sched: ContinuousBatchingScheduler,
    ) -> None:
        def begin() -> None:
            if not sched.pool.alive:
                return  # a flaky fault on a crashed pool is moot
            sched.begin_sdc_window(ev.factor, ev.duration_s)

        loop.schedule_at(ev.t, begin)
        loop.schedule_at(ev.t + ev.duration_s, sched.end_sdc_window)

    @staticmethod
    def _schedule_slowdown(
        loop: EventLoop,
        ev: FaultEvent,
        pool: GPUPool,
        trace: RuntimeTrace,
        stats: RuntimeStats,
    ) -> None:
        def hit() -> None:
            if not pool.alive:
                return  # a straggler fault on a crashed pool is moot
            stats.faults += 1
            pool.set_slowdown(ev.factor)
            trace.record(
                loop.now, EventKind.FAULT, None, pool.name,
                fault="slowdown", factor=ev.factor,
                duration_s=ev.duration_s,
            )

        def recover() -> None:
            if not pool.alive:
                return
            pool.set_slowdown(1.0)
            trace.record(loop.now, EventKind.RECOVER, None, pool.name)

        loop.schedule_at(ev.t, hit)
        loop.schedule_at(ev.t + ev.duration_s, recover)


# ---------------------------------------------------------------------------
# fault-tolerant router
# ---------------------------------------------------------------------------


class FaultTolerantRuntime:
    """Health-checked router over N single-pool replica schedulers.

    One loop, one trace, one fleet-level :class:`RuntimeStats`.
    Arrivals route to the least-loaded ALIVE pool; a crash hands every
    victim back here, where the :class:`RecoveryPolicy` decides: fail
    fast, retry the same pool after backoff, or reroute to a survivor
    and recompute the lost KV from the prompt (the re-admission
    prefills ``prompt + generated`` — exactly vLLM's preemption
    recompute discipline, reused for crash recovery).  The router also
    owns per-request deadlines, as cancellable loop events, so a
    timeout follows a request across reroutes and backoff windows.
    """

    def __init__(
        self,
        pools: Sequence[GPUPool],
        recovery: RecoveryPolicy,
        policy: str = "fcfs",
        prefill_mode: str = "chunked",
        chunk_tokens: int = 128,
        preemption: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        loop: Optional[EventLoop] = None,
        integrity=None,
    ) -> None:
        if not pools:
            raise ValueError("the router needs at least one pool")
        if len({p.name for p in pools}) != len(pools):
            raise ValueError("pool names must be unique")
        self.recovery = recovery
        #: Optional :class:`repro.integrity.policy.IntegrityPolicy` (duck-
        #: typed to keep the runtime layer import-free of the integrity
        #: package).  None ⇒ no tagging, no verification, no quarantine
        #: — bit-identical to the pre-integrity runtime.
        self.integrity = integrity
        #: Detected corruptions per pool, for the quarantine policy.
        self._corruptions: Dict[str, int] = {}
        self.loop = loop if loop is not None else EventLoop()
        self.trace = RuntimeTrace()
        self.stats = RuntimeStats(
            kv_budget_bytes=sum(p.kv_budget_bytes for p in pools),
            total_blocks=sum(p.allocator.total_blocks for p in pools),
            trace=self.trace,
        )
        # Scheduler construction knobs, kept so elastically added pools
        # (fleet scale-up) are configured identically to the originals.
        self._sched_policy = policy
        self._prefill_mode = prefill_mode
        self._chunk_tokens = chunk_tokens
        self._preemption = preemption
        #: Pools excluded from routing: drains take no NEW work but keep
        #: finishing resident work; retired pools are decommissioned.
        self._draining: set = set()
        self._retired: set = set()
        self.schedulers: List[ContinuousBatchingScheduler] = []
        self._by_pool: Dict[str, ContinuousBatchingScheduler] = {}
        for pool in pools:
            self.add_pool(pool, _initial=True)
        #: Optional callback fired after a request reaches ANY terminal
        #: bucket — the streaming server's session manager releases
        #: tenant quota and schedules the next session turn here.
        self.terminal_listener = None
        self._location: Dict[int, ContinuousBatchingScheduler] = {}
        self._attempts: Dict[int, int] = {}
        self._deadlines: Dict[int, int] = {}
        self._resubmits: Dict[int, Tuple[int, object]] = {}
        if fault_plan is not None:
            FaultInjector(fault_plan).arm(self)

    # ---- elastic fleet membership ----------------------------------------------------

    def add_pool(
        self, pool: GPUPool, _initial: bool = False
    ) -> ContinuousBatchingScheduler:
        """Register a replica pool, mid-run or at construction.

        The fleet autoscaler provisions capacity through here: the new
        scheduler shares the router's loop/trace/stats and is built with
        the same knobs as the originals, so a scaled-up replica is
        indistinguishable from one present since t=0.
        """
        if pool.name in self._by_pool:
            raise ValueError(f"pool {pool.name!r} already registered")
        sched = ContinuousBatchingScheduler(
            pool,
            policy=self._sched_policy,
            prefill_mode=self._prefill_mode,
            chunk_tokens=self._chunk_tokens,
            preemption=self._preemption,
        ).attach(self.loop, self.trace, self.stats)
        sched.router = self
        sched.integrity = self.integrity
        self.schedulers.append(sched)
        self._by_pool[pool.name] = sched
        if not _initial:
            self.stats.kv_budget_bytes += pool.kv_budget_bytes
            self.stats.total_blocks += pool.allocator.total_blocks
        return sched

    def set_draining(self, name: str, draining: bool = True) -> None:
        """Mark/unmark a pool as draining: it takes no new work via
        ``route()``/``prefer`` but keeps finishing what it holds."""
        if name not in self._by_pool:
            raise KeyError(f"unknown pool {name!r}")
        if draining:
            self._draining.add(name)
        else:
            self._draining.discard(name)

    def retire_pool(self, name: str) -> None:
        """Decommission a drained pool.  Refuses while work is resident
        — retirement must never lose requests (that would be a crash,
        not a scale-down)."""
        sched = self._by_pool.get(name)
        if sched is None:
            raise KeyError(f"unknown pool {name!r}")
        if sched._running or sched._policy:
            raise RuntimeError(
                f"pool {name!r} still holds work; drain before retiring"
            )
        self._draining.discard(name)
        self._retired.add(name)

    def is_routable(self, sched: ContinuousBatchingScheduler) -> bool:
        name = sched.pool.name
        return (
            sched.pool.alive
            and name not in self._draining
            and name not in self._retired
        )

    # ---- routing ---------------------------------------------------------------------

    def route(self, exclude=None) -> Optional[ContinuousBatchingScheduler]:
        """Least-loaded routable pool; name breaks ties
        deterministically.  Draining and retired pools are skipped —
        scale-down must starve a replica of new work to drain it."""
        alive = [
            s
            for s in self.schedulers
            if self.is_routable(s) and s is not exclude
        ]
        if not alive:
            return None
        return min(
            alive,
            key=lambda s: (len(s._running) + len(s._policy), s.pool.name),
        )

    def submit(self, req, prefer: Optional[str] = None) -> None:
        """Route and submit.  ``prefer`` names a pool to favour while it
        is alive — session affinity, so a multi-turn session lands on
        the pool holding its KV prefix.  A dead preferred pool falls
        back to normal least-loaded routing (the reroute-recompute
        path re-prefills the lost prefix)."""
        now = self.loop.now
        sched = None
        if prefer is not None:
            candidate = self._by_pool.get(prefer)
            if candidate is not None and self.is_routable(candidate):
                sched = candidate
        if sched is None:
            sched = self.route()
        if sched is None:
            self.stats.terminate(
                now, EventKind.SHED, req, "router", reason="no alive pools"
            )
            self.on_terminal(req)
            return
        self._location[req.request_id] = sched
        self._attempts.setdefault(req.request_id, 1)
        if req.request_id not in self._deadlines:
            deadline = max(req.arrival_s + self.recovery.deadline_s, now)
            self._deadlines[req.request_id] = self.loop.schedule_at(
                deadline, lambda: self._deadline_fired(req)
            )
        sched.submit(req)

    # ---- scheduler callbacks ---------------------------------------------------------

    def on_terminal(self, req) -> None:
        """The request reached a terminal bucket, on a replica or here:
        drop its deadline, pending resubmit and location, then tell the
        ``terminal_listener``."""
        rid = req.request_id
        handle = self._deadlines.pop(rid, None)
        if handle is not None:
            self.loop.cancel(handle)
        pending = self._resubmits.pop(rid, None)
        if pending is not None:
            self.loop.cancel(pending[0])
        self._location.pop(rid, None)
        if self.terminal_listener is not None:
            self.terminal_listener(req)

    def on_corruption_detected(
        self, sched: ContinuousBatchingScheduler
    ) -> None:
        """A replica's verification caught a silent corruption.

        Quarantine state machine: detections per pool accumulate; once
        they reach ``integrity.quarantine_after`` the pool is failed
        exactly like a crash — resident work reroutes under the
        recovery policy, lost KV recomputes from the prompt, and the
        fleet layer may later heal the replica.  Detection without a
        quarantine budget just counts (the ``verify`` policy): the
        replica keeps redoing corrupted work at the verification cost.
        """
        pol = self.integrity
        if pol is None:
            return
        name = sched.pool.name
        count = self._corruptions.get(name, 0) + 1
        self._corruptions[name] = count
        after = pol.quarantine_after
        if after is None or count < after or not sched.pool.alive:
            return
        self.trace.record(
            self.loop.now, EventKind.QUARANTINE, None, name,
            detections=count,
        )
        sched.fail_pool(f"quarantined after {count} detected corruptions")

    def on_pool_failure(self, req, sched: ContinuousBatchingScheduler) -> None:
        """A crash took ``req`` down on ``sched``; apply the policy."""
        now = self.loop.now
        rid = req.request_id
        attempt = self._attempts.get(rid, 1)
        if (
            self.recovery.mode == "fail_fast"
            or attempt > self.recovery.max_retries
        ):
            self.stats.terminate(
                now, EventKind.FAIL, req, sched.pool.name,
                reason=f"recovery exhausted after {attempt - 1} retry(ies)",
            )
            self.on_terminal(req)
            return
        self._attempts[rid] = attempt + 1
        self.stats.retries += 1
        delay = self.recovery.backoff_s(attempt, rid)
        if self.recovery.mode == "retry":
            # Naive same-pool retry: if the pool stays dead this comes
            # straight back here with attempt+1 until the budget runs
            # out — which is the point of comparing it against reroute.
            target = sched
            self.trace.record(
                now, EventKind.RETRY, rid, sched.pool.name,
                attempt=attempt, delay_s=delay,
            )
        else:
            target = self.route()
            if target is None:
                self.stats.terminate(
                    now, EventKind.FAIL, req, sched.pool.name,
                    reason="no alive pools",
                )
                self.on_terminal(req)
                return
            self.trace.record(
                now, EventKind.REROUTE, rid, target.pool.name,
                src=sched.pool.name, attempt=attempt, delay_s=delay,
            )
        self._location[rid] = target

        def fire() -> None:
            self._resubmits.pop(rid, None)
            if target.pool.alive and not self.is_routable(target):
                # The target began draining or retired during the
                # backoff: route afresh (or shed if nothing is left).
                self.submit(req)
            else:
                target.submit(req)

        self._resubmits[rid] = (self.loop.schedule_after(delay, fire), req)

    # ---- deadlines and cancellation --------------------------------------------------

    def _deadline_fired(self, req) -> None:
        rid = req.request_id
        self._deadlines.pop(rid, None)
        reason = f"deadline {self.recovery.deadline_s}s exceeded"
        sched = self._location.get(rid)
        if sched is not None and sched.evict(
            req, EventKind.TIMEOUT, reason=reason
        ):
            return  # evict() resolved it through on_terminal
        # Not resident on any replica: it is waiting out a backoff.
        self.stats.terminate(
            self.loop.now, EventKind.TIMEOUT, req, "router", reason=reason
        )
        self.on_terminal(req)

    def cancel_request(self, request_id: int) -> bool:
        sched = self._location.get(request_id)
        if sched is not None and sched.cancel_request(request_id):
            return True
        pending = self._resubmits.get(request_id)
        if pending is None:
            return False
        req = pending[1]
        self.stats.terminate(
            self.loop.now, EventKind.CANCEL, req, "router",
            reason="client cancelled",
        )
        self.on_terminal(req)
        return True

    # ---- entry point -----------------------------------------------------------------

    def run(self, requests: Sequence) -> RuntimeStats:
        if not requests:
            raise ValueError("empty workload")
        for req in sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        ):
            self.loop.schedule_at(
                req.arrival_s,
                (lambda r: lambda: self.submit(r))(req),
            )
        self.loop.run()
        return self.finalize()

    def finalize(self) -> RuntimeStats:
        for sched in self.schedulers:
            sched.finalize()  # raises when a replica failed to drain
        self.stats.makespan_s = self.loop.now
        return self.stats


# ---------------------------------------------------------------------------
# builtin plans
# ---------------------------------------------------------------------------


def builtin_fault_plans() -> Dict[str, FaultPlan]:
    """Pinned plans used by ``repro chaos``, the benches and the lint
    sweep.  Times assume the chaos scenario's ~6 s arrival window."""
    return {
        # One replica dies mid-run with work in flight: the scenario
        # where reroute+recompute visibly beats fail-fast on goodput.
        "gpu-crash": FaultPlan(
            name="gpu-crash",
            seed=0,
            events=(FaultEvent(1.5, FaultKind.GPU_CRASH, "gpu1"),),
        ),
        "stragglers": FaultPlan.generate(
            name="stragglers",
            seed=7,
            horizon_s=6.0,
            pools=("gpu0", "gpu1"),
            slowdowns=2,
            transients=2,
        ),
        "chaos-mix": FaultPlan.generate(
            name="chaos-mix",
            seed=13,
            horizon_s=6.0,
            pools=("gpu0", "gpu1"),
            crashes=1,
            transients=2,
            slowdowns=1,
        ),
        # Two losses on the prefill→decode link, armed while the
        # reference disaggregated scenario's migration (batch 8, prompt
        # 256: in flight ~0.38–0.43 s) is crossing — the retry policy
        # re-sends twice and still lands the batch.
        "flaky-link": FaultPlan(
            name="flaky-link",
            seed=11,
            events=(
                FaultEvent(0.38, FaultKind.MIGRATION_FAIL, "decode"),
                FaultEvent(0.40, FaultKind.MIGRATION_FAIL, "decode"),
            ),
        ),
        # Silent-data-corruption plans: none of these faults raise any
        # error signal.  Without the integrity layer the runtime serves
        # wrong tokens with perfect availability; with verification on,
        # every corruption is caught and the work redone or rerouted.
        "sdc-replica": FaultPlan(
            name="sdc-replica",
            seed=17,
            events=(
                # gpu1 goes flaky for most of the run: 40% of its decode
                # iterations return plausible-but-wrong results.  A KV
                # block on gpu0 is also garbled in place mid-run.
                FaultEvent(
                    0.5, FaultKind.SDC_REPLICA, "gpu1",
                    duration_s=3.0, factor=0.4,
                ),
                FaultEvent(1.2, FaultKind.KV_CORRUPTION, "gpu0"),
            ),
        ),
        "weight-flip": FaultPlan(
            name="weight-flip",
            seed=19,
            events=(
                FaultEvent(1.0, FaultKind.WEIGHT_BIT_FLIP, "gpu1"),
            ),
        ),
        # One corruption on the prefill→decode link while the reference
        # disaggregated migration is in flight (~0.38–0.43 s): the KV
        # arrives garbled and, unverified, poisons the whole batch.
        "kv-poison": FaultPlan(
            name="kv-poison",
            seed=23,
            events=(
                FaultEvent(0.38, FaultKind.KV_CORRUPTION, "decode"),
            ),
        ),
    }
