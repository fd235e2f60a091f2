"""The multi-node autoscaling fleet simulator.

:class:`FleetSimulator` drives the session server
(:class:`~repro.server.streaming.StreamingServer`) over a replica set
that an :class:`AutoscalerPolicy` grows and shrinks:

1. replica classes come from the deployment layer (each one a
   lint-validated :class:`DeploymentSpec`, priced in $/GPU-hour);
2. replicas are :class:`~repro.runtime.core.GPUPool`s behind the
   server's :class:`~repro.runtime.faults.FaultTolerantRuntime`, so
   crashes, stragglers and recovery policies compose with scaling for
   free;
3. sessions, turn chaining and prefix reuse are the server's — and on
   scale-down, a draining replica *migrates* its session KV to a
   survivor (:meth:`SessionManager.migrate_prefix`) instead of forcing
   every session to re-prefill its history.

The fleet admits every turn (:data:`ADMIT_ALL`) and streams no tokens.

Scaling is event-driven and fully deterministic: an
:class:`AutoscalerPolicy` is evaluated on a fixed cadence as timed
:class:`EventLoop` events; scale-up schedules a provisioning completion
(``ReplicaClass.provision_s`` later) that registers a new pool with the
router; scale-down marks a victim as draining (the router stops routing
to it), waits for resident work to finish, ships the session prefixes
to a survivor over the class's interconnect, and retires the pool.
Cost accrues per replica from provision start to retirement/crash — an
idle-but-booted replica bills exactly like a busy one, which is the
whole reason static over-provisioning loses on cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..gpu.specs import get_gpu
from ..llm.serving import ServingConfig, ServingSimulator
from ..runtime import EventLoop, FaultPlan, RuntimeStats
from ..runtime.events import EventKind
from ..server.admission import ServerPolicy
from ..server.sessions import SessionSpec
from ..server.streaming import StreamingServer
from .autoscaler import AutoscalerPolicy
from .spec import FleetSpec, ReplicaClass

__all__ = [
    "ADMIT_ALL",
    "ReplicaInfo",
    "FleetOutcome",
    "FleetSimulator",
]

#: TTFT ceiling used for the goodput-SLO attainment metric (seconds).
SLO_TTFT_S = 1.0

#: The fleet's front door: one unbounded bucket, one tier and no tenant
#: quota, so every turn is admitted on arrival.
ADMIT_ALL = ServerPolicy(
    name="admit-all",
    bucket_bounds=(sys.maxsize,),
    priority_tiers=1,
    tenant_quota_tokens=None,
)


@dataclass
class ReplicaInfo:
    """Lifecycle record of one replica — the unit of the cost model."""

    name: str
    cls: ReplicaClass
    up_s: float
    ready_s: float
    state: str = "active"  # booting|active|draining|retiring|retired|crashed
    down_s: Optional[float] = None

    def billed_until(self, makespan_s: float) -> float:
        return self.down_s if self.down_s is not None else makespan_s

    def cost_usd(self, makespan_s: float) -> float:
        hours = max(0.0, self.billed_until(makespan_s) - self.up_s) / 3600.0
        return hours * self.cls.hourly_cost


@dataclass
class FleetOutcome:
    """Everything one policy run produced, ready for report/lint."""

    policy: AutoscalerPolicy
    stats: RuntimeStats
    replicas: List[ReplicaInfo]
    turns_submitted: int
    sessions_submitted: int
    sessions_completed: int
    sessions_aborted: int
    scale_ups: int
    scale_downs: int
    scale_denied: int
    drains: int
    kills: int
    kv_migrations: int
    kv_migrated_tokens: int
    kv_migration_drops: int
    prefix_leaked_blocks: int
    slo_attained: int
    makespan_s: float

    @property
    def cost_usd(self) -> float:
        return sum(r.cost_usd(self.makespan_s) for r in self.replicas)

    @property
    def replica_seconds(self) -> float:
        return sum(
            max(0.0, r.billed_until(self.makespan_s) - r.up_s)
            for r in self.replicas
        )

    @property
    def slo_attainment(self) -> float:
        """Fraction of submitted turns completed within the TTFT SLO —
        the "goodput SLO" axis static provisioning is judged on."""
        if not self.turns_submitted:
            return 1.0
        return self.slo_attained / self.turns_submitted

    @property
    def cost_per_mtok(self) -> float:
        """Dollars per million completed output tokens."""
        tokens = sum(r.output_len for r in self.stats.completed)
        if tokens == 0:
            return math.inf
        return self.cost_usd * 1e6 / tokens

    def replica_extremes(self) -> Tuple[int, int]:
        """(peak, trough) concurrent replica count over [0, makespan),
        computed exactly from the lifecycle log.  Replicas still alive
        at the end contribute no down-step, so the final live count —
        not zero — is the last sample."""
        deltas: Dict[float, int] = {}
        for r in self.replicas:
            deltas[r.up_s] = deltas.get(r.up_s, 0) + 1
            if r.down_s is not None:
                deltas[r.down_s] = deltas.get(r.down_s, 0) - 1
        count = peak = 0
        trough: Optional[int] = None
        for t in sorted(deltas):
            count += deltas[t]
            peak = max(peak, count)
            trough = count if trough is None else min(trough, count)
        return peak, max(0, trough if trough is not None else 0)


class FleetSimulator(StreamingServer):
    """A :class:`StreamingServer` whose replica set an
    :class:`AutoscalerPolicy` grows and shrinks.

    The session lifecycle (turn chaining, prefix reuse, teardown) is the
    server's; the fleet adds replica provisioning, draining and cost
    accounting.  It admits every turn and streams no tokens."""

    def __init__(
        self,
        fleet: FleetSpec,
        policy: AutoscalerPolicy,
        recovery,
        fault_plan: Optional[FaultPlan] = None,
        horizon_s: float = 16.0,
        loop: Optional[EventLoop] = None,
    ) -> None:
        self.fleet = fleet
        self.policy = policy
        self.horizon_s = horizon_s
        self._sims: Dict[str, ServingSimulator] = {}
        for cls in fleet.classes:
            self._sims[cls.name] = ServingSimulator(
                ServingConfig(
                    model=cls.model,
                    framework=cls.framework,
                    gpu=cls.gpu,
                    max_batch=cls.max_batch,
                    kv_cap_tokens=cls.kv_cap_tokens,
                )
            )
        self.replicas: Dict[str, ReplicaInfo] = {}
        self._pool_seq = 0
        # The initial fleet: min_replicas, cheapest classes first, live
        # at t=0 (the cold-start lag only applies to elastic additions).
        pools = []
        for _ in range(policy.min_replicas):
            cls = self._pick_class()
            if cls is None:
                raise ValueError(
                    f"fleet {fleet.name!r} cannot host "
                    f"{policy.min_replicas} replicas"
                )
            name = self._next_name()
            self.replicas[name] = ReplicaInfo(
                name=name, cls=cls, up_s=0.0, ready_s=0.0
            )
            pools.append(self._build_pool(cls, name))
        super().__init__(
            pools, recovery, ADMIT_ALL, fault_plan=fault_plan, loop=loop
        )
        self._last_scale_t = -math.inf
        self.scale_ups = 0
        self.scale_downs = 0
        self.scale_denied = 0
        self.drains = 0
        self.kills = 0

    # ---- replica construction --------------------------------------------------------

    def _next_name(self) -> str:
        name = f"gpu{self._pool_seq}"
        self._pool_seq += 1
        return name

    def _build_pool(self, cls: ReplicaClass, name: str):
        return self._sims[cls.name].build_pool(name=name)

    def _class_population(self, cls: ReplicaClass) -> int:
        """Replicas of ``cls`` that are (or will be) consuming budget."""
        return sum(
            1
            for name in sorted(self.replicas)
            if self.replicas[name].cls.name == cls.name
            and self.replicas[name].state
            in ("booting", "active", "draining", "retiring")
        )

    def _pick_class(self) -> Optional[ReplicaClass]:
        """Cheapest class with headroom under its per-class ceiling."""
        for cls in self.fleet.by_cost():
            if self._class_population(cls) < cls.max_replicas:
                return cls
        return None

    # ---- load signals ----------------------------------------------------------------

    def _active(self) -> List[ReplicaInfo]:
        out = []
        # repro: allow S003 audited: replicas is appended in event order
        for info in self.replicas.values():
            if info.state != "active":
                continue
            sched = self.runtime._by_pool.get(info.name)
            if sched is not None and sched.pool.alive:
                out.append(info)
        return out

    def _booting(self) -> int:
        return sum(
            1
            for name in sorted(self.replicas)
            if self.replicas[name].state == "booting"
        )

    def _signals(self) -> Tuple[int, float, int]:
        """(count, utilization, queue_depth) for the policy decision."""
        active = self._active()
        busy = cap = queued = 0
        for info in active:
            sched = self.runtime._by_pool[info.name]
            busy += len(sched._running)
            cap += info.cls.max_batch
            queued += len(sched._policy)
        util = busy / cap if cap else 1.0
        return len(active) + self._booting(), util, queued

    # ---- the scaling loop ------------------------------------------------------------

    def _mark_crashes(self) -> None:
        for info in self.replicas.values():
            if info.state in ("booting", "retired", "crashed"):
                continue
            sched = self.runtime._by_pool.get(info.name)
            if sched is not None and not sched.pool.alive:
                info.state = "crashed"
                info.down_s = self.loop.now

    def _tick(self) -> None:
        now = self.loop.now
        self._mark_crashes()
        count, util, queued = self._signals()
        desired = self.policy.desired_replicas(count, util, queued)
        if (
            desired != count
            and now - self._last_scale_t >= self.policy.cooldown_s
        ):
            if desired > count:
                self._scale_up(desired - count)
            else:
                self._scale_down(count - desired)
            self._last_scale_t = now
        if (
            now < self.horizon_s
            or len(self._specs) > self.sessions_completed + self.sessions_aborted
            or any(
                r.state in ("booting", "draining", "retiring")
                for r in self.replicas.values()
            )
        ):
            self.loop.schedule_after(self.policy.interval_s, self._tick)

    def _scale_up(self, k: int) -> None:
        now = self.loop.now
        for _ in range(k):
            cls = self._pick_class()
            if cls is None:
                # Every class is at its ceiling: record the refusal
                # instead of silently capping (the planner reports it).
                self.scale_denied += 1
                continue
            name = self._next_name()
            self.replicas[name] = ReplicaInfo(
                name=name,
                cls=cls,
                up_s=now,
                ready_s=now + cls.provision_s,
                state="booting",
            )
            self.scale_ups += 1
            self.loop.schedule_at(
                now + cls.provision_s,
                (lambda n: lambda: self._provisioned(n))(name),
            )

    def _provisioned(self, name: str) -> None:
        info = self.replicas[name]
        if info.state != "booting":  # pragma: no cover - defensive
            return
        info.state = "active"
        sched = self.runtime.add_pool(self._build_pool(info.cls, name))
        self.sessions.attach_scheduler(sched)

    def _scale_down(self, k: int) -> None:
        victims = sorted(
            self._active(),
            key=lambda r: (
                -r.cls.hourly_cost,  # shed pricey capacity first
                len(self.runtime._by_pool[r.name]._running)
                + len(self.runtime._by_pool[r.name]._policy),
                r.name,
            ),
        )
        for info in victims[:k]:
            self._begin_drain(info)

    def _begin_drain(self, info: ReplicaInfo) -> None:
        info.state = "draining"
        self.drains += 1
        self.runtime.set_draining(info.name)
        sched = self.runtime._by_pool[info.name]
        if self.policy.kill_in_flight:
            # The A002 fixture behaviour: abort resident work instead of
            # letting it finish.  Every victim lands in the shed bucket,
            # so conservation still holds — the loss is the point.
            self.kills += self._kill_resident(sched)
        # An already-empty pool finishes its drain end-of-instant.
        self.loop.defer(self._check_drains)

    def _kill_resident(self, sched) -> int:
        now = self.loop.now
        killed = 0
        for req in [s.req for s in list(sched._running)]:
            if sched.evict(
                req, EventKind.SHED, self.runtime.stats.shed,
                reason="scale-down kill",
            ):
                killed += 1
        while True:
            queued = sched._policy.pop_ready(now)
            if queued is None:
                break
            self.runtime.trace.record(
                now, EventKind.SHED, queued.request_id, sched.pool.name,
                reason="scale-down kill",
            )
            self.runtime.stats.shed.append(queued)
            sched._resolve(queued)
            killed += 1
        return killed

    def _check_drains(self) -> None:
        self._mark_crashes()
        for info in list(self.replicas.values()):
            if info.state != "draining":
                continue
            sched = self.runtime._by_pool[info.name]
            if sched._running or sched._policy:
                continue  # still finishing resident work
            self._finish_drain(info)

    def _finish_drain(self, info: ReplicaInfo) -> None:
        info.state = "retiring"
        now = self.loop.now
        sched = self.runtime._by_pool[info.name]
        moved_tokens = 0
        if self.policy.migrate_kv:
            for session_id in self.sessions.sessions_on(info.name):
                target = self.runtime.route()
                if target is None:
                    self.sessions.drop_prefixes_on(info.name)
                    break
                moved_tokens += self.sessions.migrate_prefix(
                    session_id, target
                )
        else:
            self.sessions.drop_prefixes_on(info.name)
        if moved_tokens:
            # Ship time over the class interconnect; the replica bills
            # until the transfer lands.
            gbs = get_gpu(info.cls.gpu).interconnect_gbs
            bytes_moved = moved_tokens * sched.pool.kv_per_token
            delay = bytes_moved / (gbs * 1e9)
            self.loop.schedule_at(
                now + delay,
                (lambda n: lambda: self._retire(n))(info.name),
            )
        else:
            self._retire(info.name)

    def _retire(self, name: str) -> None:
        info = self.replicas[name]
        if info.state != "retiring":  # pragma: no cover - defensive
            return
        self.runtime.retire_pool(name)
        info.state = "retired"
        info.down_s = self.loop.now
        self.scale_downs += 1

    # ---- server hooks ----------------------------------------------------------------

    def _on_terminal(self, req) -> None:
        super()._on_terminal(req)
        # Terminals are the drain's progress signal: no polling needed.
        self._check_drains()

    def _schedule_sessions(self, specs: Sequence[SessionSpec]) -> None:
        super()._schedule_sessions(specs)
        self.loop.schedule_at(self.policy.interval_s, self._tick)

    # ---- entry point -----------------------------------------------------------------

    def run(self, specs: Sequence[SessionSpec]) -> FleetOutcome:
        stats = super().run(specs)
        self._mark_crashes()
        slo_attained = sum(
            1
            for r in stats.completed
            if r.ttft_s is not None and r.ttft_s <= SLO_TTFT_S
        )
        return FleetOutcome(
            policy=self.policy,
            stats=stats,
            replicas=sorted(
                self.replicas.values(), key=lambda r: (r.up_s, r.name)
            ),
            turns_submitted=len(self.requests),
            sessions_submitted=len(self._specs),
            sessions_completed=self.sessions_completed,
            sessions_aborted=self.sessions_aborted,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            scale_denied=self.scale_denied,
            drains=self.drains,
            kills=self.kills,
            kv_migrations=self.sessions.migrations,
            kv_migrated_tokens=self.sessions.migrated_tokens,
            kv_migration_drops=self.sessions.migration_drops,
            prefix_leaked_blocks=sum(
                len(self.prefix_leaks[name])
                for name in sorted(self.prefix_leaks)
            ),
            slo_attained=slo_attained,
            makespan_s=stats.makespan_s,
        )
