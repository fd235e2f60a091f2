"""Autoscaling policies: when to add a replica, when to drain one.

An :class:`AutoscalerPolicy` is pure decision logic — given the fleet's
observed utilization and queue depth it returns a desired replica
count; the :class:`~repro.fleet.simulator.FleetSimulator` turns the
delta into timed provision/drain events.  Keeping the policy pure makes
it lintable (the A rules judge the *parameters*: hysteresis band,
bounds, drain behaviour) and makes the decision trivially
deterministic.  The hysteresis floor, scale step, cooldown and
evaluation interval are class constants that every policy shares.

Two dynamic variants plus a static baseline:

* ``target-utilization`` — track a busy-slot fraction: above ``target``
  add capacity, below ``down_target`` (the hysteresis floor) remove it.
* ``queue-depth`` — track waiting work: more than ``target`` queued
  requests per active replica adds capacity; an empty queue on an
  under-utilized fleet removes it.
* ``static`` — ``min_replicas == max_replicas``, never scales.  The
  capacity planner sweeps these as the provisioning baselines the
  autoscalers must beat on cost.

``BROKEN_AUTOSCALER_POLICIES`` are deliberately mis-configured fixtures
mapped to the A-rule ids they must trip — the same reconciliation
discipline as ``BROKEN_RECOVERY_POLICIES`` (R family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

__all__ = [
    "AUTOSCALER_MODES",
    "AutoscalerPolicy",
    "static_policy",
    "AUTOSCALER_POLICIES",
    "BROKEN_AUTOSCALER_POLICIES",
    "get_autoscaler_policy",
]

AUTOSCALER_MODES: Tuple[str, ...] = (
    "static",
    "target-utilization",
    "queue-depth",
)


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Parameters of one scaling loop."""

    name: str
    mode: str = "target-utilization"
    #: Fleet-size bounds.  ``max_replicas=None`` means unbounded — legal
    #: to construct, but lint rule A003 flags the unbounded bill.
    min_replicas: int = 2
    max_replicas: Optional[int] = 4
    #: Scale-up trigger: utilization fraction (target-utilization) or
    #: queued requests per active replica (queue-depth).
    target: float = 0.5
    #: Scale-down behaviour: True aborts in-flight requests instead of
    #: draining (rule A002 — data loss by configuration).  A drain
    #: always migrates session KV prefixes to a survivor.
    # No shipped policy sets it, but it feeds the replay-pinned ``kills`` key.
    kill_in_flight: bool = False
    #: Hysteresis floor — scale down only below this.  A floor at or
    #: above ``target`` leaves no dead band and flaps (rule A001).
    down_target: ClassVar[float] = 0.2
    #: Replicas added/removed per decision.
    scale_step: ClassVar[int] = 1
    #: Minimum seconds between scale decisions.
    cooldown_s: ClassVar[float] = 1.0
    #: Seconds between policy evaluations.
    interval_s: ClassVar[float] = 0.25

    def __post_init__(self) -> None:
        if self.mode not in AUTOSCALER_MODES:
            raise ValueError(
                f"unknown autoscaler mode {self.mode!r}; "
                f"pick one of {AUTOSCALER_MODES}"
            )
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be at least 1")
        if (
            self.max_replicas is not None
            and self.max_replicas < self.min_replicas
        ):
            raise ValueError("max_replicas cannot be below min_replicas")
        if self.target <= 0:
            raise ValueError("target must be positive")
        if self.mode == "static" and self.max_replicas != self.min_replicas:
            raise ValueError(
                "a static policy needs min_replicas == max_replicas"
            )

    # ---- decision --------------------------------------------------------------------

    def bounded(self, n: int) -> int:
        lo = self.min_replicas
        hi = self.max_replicas if self.max_replicas is not None else n
        return max(lo, min(n, max(lo, hi)))

    def desired_replicas(
        self, count: int, utilization: float, queue_depth: int
    ) -> int:
        """Desired fleet size given ``count`` current replicas (active +
        booting), the active busy-slot fraction, and total queued work.
        Pure: same inputs, same answer."""
        if self.mode == "static":
            return self.min_replicas
        if count < self.min_replicas:
            # Below the floor (crash healing): rebuild first.
            return self.min_replicas
        if self.mode == "target-utilization":
            up = utilization > self.target
            down = utilization < self.down_target and queue_depth == 0
        else:  # queue-depth
            per_replica = queue_depth / count if count else math.inf
            up = per_replica > self.target
            down = queue_depth == 0 and utilization < self.down_target
        if up:
            return self.bounded(count + self.scale_step)
        if down:
            return self.bounded(count - self.scale_step)
        return self.bounded(count)


def static_policy(n: int, name: Optional[str] = None) -> AutoscalerPolicy:
    """Fixed provisioning at ``n`` replicas — the planner's baselines."""
    return AutoscalerPolicy(
        name=name if name is not None else f"static-{n}",
        mode="static",
        min_replicas=n,
        max_replicas=n,
    )


#: Sane builtin policies: clean under ``repro lint --fleet`` and swept
#: by the capacity planner.  Dynamic minimums sit at 2 so the chaos-mix
#: fault arm (which targets gpu0/gpu1) always finds its pools.
AUTOSCALER_POLICIES: Dict[str, AutoscalerPolicy] = {
    "target-util": AutoscalerPolicy(name="target-util"),
    "queue-depth": AutoscalerPolicy(
        name="queue-depth", mode="queue-depth", target=2.0
    ),
    "static-2": static_policy(2),
    "static-3": static_policy(3),
    "static-4": static_policy(4),
}

#: Deliberately broken fixtures → the A rules each must trip.
BROKEN_AUTOSCALER_POLICIES: Dict[
    str, Tuple[AutoscalerPolicy, Tuple[str, ...]]
] = {
    # Scale-up trigger on the scale-down floor: no hysteresis band, so
    # every evaluation may reverse the previous one — textbook flapping.
    "flappy": (
        AutoscalerPolicy(name="flappy", target=0.2),
        ("A001",),
    ),
    # Scale-down that aborts in-flight requests: configured data loss.
    "reaper": (
        AutoscalerPolicy(name="reaper", kill_in_flight=True),
        ("A002",),
    ),
    # No replica ceiling: a traffic spike writes a blank check.
    "land-grab": (
        AutoscalerPolicy(name="land-grab", max_replicas=None),
        ("A003",),
    ),
}


def get_autoscaler_policy(name: str) -> AutoscalerPolicy:
    try:
        return AUTOSCALER_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown autoscaler policy {name!r}; "
            f"builtin: {sorted(AUTOSCALER_POLICIES)}"
        ) from None
