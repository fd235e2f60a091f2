"""Autoscaling policies: when to add a replica, when to drain one.

An :class:`AutoscalerPolicy` is pure decision logic — given the fleet's
observed utilization and queue depth it returns a desired replica
count; the :class:`~repro.fleet.simulator.FleetSimulator` turns the
delta into timed provision/drain events.  Keeping the policy pure makes
the decision trivially deterministic.  The constructor refuses the
shapes a feedback loop cannot run well: a dynamic policy needs a
hysteresis band above the scale-down floor and a replica ceiling.  The
hysteresis floor, scale step, cooldown and evaluation interval are class
constants that every policy shares; a scale-down always drains.

Two dynamic variants plus a static baseline:

* ``target-utilization`` — track a busy-slot fraction: above ``target``
  add capacity, below ``down_target`` (the hysteresis floor) remove it.
* ``queue-depth`` — track waiting work: more than ``target`` queued
  requests per active replica adds capacity; an empty queue on an
  under-utilized fleet removes it.
* ``static`` — ``min_replicas == max_replicas``, never scales.  The
  capacity planner sweeps these as the provisioning baselines the
  autoscalers must beat on cost.
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
    #: Fleet-size bounds.  A ceiling is required: without one a traffic
    #: spike or a stuck-high signal provisions replicas without limit.
    min_replicas: int = 2
    max_replicas: int = 4
    #: Scale-up trigger: utilization fraction (target-utilization) or
    #: queued requests per active replica (queue-depth).
    target: float = 0.5
    #: Hysteresis floor — scale down only below this.  A dynamic
    #: policy's ``target`` must sit above it: with no dead band, one
    #: signal value can trigger scale-up and scale-down, so the fleet
    #: flaps, paying boot cost for zero served tokens.
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
        if self.max_replicas is None:
            raise ValueError(
                "max_replicas is required: an unbounded fleet turns one "
                "traffic spike into an unbounded bill"
            )
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas cannot be below min_replicas")
        if self.target <= 0:
            raise ValueError("target must be positive")
        if self.mode == "static":
            if self.max_replicas != self.min_replicas:
                raise ValueError(
                    "a static policy needs min_replicas == max_replicas"
                )
        elif self.target <= self.down_target:
            raise ValueError(
                f"target={self.target} is not above down_target="
                f"{self.down_target}: with no hysteresis band the policy "
                "flaps between scale-up and scale-down"
            )

    # ---- decision --------------------------------------------------------------------

    def bounded(self, n: int) -> int:
        return max(self.min_replicas, min(n, self.max_replicas))

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


#: The shipped policies, swept by the capacity planner.  Dynamic
#: minimums sit at 2 so the chaos-mix fault arm (which targets
#: gpu0/gpu1) always finds its pools.
AUTOSCALER_POLICIES: Dict[str, AutoscalerPolicy] = {
    "target-util": AutoscalerPolicy(name="target-util"),
    "queue-depth": AutoscalerPolicy(
        name="queue-depth", mode="queue-depth", target=2.0
    ),
    "static-2": static_policy(2),
    "static-3": static_policy(3),
    "static-4": static_policy(4),
}


def get_autoscaler_policy(name: str) -> AutoscalerPolicy:
    try:
        return AUTOSCALER_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown autoscaler policy {name!r}; "
            f"builtin: {sorted(AUTOSCALER_POLICIES)}"
        ) from None
